"""repro — reproduction of "Thoughtful Precision in Mini-apps" (CLUSTER 2017).

This package re-implements, in pure Python/NumPy, the two DOE-relevant
mini-applications studied by Fogerty et al. — **CLAMR** (cell-based AMR
shallow-water hydrodynamics) and **SELF** (spectral-element compressible
Navier-Stokes) — together with the precision-policy machinery, reproducible
global-sum substrate, simulated architecture (roofline + energy) models,
compiler models, and the AWS cost model needed to regenerate every table and
figure in the paper's evaluation.

Subpackages
-----------
``repro.precision``
    The paper's primary contribution: selectable precision levels
    (minimum / mixed / full), reduced-precision emulation, and the
    fidelity-analysis toolkit (line-outs, difference and asymmetry metrics).
``repro.sums``
    Reproducible global sums (Kahan, pairwise, double-double, binned).
``repro.clamr``
    Cell-based AMR shallow-water mini-app with three precision modes.
``repro.self_``
    Nodal spectral-element compressible-flow mini-app (single/double).
``repro.machine``
    Simulated architectures: device specs, roofline runtime prediction,
    energy estimation and compiler models.
``repro.cost``
    AWS EC2/S3 cost model (Table VII).
``repro.harness``
    One entry point per paper table/figure, plus report rendering.
"""

from repro.lazy import lazy_exports

__version__ = "1.0.0"

__getattr__, __all__ = lazy_exports(__name__, {
    "PrecisionLevel": "repro.precision.policy",
    "PrecisionPolicy": "repro.precision.policy",
})
__all__ += ["__version__"]
