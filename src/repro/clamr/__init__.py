"""CLAMR mini-app: cell-based AMR shallow-water hydrodynamics.

A Python/NumPy re-implementation of LANL's CLAMR mini-app (paper §IV-A),
faithful to its architecture:

* a **cell-based AMR mesh** — no patches, no tree walks at solve time; the
  mesh is a flat "cell soup" of ``(i, j, level)`` triples whose neighbors
  are found through a finest-level spatial hash, with a 2:1 level balance
  (:mod:`repro.clamr.mesh`, :mod:`repro.clamr.amr`);
* the **shallow-water equations** advanced by a conservative finite-volume
  kernel with face-by-face fluxes; the hot loop runs either as NumPy bulk
  array expressions ("vectorized", :mod:`repro.clamr.kernels`) or one face
  at a time on the ``python`` kernel backend ("unvectorized",
  :mod:`repro.clamr.backends.loops`) — the axis of the paper's Table III,
  with bit-identical results;
* **three precision modes** via :class:`repro.precision.PrecisionPolicy`:
  minimum (float32 throughout), mixed (float32 state, float64 locals),
  full (float64 throughout) (:mod:`repro.clamr.state`);
* **checkpoint output** whose file size scales with the state dtype — the
  86 MB vs 128 MB comparison of Table III (:mod:`repro.clamr.checkpoint`);
* the **cylindrical dam-break** driver with Courant-limited timestepping
  and double-double conservation accounting (:mod:`repro.clamr.simulation`).

Importing the package loads none of these modules: each name below loads
its module on first access (PEP 562), so ``from repro.clamr import
backends`` in a SELF process does not load the CLAMR kernels or driver.
"""

from repro.lazy import lazy_exports

__getattr__, __all__ = lazy_exports(__name__, {
    "AmrMesh": "repro.clamr.mesh",
    "ShallowWaterState": "repro.clamr.state",
    "regrid": "repro.clamr.amr",
    "refinement_flags": "repro.clamr.amr",
    "finite_diff_vectorized": "repro.clamr.kernels",
    "finite_diff_muscl": "repro.clamr.muscl",
    "compute_timestep": "repro.clamr.kernels",
    "ClamrSimulation": "repro.clamr.simulation",
    "DamBreakConfig": "repro.clamr.config",
    "SimulationResult": "repro.clamr.simulation",
    "write_checkpoint": "repro.clamr.checkpoint",
    "read_checkpoint": "repro.clamr.checkpoint",
    "checkpoint_nbytes": "repro.clamr.checkpoint",
    "StokerSolution": "repro.clamr.stoker",
})
