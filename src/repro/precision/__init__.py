"""Precision-policy machinery — the paper's primary contribution.

The paper's central idea (§IV-C) is that a simulation code should expose
*selectable precision levels* rather than unconditionally using the widest
type the hardware offers.  CLAMR exposes three compile-time modes, which we
reproduce as a runtime :class:`~repro.precision.policy.PrecisionPolicy`:

``MIN``
    single precision (binary32) everywhere in the numerics.
``MIXED``
    single precision for the large physical *state arrays* (the memory
    footprint), but all *local calculations* promoted to double — "save
    storage space while keeping as much precision as possible elsewhere".
``FULL``
    double precision (binary64) throughout.

Graphics/plotting stay single precision in every mode, exactly as in the
paper ("the resolution of screens and plotters cannot benefit from higher
precision").

This subpackage also carries the fidelity-analysis toolkit used by the
paper's figures: center line-outs, precision-difference metrics, digits of
agreement, and the mirror-asymmetry diagnostic of Figs. 2 and 5.
"""

from repro.lazy import lazy_exports

__getattr__, __all__ = lazy_exports(__name__, {
    "PrecisionLevel": "repro.precision.policy",
    "PrecisionPolicy": "repro.precision.policy",
    "MIN_PRECISION": "repro.precision.policy",
    "MIXED_PRECISION": "repro.precision.policy",
    "FULL_PRECISION": "repro.precision.policy",
    "quantize_to_half": "repro.precision.emulation",
    "quantize_to_bfloat16": "repro.precision.emulation",
    "truncate_mantissa": "repro.precision.emulation",
    "EmulatedDtype": "repro.precision.emulation",
    "line_out": "repro.precision.analysis",
    "mirror_asymmetry": "repro.precision.analysis",
    "difference_metrics": "repro.precision.analysis",
    "digits_of_agreement": "repro.precision.analysis",
    "DifferenceReport": "repro.precision.analysis",
    "stochastic_round_float32": "repro.precision.stochastic",
    "stochastic_truncate": "repro.precision.stochastic",
    "sweep_mantissa_bits": "repro.precision.bitsweep",
    "minimum_safe_bits": "repro.precision.bitsweep",
    "BitSweepResult": "repro.precision.bitsweep",
    "GreedyPrecisionTuner": "repro.precision.tuner",
    "TunerResult": "repro.precision.tuner",
    "ArrayBinding": "repro.precision.tuner",
})
