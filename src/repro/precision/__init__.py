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

from repro.precision.policy import (
    PrecisionLevel,
    PrecisionPolicy,
    MIN_PRECISION,
    MIXED_PRECISION,
    FULL_PRECISION,
)
from repro.precision.emulation import (
    quantize_to_half,
    quantize_to_bfloat16,
    truncate_mantissa,
    EmulatedDtype,
)
from repro.precision.analysis import (
    line_out,
    mirror_asymmetry,
    difference_metrics,
    digits_of_agreement,
    DifferenceReport,
)
from repro.precision.stochastic import stochastic_round_float32, stochastic_truncate
from repro.precision.bitsweep import sweep_mantissa_bits, minimum_safe_bits, BitSweepResult
from repro.precision.tuner import GreedyPrecisionTuner, TunerResult, ArrayBinding

__all__ = [
    "PrecisionLevel",
    "PrecisionPolicy",
    "MIN_PRECISION",
    "MIXED_PRECISION",
    "FULL_PRECISION",
    "quantize_to_half",
    "quantize_to_bfloat16",
    "truncate_mantissa",
    "EmulatedDtype",
    "line_out",
    "mirror_asymmetry",
    "difference_metrics",
    "digits_of_agreement",
    "DifferenceReport",
    "stochastic_round_float32",
    "stochastic_truncate",
    "sweep_mantissa_bits",
    "minimum_safe_bits",
    "BitSweepResult",
    "GreedyPrecisionTuner",
    "TunerResult",
    "ArrayBinding",
]
