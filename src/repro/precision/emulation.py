"""Reduced-precision emulation.

The paper's future-work section (§VIII) anticipates "new hardware with many
more precision choices," driven by machine learning.  This module lets the
mini-apps *emulate* such formats on commodity IEEE-754 hardware by rounding
values through a narrower format after every state update:

* :func:`quantize_to_half` — IEEE binary16 (5 exponent / 10 mantissa bits);
* :func:`quantize_to_bfloat16` — bfloat16 (8 exponent / 7 mantissa bits),
  emulated by truncating float32 with round-to-nearest-even;
* :func:`truncate_mantissa` — an arbitrary mantissa width, the knob CRAFT-
  style bit-level precision analysis (paper ref [17]) sweeps.

Emulation changes *values*, not storage: arrays stay float32/float64 so the
surrounding NumPy kernels keep running at full speed.  The machine model
(``repro.machine``) is what translates a narrower storage format into
bandwidth/footprint gains.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "quantize_to_half",
    "quantize_to_bfloat16",
    "truncate_mantissa",
    "EmulatedDtype",
    "machine_epsilon",
]


def quantize_to_half(array: np.ndarray) -> np.ndarray:
    """Round values through IEEE binary16, returning the original dtype.

    Values that overflow binary16 (>65504 in magnitude) become ±inf, exactly
    as storing to a half-precision register would.
    """
    arr = np.asarray(array)
    out_dtype = arr.dtype if arr.dtype.kind == "f" else np.dtype(np.float64)
    with np.errstate(over="ignore"):  # overflow to ±inf is the point
        return arr.astype(np.float16).astype(out_dtype)


def quantize_to_bfloat16(array: np.ndarray, out: np.ndarray | None = None, scratch=np.empty) -> np.ndarray:
    """Round values through bfloat16 (8-bit exponent, 7-bit mantissa).

    NumPy has no native bfloat16, so we emulate it bit-exactly on float32:
    round-to-nearest-even on the low 16 bits, then zero them.  The float32
    exponent field is already bfloat16's exponent field, so range is
    preserved and only mantissa bits are dropped.

    The result has the input's float dtype (float64 for other inputs), in
    ``out`` when given.  The rounding runs in place on one float32 copy;
    ``scratch(shape, dtype)`` hands out that copy and its two work arrays.
    """
    arr = np.asarray(array)
    out_dtype = arr.dtype if arr.dtype.kind == "f" else np.dtype(np.float64)
    as32 = scratch(arr.shape, np.float32)
    np.copyto(as32, arr, casting="unsafe")
    # NaNs must stay NaNs: the add below can carry into the exponent of a
    # NaN payload and produce inf; a canonical quiet NaN is restored there
    nan_mask = np.isnan(as32, out=scratch(arr.shape, bool))
    bits = as32.view(np.uint32)
    # round-to-nearest-even on bit 16: add 0x7FFF + LSB-of-kept-part
    bias = scratch(arr.shape, np.uint32)
    np.right_shift(bits, np.uint32(16), out=bias)
    np.bitwise_and(bias, np.uint32(1), out=bias)
    np.add(bias, np.uint32(0x7FFF), out=bias)
    np.add(bits, bias, out=bits)
    np.bitwise_and(bits, np.uint32(0xFFFF0000), out=bits)
    np.copyto(as32, np.float32(np.nan), where=nan_mask)
    if out is None:
        out = np.empty(arr.shape, out_dtype)
    np.copyto(out, as32)
    return out


def truncate_mantissa(array: np.ndarray, mantissa_bits: int) -> np.ndarray:
    """Keep only the leading ``mantissa_bits`` explicit mantissa bits.

    This is the bit-level precision knob of CRAFT-style analysis: a float64
    value truncated to 23 mantissa bits carries (slightly more than) float32
    information while remaining a float64 for storage/compute.  Truncation is
    round-toward-zero on the mantissa field; exponent and sign are untouched,
    so no overflow can occur.

    Parameters
    ----------
    array:
        float32 or float64 input (other dtypes are promoted to float64).
    mantissa_bits:
        Number of explicit mantissa bits to keep, ``0 <= bits <= 52``.
        Values ≥ the format's native width return the input unchanged.
    """
    if not 0 <= mantissa_bits <= 52:
        raise ValueError(f"mantissa_bits must be in [0, 52], got {mantissa_bits}")
    arr = np.asarray(array)
    if arr.dtype == np.float32:
        native = 23
        if mantissa_bits >= native:
            return arr
        bits = arr.view(np.uint32)
        mask = np.uint32(0xFFFFFFFF) << np.uint32(native - mantissa_bits)
        return (bits & mask).view(np.float32)
    arr64 = arr.astype(np.float64, copy=False)
    native = 52
    if mantissa_bits >= native:
        return arr64
    bits64 = arr64.view(np.uint64)
    mask64 = np.uint64(0xFFFFFFFFFFFFFFFF) << np.uint64(native - mantissa_bits)
    return (bits64 & mask64).view(np.float64)


def machine_epsilon(mantissa_bits: int) -> float:
    """Unit roundoff 2**-(p) for a format with ``mantissa_bits`` explicit bits.

    With the implicit leading bit the format holds ``mantissa_bits + 1``
    significant bits, so eps = 2**-mantissa_bits matches ``np.finfo`` for the
    IEEE formats (23 → float32 eps, 52 → float64 eps).
    """
    return float(2.0 ** (-mantissa_bits))


@dataclass(frozen=True)
class EmulatedDtype:
    """A named emulated storage format for sweep experiments.

    Attributes
    ----------
    name:
        Display name (e.g. ``"fp24"``).
    mantissa_bits:
        Explicit mantissa width used by :func:`truncate_mantissa`.
    storage_bytes:
        Bytes the format would occupy on native hardware; consumed by the
        machine model to scale bandwidth and footprint.
    """

    name: str
    mantissa_bits: int
    storage_bytes: int

    def quantize(self, array: np.ndarray) -> np.ndarray:
        """Round an array through this format."""
        return truncate_mantissa(array, self.mantissa_bits)

    @property
    def epsilon(self) -> float:
        return machine_epsilon(self.mantissa_bits)


#: Formats ladder used by the extension benchmarks (§VIII sweep).
FORMAT_LADDER = (
    EmulatedDtype("fp16", mantissa_bits=10, storage_bytes=2),
    EmulatedDtype("bf16", mantissa_bits=7, storage_bytes=2),
    EmulatedDtype("fp24", mantissa_bits=16, storage_bytes=3),
    EmulatedDtype("fp32", mantissa_bits=23, storage_bytes=4),
    EmulatedDtype("fp40", mantissa_bits=29, storage_bytes=5),
    EmulatedDtype("fp64", mantissa_bits=52, storage_bytes=8),
)
