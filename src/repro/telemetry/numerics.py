"""Numerical-event watchpoints: catch precision pathologies where they are born.

End-of-run fidelity metrics say *that* a reduced-precision run degraded;
they cannot say *where*.  Following RAPTOR-style numerical profiling,
this module scans designated state arrays at a configurable step stride
and records :class:`NumericalEvent` objects for:

``nan`` / ``inf``
    Any non-finite value — fatal; the simulation output is garbage from
    this span onward.  Recorded with the count of offending entries.
``subnormal``
    Fraction of nonzero finite values below the active dtype's smallest
    normal number.  Subnormals lose significand bits gradually and run at
    trap-assisted speed on several CPUs — a large fraction means the
    chosen precision has run out of exponent at the bottom.
``overflow_risk``
    Dynamic-range headroom: decades between the largest magnitude and
    the dtype's max.  A healthy float32 field sits ~30 decades under
    3.4e38; when headroom shrinks below the threshold, the next flux
    evaluation may saturate to inf.
``cancellation``
    Digits cancelled in a (double-double) accumulation: ``log10(Σ|x| /
    |Σx|)``.  The double-double mass sums absorb this exactly, but the
    magnitude records how ill-conditioned the conservation sum would be
    at working precision — the paper's §III-C motivation made measurable.

Each event stores the step and the id of the span in which it occurred,
so the exporters can pin "first NaN" to a specific kernel invocation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from repro.workload import RECORD_WATCH_STRIDE

__all__ = ["NumericalEvent", "NumericsWatch", "array_health", "cancellation_digits"]

#: Event kinds that invalidate the run outright.
FATAL_KINDS = frozenset({"nan", "inf"})


def array_health(arr, finfo: np.finfo) -> tuple[int, int, float, float, float]:
    """``(nan, inf, max_abs, subnormal_fraction, min_nonzero)`` of one array.

    The NaN and Inf counts, the largest finite magnitude, the share of
    nonzero finite values below ``finfo.tiny`` and the smallest nonzero
    finite magnitude (0.0 when the array has no nonzero finite value).
    The watchpoints threshold these numbers into events; the flight
    recorder samples them raw.
    """
    arr = np.asarray(arr)
    finite = np.isfinite(arr)
    n_bad = int(arr.size - np.count_nonzero(finite))
    n_nan = 0
    if n_bad:
        n_nan = int(np.count_nonzero(np.isnan(arr)))
        abs_finite = np.abs(arr[finite])
    else:
        abs_finite = np.abs(arr)
    max_abs = frac = min_nonzero = 0.0
    if abs_finite.size:
        max_abs = float(abs_finite.max())
        nonzero = abs_finite[abs_finite > 0]
        if nonzero.size:
            frac = float(np.count_nonzero(nonzero < finfo.tiny)) / nonzero.size
            min_nonzero = float(nonzero.min())
    return n_nan, n_bad - n_nan, max_abs, frac, min_nonzero


def cancellation_digits(abs_sum: float, total: float, zero_total: float = math.inf) -> float:
    """Decimal digits a working-precision sum would cancel: ``log10(Σ|x| / |Σx|)``.

    ``abs_sum`` is Σ|xᵢ| and ``total`` the accurate Σxᵢ.  A sum with no
    magnitude or a ratio of at most 1 cancels nothing (0.0); a zero total
    of a nonzero sum gives ``zero_total``.
    """
    if abs_sum <= 0:
        return 0.0
    if total == 0.0:
        return zero_total
    ratio = abs_sum / abs(total)
    return math.log10(ratio) if ratio > 1.0 else 0.0


@dataclass(frozen=True)
class NumericalEvent:
    """One detected numerical anomaly.

    ``value`` is the kind's headline magnitude: offending-entry count for
    nan/inf, fraction for subnormal, remaining decades for overflow_risk,
    cancelled digits for cancellation.  ``detail`` carries the supporting
    numbers (max magnitude, thresholds in effect, …).
    """

    kind: str
    array: str
    step: int
    span_id: int | None
    value: float
    severity: str  # "fatal" | "warn"
    detail: dict[str, float] = field(default_factory=dict)

    def describe(self) -> str:
        where = f"step {self.step}" + (f", span {self.span_id}" if self.span_id is not None else "")
        return f"[{self.severity}] {self.kind} in {self.array!r} ({where}): {self.value:g}"


class NumericsWatch:
    """Strided scanner accumulating :class:`NumericalEvent` records.

    Parameters
    ----------
    stride:
        Scan every ``stride``-th step (0 disables scanning entirely).
        Scans are O(array) passes; stride trades detection latency for
        overhead.
    subnormal_fraction:
        Warn when more than this fraction of nonzero finite values is
        subnormal in the active dtype.
    headroom_decades:
        Warn when fewer than this many decades remain between the largest
        magnitude and the dtype max.
    cancellation_digits:
        Warn when an accumulation cancels more than this many decimal
        digits.
    """

    def __init__(
        self,
        stride: int = RECORD_WATCH_STRIDE,
        subnormal_fraction: float = 1e-3,
        headroom_decades: float = 2.0,
        cancellation_digits: float = 6.0,
    ) -> None:
        if stride < 0:
            raise ValueError("stride must be non-negative")
        if not 0.0 < subnormal_fraction <= 1.0:
            raise ValueError("subnormal_fraction must be in (0, 1]")
        self.stride = stride
        self.subnormal_fraction = subnormal_fraction
        self.headroom_decades = headroom_decades
        self.cancellation_digits = cancellation_digits
        self.events: list[NumericalEvent] = []

    # -- scheduling -------------------------------------------------------

    def should_scan(self, step: int) -> bool:
        """True when ``step`` falls on the scan stride."""
        return self.stride > 0 and step % self.stride == 0

    # -- scanners ---------------------------------------------------------

    def scan(
        self,
        name: str,
        array: np.ndarray,
        dtype: np.dtype | None = None,
        step: int = 0,
        span_id: int | None = None,
    ) -> list[NumericalEvent]:
        """Scan one array; append and return any events found.

        ``dtype`` is the *active* dtype the range checks are made against
        — pass the storage dtype when scanning a promoted copy (mixed
        mode computes in float64 but must still fit float32 on store).
        Defaults to the array's own dtype.
        """
        arr = np.asarray(array)
        check_dtype = np.dtype(dtype) if dtype is not None else arr.dtype
        if check_dtype.kind != "f":
            raise ValueError(f"numerics watch needs a float dtype, got {check_dtype}")
        info = np.finfo(check_dtype)
        n_nan, n_inf, max_abs, frac, min_nonzero = array_health(arr, info)
        found: list[NumericalEvent] = []

        for kind, count in (("nan", n_nan), ("inf", n_inf)):
            if count:
                found.append(
                    NumericalEvent(
                        kind=kind, array=name, step=step, span_id=span_id,
                        value=float(count), severity="fatal",
                        detail={"size": float(arr.size)},
                    )
                )
        if frac > self.subnormal_fraction:
            found.append(
                NumericalEvent(
                    kind="subnormal", array=name, step=step, span_id=span_id,
                    value=frac, severity="warn",
                    detail={
                        "tiny": float(info.tiny),
                        "min_nonzero": min_nonzero,
                        "threshold": self.subnormal_fraction,
                    },
                )
            )
        if max_abs > 0:
            headroom = math.log10(float(info.max)) - math.log10(max_abs)
            if headroom < self.headroom_decades:
                found.append(
                    NumericalEvent(
                        kind="overflow_risk", array=name, step=step, span_id=span_id,
                        value=headroom, severity="warn",
                        detail={
                            "max_abs": max_abs,
                            "dtype_max": float(info.max),
                            "threshold": self.headroom_decades,
                        },
                    )
                )

        self.events.extend(found)
        return found

    def check_cancellation(
        self,
        name: str,
        abs_sum: float,
        total: float,
        step: int = 0,
        span_id: int | None = None,
    ) -> NumericalEvent | None:
        """Record heavy cancellation in an accumulation.

        ``abs_sum`` is Σ|xᵢ| over the summands, ``total`` the (accurate,
        e.g. double-double) Σxᵢ.  Their ratio is the condition number of
        the sum; its log10 is the number of digits a working-precision
        accumulator would lose.
        """
        digits = cancellation_digits(abs_sum, total)
        if digits <= self.cancellation_digits:
            return None
        event = NumericalEvent(
            kind="cancellation", array=name, step=step, span_id=span_id,
            value=digits, severity="warn",
            detail={"abs_sum": abs_sum, "total": total},
        )
        self.events.append(event)
        return event

    # -- reporting --------------------------------------------------------

    @property
    def fatal_events(self) -> list[NumericalEvent]:
        return [e for e in self.events if e.kind in FATAL_KINDS]


class NullNumericsWatch:
    """Disabled-mode watch: no stride, no events (a disabled run never scans)."""

    __slots__ = ()

    stride = 0
    events: list[NumericalEvent] = []
    fatal_events: list[NumericalEvent] = []
