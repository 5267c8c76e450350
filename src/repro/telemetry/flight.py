"""The numerics flight recorder: a deterministic per-timestep time series.

The watchpoints (:mod:`repro.telemetry.numerics`) answer "did anything
dangerous happen"; the ledger fidelity section answers "how did the run
end".  Neither answers the question the roadmap's runtime-adaptive
precision scheduling needs: *when* during a run does numerical danger
appear — which steps lose overflow headroom, when the subnormal fraction
spikes, where conservation drift accelerates.  RAPTOR-style profiles and
runtime-reconfigurable precision both consume exactly such step-resolved
timelines; this module records them.

A :class:`FlightRecorder` collects one sample per ``stride`` steps, each
sample a named-signal vector (dt, CFL, headroom bits, subnormal fraction,
NaN/Inf counts, cancellation digits, conservation drift, precision bits,
cell count).  Storage is bounded: when the buffer exceeds ``capacity``
samples, the stride doubles and every sample whose step is no longer on
the new stride is dropped.  Because strides are powers of two times the
base stride, the surviving buffer is a *pure function of the full
series* — a run of N steps always ends with exactly the samples at
``step % final_stride == 0``, regardless of when the downsamples fired.
That determinism is what makes flight files and digests bitwise
comparable across runs and machines.

Persistence is a schema-versioned JSONL (``flight.jsonl``): one
``flight_meta`` line, then one ``flight_sample`` line per retained step.
The digest (:func:`flight_digest`) reduces each signal to its extremes,
the steps where they occurred, and the number of crossings into its
danger zone — small enough to live in every ledger record's fidelity
section, sharp enough to diff two runs.

Wall-clock never enters a flight sample; every recorded value derives
from simulation state, so identical seeds/configs produce identical
files.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

from repro.ioutil import json_digest
from repro.telemetry.export import _clean, _unclean
from repro.telemetry.numerics import array_health

__all__ = [
    "FLIGHT_SCHEMA_VERSION",
    "DANGER_RULES",
    "FlightRecorder",
    "field_signals",
    "write_flight",
    "read_flight",
    "flight_digest",
    "flight_report",
    "flight_compare",
    "compare_digests",
    "flight_counter_trace",
]

#: Bump on any backwards-incompatible flight file change; readers refuse newer.
FLIGHT_SCHEMA_VERSION = 1

#: Per-signal danger zones for the digest's crossing counts.  ``("lt", x)``
#: means values below x are dangerous, ``("gt", x)`` values above.  NaN
#: samples count as *outside* the danger zone (an unmeasured signal is not
#: a crossing).  Signals without a rule get no crossing count.
DANGER_RULES: dict[str, tuple[str, float]] = {
    "headroom_bits": ("lt", 8.0),
    "subnormal_fraction": ("gt", 1e-3),
    "nan_count": ("gt", 0.0),
    "inf_count": ("gt", 0.0),
    "cancellation_digits": ("gt", 6.0),
    "conservation_drift": ("gt", 1e-6),
}


def field_signals(arrays: dict[str, np.ndarray], dtype) -> dict[str, float]:
    """Reduce a set of state arrays to the flight's field-health signals.

    The same :func:`~repro.telemetry.numerics.array_health` reduction the
    watchpoints threshold, returned raw: NaN/Inf counts summed over the
    arrays, the *worst* (max) subnormal fraction, and the *worst* (min)
    overflow headroom in bits against ``dtype``'s range.
    """
    info = np.finfo(np.dtype(dtype))
    n_nan = 0
    n_inf = 0
    max_abs = 0.0
    subnormal_fraction = 0.0
    for arr in arrays.values():
        nan, inf, amax, frac, _ = array_health(arr, info)
        n_nan += nan
        n_inf += inf
        max_abs = max(max_abs, amax)
        subnormal_fraction = max(subnormal_fraction, frac)
    if max_abs > 0.0:
        headroom_bits = math.log2(float(info.max)) - math.log2(max_abs)
    else:
        headroom_bits = math.log2(float(info.max))
    return {
        "headroom_bits": headroom_bits,
        "subnormal_fraction": subnormal_fraction,
        "nan_count": float(n_nan),
        "inf_count": float(n_inf),
    }


class FlightRecorder:
    """Bounded per-step signal buffer with stride-doubling downsampling.

    Parameters
    ----------
    stride:
        Record every ``stride``-th step (the *base* stride; downsampling
        can only increase the effective stride in powers of two).
    capacity:
        Maximum retained samples.  When an append exceeds it, the stride
        doubles and off-stride samples are dropped until the buffer fits.
    label:
        Free-form run label carried into the flight file.
    """

    def __init__(self, stride: int = 1, capacity: int = 512, label: str = "") -> None:
        if stride < 1:
            raise ValueError("flight stride must be at least 1")
        if capacity < 4:
            raise ValueError("flight capacity must be at least 4")
        self.base_stride = int(stride)
        self.stride = int(stride)
        self.capacity = int(capacity)
        self.label = label
        self.steps: list[int] = []
        self.columns: dict[str, list[float]] = {}

    # -- recording --------------------------------------------------------

    def should_sample(self, step: int) -> bool:
        """True when ``step`` falls on the current (possibly doubled) stride."""
        return step % self.stride == 0

    def record(self, step: int, **signals: float) -> None:
        """Append one sample.  ``step`` must be on the current stride.

        Signals may vary between calls: a signal first seen mid-run is
        back-filled with NaN, and a signal missing from a call records
        NaN for that step — the column lengths always equal ``nsamples``.
        """
        if step % self.stride != 0:
            raise ValueError(
                f"step {step} is off the current stride {self.stride}; "
                "consult should_sample() before recording"
            )
        n = len(self.steps)
        for name, value in signals.items():
            col = self.columns.get(name)
            if col is None:
                col = self.columns[name] = [math.nan] * n
            col.append(float(value))
        for name, col in self.columns.items():
            if len(col) == n:
                col.append(math.nan)
        self.steps.append(int(step))
        while len(self.steps) > self.capacity:
            self._downsample()

    def _downsample(self) -> None:
        """Double the stride; keep only samples on the new stride.

        Retained steps are exactly those divisible by the new stride, so
        the buffer stays the deterministic prefix-independent subset the
        module docstring promises.
        """
        self.stride *= 2
        keep = [i for i, s in enumerate(self.steps) if s % self.stride == 0]
        self.steps = [self.steps[i] for i in keep]
        self.columns = {
            name: [col[i] for i in keep] for name, col in self.columns.items()
        }

    # -- access -----------------------------------------------------------

    @property
    def nsamples(self) -> int:
        return len(self.steps)

    @property
    def signal_names(self) -> list[str]:
        """Signal names in first-recorded order (deterministic per code path)."""
        return list(self.columns)

    def series(self, name: str) -> list[float]:
        """One signal's retained values, aligned with :attr:`steps`."""
        if name not in self.columns:
            raise KeyError(f"flight has no signal {name!r}; has {self.signal_names}")
        return list(self.columns[name])

    def digest(self) -> dict:
        """See :func:`flight_digest`."""
        return flight_digest(self)


# ---------------------------------------------------------------------------
# persistence
# ---------------------------------------------------------------------------


def _flight_lines(flight: FlightRecorder):
    names = flight.signal_names
    meta = {
        "type": "flight_meta",
        "version": FLIGHT_SCHEMA_VERSION,
        "label": flight.label,
        "base_stride": flight.base_stride,
        "stride": flight.stride,
        "capacity": flight.capacity,
        "signals": names,
        "nsamples": flight.nsamples,
    }
    yield json.dumps(meta)
    for i, step in enumerate(flight.steps):
        record = {"type": "flight_sample", "step": step}
        for name in names:
            record[name] = _clean(flight.columns[name][i])
        yield json.dumps(record)


def write_flight(flight: FlightRecorder, path: str | Path) -> Path:
    """Persist a flight as schema-versioned JSONL (meta line + sample lines).

    Atomic and durable via :mod:`repro.ioutil`: identical flights always
    produce byte-identical files and a crash never leaves a torn one.
    """
    from repro import ioutil  # local: telemetry must import without cycles

    path = Path(path)
    ioutil.write_jsonl_lines(path, _flight_lines(flight))
    return path


def read_flight(path: str | Path) -> FlightRecorder:
    """Reconstruct a :class:`FlightRecorder` from a :func:`write_flight` file.

    A torn trailing line (interrupted append) is skipped with a
    :class:`RuntimeWarning` via :func:`repro.ioutil.iter_jsonl`.
    """
    from repro import ioutil

    path = Path(path)
    flight: FlightRecorder | None = None
    names: list[str] = []
    for _lineno, record in ioutil.iter_jsonl(path):
        kind = record.get("type")
        if kind == "flight_meta":
            version = record.get("version")
            if not isinstance(version, int) or version > FLIGHT_SCHEMA_VERSION:
                raise ValueError(
                    f"flight schema {version!r} is newer than supported "
                    f"({FLIGHT_SCHEMA_VERSION}); upgrade repro to read this file"
                )
            flight = FlightRecorder(
                stride=record.get("base_stride", 1),
                capacity=record.get("capacity", 512),
                label=record.get("label", ""),
            )
            flight.stride = int(record.get("stride", flight.base_stride))
            names = list(record.get("signals", []))
            flight.columns = {name: [] for name in names}
        elif kind == "flight_sample":
            if flight is None:
                raise ValueError(f"{path}: flight_sample before flight_meta")
            flight.steps.append(int(record["step"]))
            for name in names:
                flight.columns[name].append(float(_unclean(record.get(name, "nan"))))
        else:
            raise ValueError(f"{path}: unknown flight record type {kind!r}")
    if flight is None:
        raise ValueError(f"{path}: no flight_meta record found")
    return flight


# ---------------------------------------------------------------------------
# digest
# ---------------------------------------------------------------------------


def _danger(name: str, value: float) -> bool:
    rule = DANGER_RULES.get(name)
    if rule is None or not math.isfinite(value):
        return False
    op, threshold = rule
    return value < threshold if op == "lt" else value > threshold


def flight_digest(flight: FlightRecorder) -> dict:
    """Reduce a flight to the ledger-sized summary.

    Per signal: min/max over finite samples with the steps where they
    occurred (earliest on ties), first/last sample, the finite-sample
    count, and — for signals with a :data:`DANGER_RULES` entry — the
    number of crossings *into* the danger zone scanning in step order.
    Values pass through the JSONL inf/nan cleaning so the digest is
    strict-JSON safe inside ledger records.

    ``hash`` is a short sha256 over the canonical digest content — the
    bitwise identity two determinism-checked runs must share.
    """
    signals: dict[str, dict] = {}
    for name in flight.signal_names:
        col = flight.columns[name]
        vmin = math.inf
        vmax = -math.inf
        argmin_step = None
        argmax_step = None
        finite = 0
        crossings = 0
        in_danger = False
        for step, value in zip(flight.steps, col):
            if math.isfinite(value):
                finite += 1
                if value < vmin:
                    vmin = value
                    argmin_step = step
                if value > vmax:
                    vmax = value
                    argmax_step = step
            danger = _danger(name, value)
            if danger and not in_danger:
                crossings += 1
            in_danger = danger
        entry = {
            "min": _clean(vmin if finite else math.nan),
            "max": _clean(vmax if finite else math.nan),
            "argmin_step": argmin_step,
            "argmax_step": argmax_step,
            "first": _clean(col[0] if col else math.nan),
            "last": _clean(col[-1] if col else math.nan),
            "finite": finite,
        }
        if name in DANGER_RULES:
            entry["crossings"] = crossings
        signals[name] = entry
    digest = {
        "schema": FLIGHT_SCHEMA_VERSION,
        "base_stride": flight.base_stride,
        "stride": flight.stride,
        "capacity": flight.capacity,
        "nsamples": flight.nsamples,
        "first_step": flight.steps[0] if flight.steps else None,
        "last_step": flight.steps[-1] if flight.steps else None,
        "signals": signals,
    }
    digest["hash"] = json_digest(digest, 16)
    return digest


# ---------------------------------------------------------------------------
# terminal report
# ---------------------------------------------------------------------------


def flight_report(flight: FlightRecorder, width: int = 40) -> str:
    """Per-signal sparkline timelines — the ``repro flight report`` body."""
    from repro.ledger.report import sparkline  # local: telemetry must not
    # import the ledger package at module level (the ledger imports us)

    header = (
        f"flight: {flight.label or '(unlabelled)'} — {flight.nsamples} samples, "
        f"steps {flight.steps[0] if flight.steps else '-'}"
        f"..{flight.steps[-1] if flight.steps else '-'}, "
        f"stride {flight.stride} (base {flight.base_stride}), "
        f"capacity {flight.capacity}"
    )
    lines = [header]
    digest = flight_digest(flight)
    for name in flight.signal_names:
        col = flight.columns[name]
        entry = digest["signals"][name]
        vmin = _unclean(entry["min"])
        vmax = _unclean(entry["max"])
        spark = sparkline(col, width=width)
        danger = ""
        if "crossings" in entry:
            danger = f"  danger x{entry['crossings']}"
        lines.append(
            f"  {name:<20} {spark:<{width}}  "
            f"min {vmin:.4g} @{entry['argmin_step']}  "
            f"max {vmax:.4g} @{entry['argmax_step']}{danger}"
        )
    lines.append(f"  digest hash: {digest['hash']}")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# comparison
# ---------------------------------------------------------------------------


def _values_equal(a: float, b: float, rtol: float) -> bool:
    if math.isnan(a) and math.isnan(b):
        return True
    if not (math.isfinite(a) and math.isfinite(b)):
        return a == b
    return abs(a - b) <= rtol * max(abs(a), abs(b))


def flight_compare(a: FlightRecorder, b: FlightRecorder, rtol: float = 0.0):
    """Step-aligned comparison of two flights.

    Aligns on the intersection of recorded steps (two runs of different
    lengths or strides still compare on their common samples), then per
    signal reports the aligned-sample count, mismatches beyond ``rtol``,
    and the worst absolute difference.  Returns ``(table, n_mismatch)``;
    ``n_mismatch`` also counts signals missing from one side and an empty
    step intersection, so 0 means "equal within tolerance".
    """
    from repro.harness.report import Table  # local: avoid package import cycle

    steps_b = set(b.steps)
    common = [s for s in a.steps if s in steps_b]
    index_a = {s: i for i, s in enumerate(a.steps)}
    index_b = {s: i for i, s in enumerate(b.steps)}
    names = list(dict.fromkeys([*a.signal_names, *b.signal_names]))
    table = Table(
        title=(
            f"flight compare — {len(common)} aligned steps "
            f"(A: {a.nsamples} samples, B: {b.nsamples} samples)"
        ),
        headers=["Signal", "Aligned", "Mismatch", "Max |Δ|", "A last", "B last"],
    )
    mismatches = 0
    if not common:
        mismatches += 1
        table.notes.append("no common steps — different strides or disjoint runs")
    for name in names:
        if name not in a.columns or name not in b.columns:
            mismatches += 1
            table.add_row(name, 0, "-", "-",
                          "-" if name not in a.columns else "present",
                          "-" if name not in b.columns else "present")
            continue
        col_a = a.columns[name]
        col_b = b.columns[name]
        bad = 0
        max_delta = 0.0
        for s in common:
            va = col_a[index_a[s]]
            vb = col_b[index_b[s]]
            if not _values_equal(va, vb, rtol):
                bad += 1
            if math.isfinite(va) and math.isfinite(vb):
                max_delta = max(max_delta, abs(va - vb))
        mismatches += bad
        table.add_row(
            name, len(common), bad, max_delta,
            col_a[-1] if col_a else math.nan,
            col_b[-1] if col_b else math.nan,
        )
    return table, mismatches


def compare_digests(a: dict, b: dict, rtol: float = 0.0) -> list[str]:
    """Mismatch descriptions between two flight digests (empty = equal).

    With ``rtol == 0`` the digests' canonical hashes decide; a positive
    ``rtol`` relaxes every numeric signal field instead — the mode for
    golden digests compared across machines, where extremes may differ in
    the last few ulps while shape fields must still match exactly.
    """
    if rtol == 0.0:
        if a.get("hash") == b.get("hash"):
            return []
        return [f"digest hash {a.get('hash')} != {b.get('hash')}"]
    problems: list[str] = []
    for key in ("schema", "base_stride", "stride", "capacity", "nsamples",
                "first_step", "last_step"):
        if a.get(key) != b.get(key):
            problems.append(f"{key}: {a.get(key)} != {b.get(key)}")
    sig_a = a.get("signals", {})
    sig_b = b.get("signals", {})
    for name in sorted(set(sig_a) | set(sig_b)):
        if name not in sig_a or name not in sig_b:
            problems.append(f"signal {name!r} missing on one side")
            continue
        for key in sorted(set(sig_a[name]) | set(sig_b[name])):
            va = _unclean(sig_a[name].get(key, "nan"))
            vb = _unclean(sig_b[name].get(key, "nan"))
            if isinstance(va, (int, float)) and isinstance(vb, (int, float)):
                if not _values_equal(float(va), float(vb), rtol):
                    problems.append(f"{name}.{key}: {va} != {vb} (rtol {rtol:g})")
            elif va != vb:
                problems.append(f"{name}.{key}: {va!r} != {vb!r}")
    return problems


# ---------------------------------------------------------------------------
# Chrome-trace counter export
# ---------------------------------------------------------------------------


def flight_counter_trace(flight: FlightRecorder, pid: int = 1, tid: int = 1) -> dict:
    """The flight as Chrome-trace counter (``"ph": "C"``) tracks.

    Each signal becomes one counter track; the time axis is the *step*
    number (flights deliberately carry no wall-clock), so Perfetto renders
    the danger-zone structure against simulation progress.  NaN samples
    are skipped — a gap in the track, not a zero.
    """
    label = flight.label or "flight"
    events: list[dict] = [
        {"ph": "M", "pid": pid, "name": "process_name", "args": {"name": f"flight:{label}"}},
    ]
    for i, step in enumerate(flight.steps):
        for name in flight.signal_names:
            value = flight.columns[name][i]
            if not math.isfinite(value):
                continue
            events.append(
                {
                    "ph": "C",
                    "name": f"flight/{name}",
                    "pid": pid,
                    "tid": tid,
                    "ts": float(step),
                    "args": {name: value},
                }
            )
    return {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": {"label": label, "flight_digest": flight_digest(flight)},
    }
