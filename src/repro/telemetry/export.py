"""The finished-trace type and its exporters: JSONL, Chrome trace, terminal.

A live :class:`~repro.telemetry.Telemetry` is process-local — its tracer
holds an open-span stack, its metrics registry hands out live objects.
Everything that *reads* a trace reads a :class:`TelemetryBundle`
instead: the frozen spans, numerical events, metrics snapshot, watch
stride, and (when enabled) the flight recorder and state-hash ladder, as
plain picklable data.  Each consumer — the exporters below, the ledger's
record builders, the CLI's ``--strict`` check — calls
:meth:`TelemetryBundle.of` once (a bundle passes through unchanged) and
then reads plain fields.  A live run, a worker's bundle shipped home by
:class:`~repro.parallel.executor.SweepExecutor`, and a trace read back by
:func:`read_jsonl` therefore go through the same code paths.

Three output formats:

* **JSONL** (:func:`write_jsonl` / :func:`read_jsonl`) — one self-typed
  JSON object per line (``meta`` / ``span`` / ``event`` / ``metric``),
  append-friendly and greppable; the round-trip format the harness
  persists next to benchmark JSON.
* **Chrome trace** (:func:`to_chrome_trace` / :func:`merged_chrome_trace`
  and their ``write_*`` forms) — the ``chrome://tracing`` / Perfetto
  "JSON object format": spans as complete (``"ph": "X"``) events in
  microseconds, numerical events as instants, metrics tucked into
  ``otherData``.  The merged form lays many bundles side by side, one
  pid lane each.  Load the file in https://ui.perfetto.dev to see the
  kernel timeline.
* **Terminal** (:func:`span_tree` / :func:`span_summary` /
  :func:`event_report`) — an aggregated call tree, a per-kernel summary
  :class:`~repro.harness.report.Table`, and the numerical-event digest
  the ``repro trace`` CLI prints.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

from repro.telemetry.numerics import NumericalEvent
from repro.telemetry.spans import Span

__all__ = [
    "TelemetryBundle",
    "write_jsonl",
    "read_jsonl",
    "to_chrome_trace",
    "write_chrome_trace",
    "merged_chrome_trace",
    "write_merged_chrome_trace",
    "span_tree",
    "span_summary",
    "event_report",
]

_JSONL_VERSION = 1


def _clean(value: float):
    """JSON has no inf/nan literals; round-trip them as strings."""
    if isinstance(value, float) and not math.isfinite(value):
        return repr(value)  # 'inf', '-inf', 'nan'
    return value


def _unclean(value):
    if isinstance(value, str) and value in ("inf", "-inf", "nan"):
        return float(value)
    return value


def _cleaned(values: dict) -> dict:
    return {k: _clean(v) for k, v in values.items()}


@dataclass
class TelemetryBundle:
    """One finished trace, frozen into plain picklable data."""

    label: str = ""
    watch_stride: int = 0
    spans: list[Span] = field(default_factory=list)
    events: list[NumericalEvent] = field(default_factory=list)
    metrics: dict[str, dict[str, float]] = field(default_factory=dict)
    flight: object | None = None  # FlightRecorder; flight.py imports this module
    ladder: object | None = None  # StateHashLadder; plain data, pickles fine

    @classmethod
    def of(cls, tel) -> "TelemetryBundle":
        """Freeze a live (or null) telemetry; a bundle passes through unchanged."""
        if isinstance(tel, cls):
            return tel
        tracer = tel.tracer
        return cls(
            label=tel.label,
            watch_stride=int(tel.numerics.stride),
            spans=list(tracer.spans) if tracer is not None else [],
            events=list(tel.numerics.events),
            metrics=tel.metrics.snapshot(),
            flight=tel.flight,
            ladder=tel.ladder,
        )

    def span_totals(self) -> dict[str, tuple[int, float, float, float]]:
        """Per span name, in first-seen order: ``(calls, total_s, flops, bytes)``.

        ``bytes`` folds each span's ``state_bytes + bytes`` counters.  A
        non-finite flop or byte figure is skipped rather than summed, so
        one poisoned counter cannot turn a kernel's total into inf/nan.
        """
        agg: dict[str, list] = {}
        for s in self.spans:
            entry = agg.get(s.name)
            if entry is None:
                entry = agg[s.name] = [0, 0.0, 0.0, 0.0]
            entry[0] += 1
            entry[1] += s.duration_s
            flops = s.counters.get("flops", 0.0)
            nbytes = s.counters.get("state_bytes", 0.0) + s.counters.get("bytes", 0.0)
            if isinstance(flops, (int, float)) and math.isfinite(flops):
                entry[2] += flops
            if isinstance(nbytes, (int, float)) and math.isfinite(nbytes):
                entry[3] += nbytes
        return {name: tuple(entry) for name, entry in agg.items()}

    def event_counts(self) -> dict[str, int]:
        """Numerical events per kind, in first-seen order."""
        out: dict[str, int] = {}
        for e in self.events:
            out[e.kind] = out.get(e.kind, 0) + 1
        return out


# ---------------------------------------------------------------------------
# JSONL
# ---------------------------------------------------------------------------


def _jsonl_lines(bundle: TelemetryBundle):
    yield json.dumps({"type": "meta", "version": _JSONL_VERSION, "label": bundle.label})
    for s in bundle.spans:
        record = {
            "type": "span",
            "name": s.name,
            "id": s.span_id,
            "parent": s.parent_id,
            "start_s": s.start_s,
            "end_s": s.end_s,
            "counters": _cleaned(s.counters),
        }
        yield json.dumps(record)
    for e in bundle.events:
        record = {
            "type": "event",
            "kind": e.kind,
            "array": e.array,
            "step": e.step,
            "span_id": e.span_id,
            "value": _clean(e.value),
            "severity": e.severity,
            "detail": _cleaned(e.detail),
        }
        yield json.dumps(record)
    for name, snap in bundle.metrics.items():
        yield json.dumps({"type": "metric", "name": name, **_cleaned(snap)})


def write_jsonl(tel, path: str | Path) -> Path:
    """Persist a trace as one JSON record per line.

    Written atomically and durably through :mod:`repro.ioutil` — a
    killed process never leaves a half-written trace for post-mortem
    analysis to trip over.
    """
    from repro import ioutil  # local: telemetry must import without cycles

    path = Path(path)
    ioutil.write_jsonl_lines(path, _jsonl_lines(TelemetryBundle.of(tel)))
    return path


def read_jsonl(path: str | Path) -> TelemetryBundle:
    """Reconstruct a :class:`TelemetryBundle` from a :func:`write_jsonl` file.

    The file carries no watch stride, flight recorder or ladder, so those
    fields keep their defaults.  A file written by a newer schema is
    refused; a torn trailing line (interrupted append) is skipped with a
    :class:`RuntimeWarning` via :func:`repro.ioutil.iter_jsonl`.
    """
    from repro import ioutil

    data = TelemetryBundle()
    for _lineno, record in ioutil.iter_jsonl(path):
        kind = record.get("type")
        if kind == "meta":
            version = record.get("version")
            if not isinstance(version, int) or version > _JSONL_VERSION:
                raise ValueError(
                    f"{path}: trace schema {version!r} is newer than supported "
                    f"({_JSONL_VERSION}); upgrade repro to read this file"
                )
            data.label = record.get("label", "")
        elif kind == "span":
            data.spans.append(
                Span(
                    name=record["name"],
                    span_id=record["id"],
                    parent_id=record["parent"],
                    start_s=record["start_s"],
                    end_s=record["end_s"],
                    counters={
                        k: _unclean(v) for k, v in record.get("counters", {}).items()
                    },
                )
            )
        elif kind == "event":
            data.events.append(
                NumericalEvent(
                    kind=record["kind"],
                    array=record["array"],
                    step=record["step"],
                    span_id=record["span_id"],
                    value=_unclean(record["value"]),
                    severity=record["severity"],
                    detail={
                        k: _unclean(v) for k, v in record.get("detail", {}).items()
                    },
                )
            )
        elif kind == "metric":
            name = record.pop("name")
            record.pop("type")
            data.metrics[name] = {k: _unclean(v) for k, v in record.items()}
        else:
            raise ValueError(f"unknown JSONL record type {kind!r}")
    return data


# ---------------------------------------------------------------------------
# Chrome trace / Perfetto
# ---------------------------------------------------------------------------


def _lane_events(bundle: TelemetryBundle, pid: int, tid: int) -> list[dict]:
    """One bundle's spans and numerical events as trace events on one lane.

    Timestamps are rebased so the lane's earliest span starts at t=0 (the
    ``perf_counter`` epoch is arbitrary and differs between processes)
    and expressed in microseconds, per the trace-event format spec.  An
    event sits at the start of the span it fired in.
    """
    t0 = min((s.start_s for s in bundle.spans), default=0.0)
    span_start = {s.span_id: s.start_s for s in bundle.spans}
    out = [
        {
            "name": s.name,
            "ph": "X",
            "pid": pid,
            "tid": tid,
            "ts": (s.start_s - t0) * 1e6,
            "dur": s.duration_s * 1e6,
            "args": _cleaned(s.counters),
        }
        for s in bundle.spans
    ]
    for e in bundle.events:
        ts = (span_start.get(e.span_id, t0) - t0) * 1e6 if e.span_id is not None else 0.0
        out.append(
            {
                "name": f"{e.kind}:{e.array}",
                "ph": "i",
                "s": "t",
                "pid": pid,
                "tid": tid,
                "ts": ts,
                "args": {
                    "step": e.step,
                    "value": _clean(e.value),
                    "severity": e.severity,
                    **_cleaned(e.detail),
                },
            }
        )
    return out


def _clean_metrics(bundle: TelemetryBundle) -> dict[str, dict]:
    return {name: _cleaned(snap) for name, snap in bundle.metrics.items()}


def to_chrome_trace(tel, pid: int = 1, tid: int = 1) -> dict:
    """The trace as a ``chrome://tracing`` JSON object."""
    bundle = TelemetryBundle.of(tel)
    label = bundle.label or "repro"
    trace_events: list[dict] = [
        {"ph": "M", "pid": pid, "name": "process_name", "args": {"name": label}},
        {"ph": "M", "pid": pid, "tid": tid, "name": "thread_name", "args": {"name": "solver"}},
    ]
    trace_events += _lane_events(bundle, pid, tid)
    return {
        "traceEvents": trace_events,
        "displayTimeUnit": "ms",
        "otherData": {"label": label, "metrics": _clean_metrics(bundle)},
    }


def write_chrome_trace(tel, path: str | Path, pid: int = 1, tid: int = 1) -> Path:
    path = Path(path)
    with path.open("w", encoding="utf-8") as fh:
        json.dump(to_chrome_trace(tel, pid=pid, tid=tid), fh)
    return path


def merged_chrome_trace(bundles: Sequence[TelemetryBundle]) -> dict:
    """Merge worker bundles into one Chrome trace, one pid lane per worker.

    Workers appear in submission order: bundle ``i`` gets ``pid = i + 1``
    and ``process_sort_index = i``, and its events are appended as a
    contiguous block — so the merged event list is a deterministic
    function of the bundle sequence alone.  Each lane is rebased to its
    own first span; within-lane timing is what the trace shows.
    """
    trace_events: list[dict] = []
    metrics: dict[str, dict] = {}
    labels: list[str] = []
    for i, bundle in enumerate(bundles):
        pid = i + 1
        label = bundle.label or f"worker-{i}"
        labels.append(label)
        trace_events += [
            {"ph": "M", "pid": pid, "name": "process_name", "args": {"name": label}},
            {"ph": "M", "pid": pid, "name": "process_sort_index", "args": {"sort_index": i}},
            {"ph": "M", "pid": pid, "tid": 1, "name": "thread_name", "args": {"name": "solver"}},
        ]
        trace_events += _lane_events(bundle, pid, 1)
        if bundle.metrics:
            metrics[label] = _clean_metrics(bundle)
    return {
        "traceEvents": trace_events,
        "displayTimeUnit": "ms",
        "otherData": {"workers": labels, "metrics": metrics},
    }


def write_merged_chrome_trace(bundles: Sequence[TelemetryBundle], path: str | Path) -> Path:
    path = Path(path)
    with path.open("w", encoding="utf-8") as fh:
        json.dump(merged_chrome_trace(bundles), fh)
    return path


# ---------------------------------------------------------------------------
# Terminal rendering
# ---------------------------------------------------------------------------


def _aggregate_paths(spans: list[Span]):
    """Group spans by their name-path from the root, preserving first-seen
    order.  Returns ``[(path_tuple, count, total_s, counters_total)]``."""
    by_id = {s.span_id: s for s in spans}
    path_cache: dict[int, tuple[str, ...]] = {}

    def path_of(s: Span) -> tuple[str, ...]:
        cached = path_cache.get(s.span_id)
        if cached is not None:
            return cached
        if s.parent_id is None or s.parent_id not in by_id:
            p = (s.name,)
        else:
            p = path_of(by_id[s.parent_id]) + (s.name,)
        path_cache[s.span_id] = p
        return p

    order: list[tuple[str, ...]] = []
    agg: dict[tuple[str, ...], list] = {}
    for s in spans:
        p = path_of(s)
        entry = agg.get(p)
        if entry is None:
            entry = agg[p] = [0, 0.0, {}]
            order.append(p)
        entry[0] += 1
        entry[1] += s.duration_s
        for k, v in s.counters.items():
            if isinstance(v, (int, float)) and math.isfinite(v):
                entry[2][k] = entry[2].get(k, 0.0) + v
    # depth-first order: parents before children, siblings in first-seen order
    first_seen = {p: i for i, p in enumerate(order)}
    order.sort(
        key=lambda p: tuple(
            first_seen.get(p[: i + 1], len(first_seen)) for i in range(len(p))
        )
    )
    return [(p, agg[p][0], agg[p][1], agg[p][2]) for p in order]


def span_tree(tel, counter_keys: tuple[str, ...] = ("flops",)) -> str:
    """Aggregated call tree: one line per unique span path.

    Spans sharing a path collapse into ``count × total-time`` lines, so a
    thousand-step run prints a dozen lines, not five thousand.
    """
    spans = TelemetryBundle.of(tel).spans
    if not spans:
        return "(no spans recorded)"
    lines = []
    for path, count, total, counters in _aggregate_paths(spans):
        indent = "  " * (len(path) - 1)
        extra = ""
        shown = [
            f"{k}={counters[k]:.3g}" for k in counter_keys if counters.get(k)
        ]
        if shown:
            extra = "  [" + " ".join(shown) + "]"
        lines.append(f"{indent}{path[-1]:<{max(1, 44 - len(indent))}} {count:>6}x {total:>9.4f}s{extra}")
    return "\n".join(lines)


def span_summary(tel):
    """Per-span-name aggregate as a :class:`~repro.harness.report.Table`."""
    from repro.harness.report import Table  # local: avoid package import cycle

    bundle = TelemetryBundle.of(tel)
    wall = sum(s.duration_s for s in bundle.spans if s.parent_id is None)
    table = Table(
        title=f"Span summary — {bundle.label or 'trace'}",
        headers=["Span", "Calls", "Total (s)", "Mean (ms)", "% wall", "Gflop", "GB"],
    )
    for name, (count, total, flops, nbytes) in bundle.span_totals().items():
        table.add_row(
            name,
            count,
            total,
            1e3 * total / count if count else 0.0,
            100.0 * total / wall if wall > 0 else 0.0,
            flops / 1e9,
            nbytes / 1e9,
        )
    return table


def event_report(tel, limit: int = 20) -> str:
    """Digest of the numerical events: counts by kind plus the first few."""
    bundle = TelemetryBundle.of(tel)
    events = bundle.events
    if not events:
        return "numerical events: none"
    head = ", ".join(f"{k}={v}" for k, v in sorted(bundle.event_counts().items()))
    lines = [f"numerical events: {len(events)} ({head})"]
    for e in events[:limit]:
        lines.append(f"  {e.describe()}")
    if len(events) > limit:
        lines.append(f"  ... and {len(events) - limit} more")
    return "\n".join(lines)
