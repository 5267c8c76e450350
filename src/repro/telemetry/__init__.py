"""``repro.telemetry`` — tracing spans, metrics, and numerical watchpoints.

The measurement substrate for every performance and precision claim the
repo makes: instead of ad-hoc ``time.time()`` pairs and end-of-run
aggregates, a solver run carries one :class:`Telemetry` object that
collects

* hierarchical wall-time **spans** per kernel invocation
  (:mod:`repro.telemetry.spans`),
* named **metrics** — per-kernel flop/byte counters, dt histograms,
  regrid cell counts, mass-drift gauges (:mod:`repro.telemetry.metrics`),
* **numerical events** — NaN/Inf births, subnormal flushes, dynamic-range
  saturation, accumulator cancellation (:mod:`repro.telemetry.numerics`),

and exports them as JSONL, Chrome-trace JSON (``chrome://tracing`` /
Perfetto), or terminal summaries (:mod:`repro.telemetry.export`).  Every
reader of a finished trace reads one type, :class:`TelemetryBundle`:
``TelemetryBundle.of(tel)`` freezes a live run into it, :func:`read_jsonl`
returns it, and worker processes ship it home.

Every run's instrumentation is built from one recipe, the picklable
:class:`TelemetrySpec` (label, watch stride, flight and hash-ladder
cadence), so a trace means the same thing whichever door started the
run — and a ``--jobs N`` worker can build it after the fork.

Usage::

    tel = TelemetrySpec(label="clamr/dam_break/mixed").build()
    spec = JobSpec("clamr", nx=64, max_level=2, policy="mixed", steps=200)
    spec.simulation(tel).run(spec.steps)
    print(span_summary(tel).render())
    write_chrome_trace(tel, "dam_break.trace.json")

Both :class:`~repro.clamr.simulation.ClamrSimulation` and
:class:`~repro.self_.simulation.SelfSimulation` accept ``telemetry=``;
passing ``None`` (the default) routes every instrumentation site through
the shared :data:`NULL_TELEMETRY` no-op object, whose overhead is two
trivial method calls per span — unmeasurable against a kernel step.
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass

import numpy as np

from repro.lazy import lazy_exports
from repro.telemetry.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    NullRegistry,
)
from repro.telemetry.numerics import (
    NullNumericsWatch,
    NumericalEvent,
    NumericsWatch,
)
from repro.telemetry.spans import NULL_SPAN, NullSpan, Span, Tracer

__getattr__, _LAZY = lazy_exports(__name__, {
    "write_jsonl": "repro.telemetry.export",
    "read_jsonl": "repro.telemetry.export",
    "to_chrome_trace": "repro.telemetry.export",
    "write_chrome_trace": "repro.telemetry.export",
    "merged_chrome_trace": "repro.telemetry.export",
    "write_merged_chrome_trace": "repro.telemetry.export",
    "span_tree": "repro.telemetry.export",
    "span_summary": "repro.telemetry.export",
    "event_report": "repro.telemetry.export",
    "TelemetryBundle": "repro.telemetry.export",
    "FlightRecorder": "repro.telemetry.flight",
    "write_flight": "repro.telemetry.flight",
    "read_flight": "repro.telemetry.flight",
    "flight_digest": "repro.telemetry.flight",
    "flight_report": "repro.telemetry.flight",
    "flight_compare": "repro.telemetry.flight",
    "flight_counter_trace": "repro.telemetry.flight",
})

__all__ = [
    "Telemetry",
    "TelemetrySpec",
    "NullTelemetry",
    "NULL_TELEMETRY",
    "Tracer",
    "Span",
    "NullSpan",
    "NULL_SPAN",
    "MetricsRegistry",
    "Counter",
    "Gauge",
    "Histogram",
    "NumericsWatch",
    "NumericalEvent",
    *_LAZY,
]


class Telemetry:
    """One run's trace: a tracer, a metrics registry, and a numerics watch.

    Parameters
    ----------
    label:
        Free-form run label carried into the exports (e.g.
        ``"clamr/dam_break/min"``).
    watch_stride:
        Step stride for numerical watchpoint scans (0 disables scanning
        while keeping spans and metrics).
    flight:
        Optional :class:`~repro.telemetry.flight.FlightRecorder`.  When
        set, the simulations record their per-timestep numerics time
        series into it (see docs/flightrecorder.md); ``None`` (default)
        skips flight sampling entirely.
    ladder:
        Optional :class:`~repro.diverge.ladder.StateHashLadder`.  When
        set, the simulations hash their live state at every kernel site
        on hashed steps (see docs/divergence.md); ``None`` (default)
        skips state hashing entirely.
    """

    enabled = True

    def __init__(
        self, label: str = "", watch_stride: int = 8, flight=None, ladder=None
    ) -> None:
        self.label = label
        self.tracer = Tracer()
        self.metrics = MetricsRegistry()
        self.numerics = NumericsWatch(stride=watch_stride)
        self.flight = flight
        self.ladder = ladder

    # -- spans ------------------------------------------------------------

    def span(self, name: str, **counters: float):
        """Open a span; see :meth:`repro.telemetry.spans.Tracer.span`."""
        return self.tracer.span(name, **counters)

    # -- kernel sites -----------------------------------------------------

    @contextlib.contextmanager
    def site(
        self, step: int, name: str, counters=None, metrics: tuple[str, ...] = (), fields=None
    ):
        """One kernel site of step ``step``: a span that books itself on exit.

        The body runs inside span ``name`` and may call ``site.set(...)``
        with values for the span (``dt``, cell counts…).  When it returns,
        the site closes the span, so nothing below counts as kernel time;
        sets the span's ``flops``/``state_bytes`` deltas of the
        :class:`~repro.machine.counters.KernelCounters` ``counters`` and
        adds them, in that order, to the metric counters named in
        ``metrics``; sets the body's values after them; and on a hashed
        step records ``fields()``, a callable returning the named arrays,
        as the ladder entry (:meth:`hash_site`).  A body that raises only
        closes the span.
        """
        if counters is not None:
            flops0, bytes0 = counters.flops, counters.state_bytes
        values = _SiteValues()
        with self.tracer.span(name) as span:
            yield values
        if counters is not None:
            flops = counters.flops - flops0
            state_bytes = counters.state_bytes - bytes0
            span.set(flops=flops, state_bytes=state_bytes)
            for metric, delta in zip(metrics, (flops, state_bytes)):
                self.metrics.counter(metric).add(delta)
        span.set(**values)
        if fields is not None:
            self.hash_site(step, name, fields)

    def hash_site(self, step: int, name: str, fields) -> None:
        """Record ``fields()`` under site ``name`` when ``step`` is hashed."""
        ladder = self.ladder
        if ladder is not None and ladder.should_hash(step):
            ladder.record_site(step, name, fields())

    # -- numerics ---------------------------------------------------------

    def scan_all(self, step: int, fields, dtype=None) -> None:
        """Watchpoint-scan every array ``fields()`` names, on a scan step."""
        if self.numerics.should_scan(step):
            for name, array in fields().items():
                self.scan(name, array, dtype=dtype, step=step)

    def scan(
        self,
        name: str,
        array: "np.ndarray",
        dtype: "np.dtype | None" = None,
        step: int = 0,
    ) -> list[NumericalEvent]:
        """Watchpoint-scan an array, tagging events with the current span."""
        current = self.tracer.current()
        span_id = current.span_id if current is not None else None
        return self.numerics.scan(name, array, dtype=dtype, step=step, span_id=span_id)

    def check_cancellation(
        self, name: str, abs_sum: float, total: float, step: int = 0
    ) -> NumericalEvent | None:
        current = self.tracer.current()
        span_id = current.span_id if current is not None else None
        return self.numerics.check_cancellation(
            name, abs_sum, total, step=step, span_id=span_id
        )


class _SiteValues(dict):
    """What a :meth:`Telemetry.site` body holds: ``set(**values)`` for its span."""

    set = dict.update


@dataclass(frozen=True)
class TelemetrySpec:
    """The recipe for a run's :class:`Telemetry`; :meth:`build` makes one.

    Frozen and picklable, so it also crosses a process boundary that a
    live Telemetry cannot (open-span stacks, live metric objects): a
    sweep worker builds its telemetry after the fork/spawn.
    ``watch_stride=0`` disables the numerics watchpoints while keeping
    spans and metrics; ``flight_stride>=1`` attaches a flight recorder
    sampling every that-many steps; ``hash_stride>=1`` attaches a
    state-hash ladder hashing every that-many steps in ``hash_chunk``
    element chunks.  Both attachments carry the run's label.
    """

    label: str = ""
    watch_stride: int = 8
    flight_stride: int = 0
    hash_stride: int = 0
    hash_chunk: int = 4096

    def build(self) -> Telemetry:
        flight = None
        if self.flight_stride > 0:
            from repro.telemetry.flight import FlightRecorder

            flight = FlightRecorder(stride=self.flight_stride, label=self.label)
        ladder = None
        if self.hash_stride > 0:
            from repro.diverge.ladder import StateHashLadder

            ladder = StateHashLadder(
                stride=self.hash_stride, chunk=self.hash_chunk, label=self.label
            )
        return Telemetry(
            label=self.label, watch_stride=self.watch_stride, flight=flight, ladder=ladder
        )


class NullTelemetry:
    """Disabled telemetry: every operation is a shared no-op.

    ``enabled`` is ``False`` so instrumented code can cheaply gate the few
    sites that would otherwise *compute* something just to record it
    (counter deltas, promoted copies for scanning).
    """

    enabled = False
    label = ""

    tracer = None  # sentinel: there is deliberately no span storage
    metrics = NullRegistry()
    numerics = NullNumericsWatch()
    flight = None
    ladder = None

    __slots__ = ()

    def span(self, name: str, **counters: float) -> NullSpan:
        return NULL_SPAN

    def site(self, step, name, counters=None, metrics=(), fields=None) -> NullSpan:
        return NULL_SPAN

    def scan_all(self, step, fields, dtype=None) -> None:
        return None


#: Shared instance the simulations substitute for ``telemetry=None``.
NULL_TELEMETRY = NullTelemetry()

