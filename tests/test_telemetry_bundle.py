"""One finished-trace model: a live Telemetry, its TelemetryBundle, and a
JSONL trace read back must render, aggregate and export identically."""

import json
import pickle

import numpy as np
import pytest

from repro.diverge.ladder import StateHashLadder, ladder_digest
from repro.ledger.record import kernel_summaries
from repro.telemetry import (
    FlightRecorder,
    Telemetry,
    TelemetryBundle,
    event_report,
    flight_digest,
    merged_chrome_trace,
    read_jsonl,
    span_summary,
    span_tree,
    to_chrome_trace,
    write_jsonl,
)
from repro.telemetry.numerics import NumericalEvent
from repro.telemetry.spans import Span

INF, NAN = float("inf"), float("nan")


def synthetic_telemetry() -> Telemetry:
    """Hand-timed nested spans, non-finite events, metrics, flight, ladder."""
    flight = FlightRecorder(stride=2, capacity=8, label="syn")
    for step in range(0, 12, 2):
        flight.record(step, mass=1.0 + step * 1e-9, hmax=float(step))
    ladder = StateHashLadder(stride=1, chunk=16)
    for step in range(3):
        ladder.record_site(step, "state", {"H": np.arange(40, dtype=np.float64) + step})
    tel = Telemetry(label="syn/trace", watch_stride=4, flight=flight, ladder=ladder)
    spans = tel.tracer.spans
    spans.append(Span("run", 0, None, 100.0, 101.0))
    sid = 1
    for k in range(3):
        t = 100.1 + 0.3 * k
        step = sid
        spans.append(Span("step", step, 0, t, t + 0.25, {"dt": 0.125 * (k + 1)}))
        spans.append(Span("flux", step + 1, step, t + 0.01, t + 0.11,
                          {"flops": 1e6 * (k + 1), "bytes": 4096.0}))
        spans.append(Span("regrid", step + 2, step, t + 0.12, t + 0.2,
                          {"state_bytes": 2048.0, "bytes": 1.0, "cells": 100 + k,
                           "ratio": INF if k == 1 else 0.5}))
        spans.append(Span("flux", step + 3, step + 2, t + 0.13, t + 0.15, {"flops": 3.0}))
        sid += 4
    spans.append(Span("open", sid, None, 102.0))  # never closed
    tel.numerics.events += [
        NumericalEvent("nan", "H", 4, 2, NAN, "fatal", {"count": 3, "first": -INF}),
        NumericalEvent("overflow_risk", "U", 5, 3, 1.5, "warn", {"max": INF}),
        NumericalEvent("cancellation", "mass", 6, None, 2.0, "warn", {"total": 1e-9}),
        NumericalEvent("inf", "V", 7, 99, INF, "fatal", {}),
        NumericalEvent("overflow_risk", "H", 8, 5, 0.5, "warn", {}),
    ]
    tel.metrics.counter("regrids").add(3)
    gauge = tel.metrics.gauge("mass_drift")
    for v in (1e-12, INF, 2e-12):
        gauge.set(v)
    for v in (0.1, 0.2, 0.4):
        tel.metrics.histogram("dt").observe(v)
    return tel


def _views(tel, tmp_path):
    bundle = TelemetryBundle.of(tel)
    read_back = read_jsonl(write_jsonl(tel, tmp_path / "t.jsonl"))
    return {"live": tel, "bundle": bundle, "read": read_back}


def _kernels(obj):
    return {name: vars(k) for name, k in kernel_summaries(obj).items()}


class TestOneTraceModel:
    def test_of_freezes_a_live_run_and_passes_a_bundle_through(self):
        tel = synthetic_telemetry()
        bundle = TelemetryBundle.of(tel)
        assert TelemetryBundle.of(bundle) is bundle
        assert bundle.label == "syn/trace" and bundle.watch_stride == 4
        assert len(bundle.spans) == len(tel.tracer.spans) == 14
        assert bundle.flight is tel.flight and bundle.ladder is tel.ladder
        assert bundle.metrics == tel.metrics.snapshot()
        # frozen: later spans on the live run do not leak into the bundle
        with tel.span("late"):
            pass
        assert len(bundle.spans) == 14

    def test_chrome_lane_equals_merged_lane_one(self):
        tel = synthetic_telemetry()
        single = to_chrome_trace(tel)["traceEvents"]
        merged = merged_chrome_trace([TelemetryBundle.of(tel)])["traceEvents"]

        def lane(events):
            return [e for e in events if e["ph"] != "M" and e["pid"] == 1]

        assert lane(single) == lane(merged)
        assert len(lane(single)) == 14 + 5
        json.dumps(single, allow_nan=False)  # non-finite values were cleaned

    def test_renderers_agree_across_live_bundle_and_read_back(self, tmp_path):
        views = _views(synthetic_telemetry(), tmp_path)
        for render in (
            _kernels,
            lambda o: span_summary(o).render(),
            span_tree,
            lambda o: span_tree(o, counter_keys=("flops", "cells")),
            event_report,
            lambda o: event_report(o, limit=2),
        ):
            outs = {name: render(obj) for name, obj in views.items()}
            assert outs["live"] == outs["bundle"] == outs["read"], render

    def test_span_totals_skip_nonfinite_work_counters(self):
        tel = Telemetry()
        tel.tracer.spans += [
            Span("k", 0, None, 0.0, 1.0, {"flops": 5.0, "bytes": 2.0}),
            Span("k", 1, None, 1.0, 3.0, {"flops": INF, "state_bytes": NAN}),
        ]
        calls, total, flops, nbytes = TelemetryBundle.of(tel).span_totals()["k"]
        assert (calls, total, flops, nbytes) == (2, 3.0, 5.0, 2.0)
        row = kernel_summaries(tel)["k"]
        assert (row.calls, row.flops, row.state_bytes) == (2, 5.0, 2.0)

    def test_event_counts(self):
        counts = TelemetryBundle.of(synthetic_telemetry()).event_counts()
        assert counts == {"nan": 1, "overflow_risk": 2, "cancellation": 1, "inf": 1}

    def test_read_back_has_no_watch_stride_or_attachments(self, tmp_path):
        back = _views(synthetic_telemetry(), tmp_path)["read"]
        assert isinstance(back, TelemetryBundle)
        assert (back.watch_stride, back.flight, back.ladder) == (0, None, None)

    def test_bundle_survives_pickling(self, tmp_path):
        tel = synthetic_telemetry()
        bundle = TelemetryBundle.of(tel)
        clone = pickle.loads(pickle.dumps(bundle))
        a = write_jsonl(bundle, tmp_path / "a.jsonl").read_bytes()
        b = write_jsonl(clone, tmp_path / "b.jsonl").read_bytes()
        assert a == b
        assert clone.watch_stride == bundle.watch_stride
        assert flight_digest(clone.flight) == flight_digest(tel.flight)
        assert ladder_digest(clone.ladder) == ladder_digest(tel.ladder)

    def test_null_telemetry_freezes_to_an_empty_bundle(self):
        from repro.telemetry import NULL_TELEMETRY

        bundle = TelemetryBundle.of(NULL_TELEMETRY)
        assert bundle == TelemetryBundle()


class TestJsonlSchema:
    def test_newer_schema_is_refused(self, tmp_path):
        path = write_jsonl(synthetic_telemetry(), tmp_path / "t.jsonl")
        lines = path.read_text().splitlines()
        meta = json.loads(lines[0])
        meta["version"] += 1
        path.write_text("\n".join([json.dumps(meta)] + lines[1:]) + "\n")
        with pytest.raises(ValueError, match=r"t\.jsonl.*schema 2.*newer.*\(1\)"):
            read_jsonl(path)
