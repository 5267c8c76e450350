"""Tests for the telemetry subsystem: spans, metrics, numerical
watchpoints, exporters, and the simulation integrations."""

import json
import math

import numpy as np
import pytest

from repro.clamr import ClamrSimulation, DamBreakConfig
from repro.self_ import SelfSimulation, ThermalBubbleConfig
from repro.telemetry import (
    NULL_TELEMETRY,
    NullTelemetry,
    Telemetry,
    event_report,
    read_jsonl,
    span_summary,
    span_tree,
    to_chrome_trace,
    write_chrome_trace,
    write_jsonl,
)
from repro.telemetry.metrics import Counter, Gauge, Histogram, MetricsRegistry
from repro.telemetry.numerics import NumericsWatch
from repro.telemetry.spans import NULL_SPAN, NullSpan, Tracer


class TestSpans:
    def test_nesting_and_ordering(self):
        tr = Tracer()
        with tr.span("outer"):
            with tr.span("inner_a"):
                pass
            with tr.span("inner_b"):
                pass
        assert [s.name for s in tr.spans] == ["outer", "inner_a", "inner_b"]
        outer, a, b = tr.spans
        assert outer.parent_id is None
        assert a.parent_id == outer.span_id
        assert b.parent_id == outer.span_id
        # ids are monotonic in open order
        assert outer.span_id < a.span_id < b.span_id

    def test_durations_are_nonnegative_and_nested(self):
        tr = Tracer()
        with tr.span("outer"):
            with tr.span("inner"):
                sum(range(1000))
        outer, inner = tr.spans
        assert 0 <= inner.duration_s <= outer.duration_s
        assert inner.start_s >= outer.start_s
        assert inner.end_s <= outer.end_s

    def test_counters_accumulate_and_set(self):
        tr = Tracer()
        with tr.span("k", flops=100) as sp:
            sp.add(flops=50, bytes=8)
            sp.set(dt=0.5)
            sp.set(dt=0.25)
        (s,) = tr.spans
        assert s.counters["flops"] == 150
        assert s.counters["bytes"] == 8
        assert s.counters["dt"] == 0.25

    def test_current_tracks_open_stack(self):
        tr = Tracer()
        assert tr.current() is None
        with tr.span("outer"):
            with tr.span("inner"):
                assert tr.current().name == "inner"
            assert tr.current().name == "outer"
        assert tr.current() is None

    def test_exception_still_closes_span(self):
        tr = Tracer()
        with pytest.raises(ValueError):
            with tr.span("doomed"):
                raise ValueError("boom")
        (s,) = tr.spans
        assert s.end_s is not None
        assert tr.current() is None

    def test_children_and_roots(self):
        tr = Tracer()
        with tr.span("root"):
            with tr.span("child"):
                pass
        root = tr.roots()[0]
        assert [c.name for c in tr.children(root)] == ["child"]


class TestDisabledPath:
    def test_null_span_supports_full_surface(self):
        sp = NULL_SPAN
        with sp as inner:
            inner.add(flops=1)
            inner.set(dt=0.1)
        assert isinstance(inner, NullSpan)

    def test_null_telemetry_records_nothing(self):
        tel = NULL_TELEMETRY
        assert tel.enabled is False
        with tel.span("kernel", flops=10) as sp:
            sp.add(bytes=4)
        tel.scan_all(1, lambda: {"H": np.array([np.nan])})
        assert tel.tracer is None
        assert tel.numerics.events == []

    def test_null_telemetry_is_shared_singleton(self):
        assert NullTelemetry() is not None
        assert NULL_TELEMETRY.metrics.counter("x") is NULL_TELEMETRY.metrics.gauge("y")

    def test_simulations_default_to_disabled(self):
        sim = ClamrSimulation(DamBreakConfig(nx=8, ny=8, max_level=0))
        assert sim.telemetry is None
        sim.run(3)  # no tracer allocated, nothing recorded


class TestMetrics:
    def test_counter(self):
        c = Counter("flops")
        c.add(10)
        c.add(5)
        assert c.value == 15
        with pytest.raises(ValueError):
            c.add(-1)

    def test_gauge(self):
        g = Gauge("ncells")
        g.set(10.0)
        g.set(4.0)
        g.set(7.0)
        assert g.value == 7.0
        assert g.min == 4.0 and g.max == 10.0
        assert g.updates == 3

    def test_histogram_exact_stats(self):
        h = Histogram("dt")
        for v in (1.0, 2.0, 3.0, 4.0):
            h.observe(v)
        assert h.count == 4
        assert h.sum == 10.0
        assert h.min == 1.0 and h.max == 4.0
        assert h.mean == 2.5
        assert h.percentile(0) == 1.0
        assert h.percentile(100) == 4.0
        assert 2.0 <= h.percentile(50) <= 3.0

    def test_histogram_reservoir_is_bounded(self):
        h = Histogram("dt", reservoir=16)
        for v in range(1000):
            h.observe(float(v))
        assert h.count == 1000
        assert len(h.samples) <= 16

    def test_registry_get_or_create(self):
        reg = MetricsRegistry()
        assert reg.counter("a") is reg.counter("a")
        snap = reg.snapshot()
        assert snap["a"]["kind"] == "counter"


class TestNumericsWatch:
    def test_nan_detection(self):
        w = NumericsWatch(stride=1)
        a = np.ones(64)
        a[13] = np.nan
        events = w.scan("H", a, step=0)
        kinds = {e.kind for e in events}
        assert "nan" in kinds
        assert w.fatal_events

    def test_inf_detection(self):
        w = NumericsWatch(stride=1)
        a = np.ones(64)
        a[7] = np.inf
        events = w.scan("U", a, step=0)
        assert any(e.kind == "inf" for e in events)

    def test_subnormal_detection(self):
        w = NumericsWatch(stride=1)
        tiny = np.finfo(np.float32).tiny
        a = np.full(64, tiny / 4, dtype=np.float32)  # all subnormal
        events = w.scan("V", a, step=0)
        assert any(e.kind == "subnormal" for e in events)
        assert not w.fatal_events  # warning, not fatal

    def test_overflow_headroom(self):
        w = NumericsWatch(stride=1)
        big = np.finfo(np.float32).max / 10.0
        a = np.full(8, big, dtype=np.float32)
        events = w.scan("H", a, step=0)
        assert any(e.kind == "overflow_risk" for e in events)

    def test_clean_array_is_silent(self):
        w = NumericsWatch(stride=1)
        assert w.scan("H", np.linspace(0.5, 2.0, 64), step=0) == []

    def test_stride_gating(self):
        w = NumericsWatch(stride=4)
        assert w.should_scan(0)
        assert not w.should_scan(1)
        assert w.should_scan(4)
        w0 = NumericsWatch(stride=0)
        assert not w0.should_scan(0)

    def test_cancellation(self):
        w = NumericsWatch(stride=1, cancellation_digits=6.0)
        # 12 digits cancelled: sum of |x| is 1e12 times the total
        ev = w.check_cancellation("mass", abs_sum=1e12, total=1.0, step=3)
        assert ev is not None and ev.kind == "cancellation"
        assert ev.value == pytest.approx(12.0)
        # benign sum produces nothing
        assert w.check_cancellation("mass", abs_sum=10.0, total=9.0) is None

    def test_dtype_override_vs_promoted_array(self):
        # storage dtype float32, scanned as float64 after promotion: the
        # headroom check must be done against the *policy* dtype
        w = NumericsWatch(stride=1)
        big = float(np.finfo(np.float32).max) / 10.0
        a = np.full(8, big, dtype=np.float64)
        events = w.scan("H", a, dtype=np.float32, step=0)
        assert any(e.kind == "overflow_risk" for e in events)
        assert w.scan("H2", a, dtype=np.float64, step=0) == []


class TestExporters:
    def _sample(self):
        tel = Telemetry(label="unit/test", watch_stride=1)
        with tel.span("run", steps=2):
            with tel.span("kernel", flops=100, state_bytes=64) as sp:
                sp.set(headroom=float("inf"))
            a = np.ones(8)
            a[0] = np.nan
            tel.scan("H", a, step=0)
        tel.metrics.counter("kernel.flops").add(100)
        tel.metrics.gauge("ncells").set(64.0)
        tel.metrics.histogram("dt").observe(0.25)
        return tel

    def test_jsonl_round_trip(self, tmp_path):
        tel = self._sample()
        path = write_jsonl(tel, tmp_path / "t.jsonl")
        data = read_jsonl(path)
        assert data.label == "unit/test"
        assert [s.name for s in data.spans] == [s.name for s in tel.tracer.spans]
        got = {(s.name, s.span_id, s.parent_id) for s in data.spans}
        want = {(s.name, s.span_id, s.parent_id) for s in tel.tracer.spans}
        assert got == want
        assert data.spans[1].counters["flops"] == 100
        assert [e.kind for e in data.events] == [e.kind for e in tel.numerics.events]
        assert data.metrics["kernel.flops"]["value"] == 100
        assert data.metrics["ncells"]["kind"] == "gauge"

    def test_jsonl_round_trips_nonfinite_values(self, tmp_path):
        # JSON has no inf/nan literals; the writer string-encodes them and
        # the reader must restore real floats
        tel = self._sample()
        data = read_jsonl(write_jsonl(tel, tmp_path / "t.jsonl"))
        kernel = next(s for s in data.spans if s.name == "kernel")
        assert kernel.counters["headroom"] == float("inf")

    def test_chrome_trace_shape(self):
        tel = self._sample()
        doc = to_chrome_trace(tel)
        assert "traceEvents" in doc
        complete = [e for e in doc["traceEvents"] if e.get("ph") == "X"]
        assert {e["name"] for e in complete} == {"run", "kernel"}
        for e in complete:
            assert e["ts"] >= 0 and e["dur"] >= 0
        instants = [e for e in doc["traceEvents"] if e.get("ph") == "i"]
        assert any(e["name"].startswith("nan:") for e in instants)

    def test_chrome_trace_file_is_valid_json(self, tmp_path):
        tel = self._sample()
        path = write_chrome_trace(tel, tmp_path / "t.trace.json")
        doc = json.loads(path.read_text())
        assert doc["traceEvents"]

    def test_renderers_run_on_live_and_persisted(self, tmp_path):
        tel = self._sample()
        data = read_jsonl(write_jsonl(tel, tmp_path / "t.jsonl"))
        for obj in (tel, data):
            assert "kernel" in span_tree(obj)
            assert "kernel" in span_summary(obj).render()
            assert "nan" in event_report(obj)

    def test_empty_trace_renders(self):
        tel = Telemetry(label="empty")
        assert span_tree(tel) == "(no spans recorded)"
        assert "none" in event_report(tel)


class TestExporterRoundTrips:
    """Non-finite floats must survive every exporter path, and the Chrome
    trace must satisfy the trace-event schema (Perfetto rejects files with
    bare ``Infinity``/``NaN`` literals or malformed complete events)."""

    def _nonfinite_sample(self):
        tel = Telemetry(label="unit/nonfinite", watch_stride=1)
        with tel.span("kernel", flops=1e6) as sp:
            sp.set(pos_inf=float("inf"), neg_inf=float("-inf"), not_a_num=float("nan"))
        # a cancellation event against total == 0.0 carries value == inf
        tel.numerics.check_cancellation("mass", abs_sum=1.0, total=0.0)
        a = np.ones(4)
        a[0] = np.inf
        tel.scan("H", a, step=0)
        tel.metrics.gauge("headroom").set(float("inf"))
        return tel

    def test_jsonl_span_counters_round_trip_all_nonfinite(self, tmp_path):
        tel = self._nonfinite_sample()
        data = read_jsonl(write_jsonl(tel, tmp_path / "t.jsonl"))
        counters = next(s for s in data.spans if s.name == "kernel").counters
        assert counters["pos_inf"] == float("inf")
        assert counters["neg_inf"] == float("-inf")
        assert math.isnan(counters["not_a_num"])
        assert counters["flops"] == 1e6  # finite values untouched

    def test_jsonl_event_values_round_trip_nonfinite(self, tmp_path):
        tel = self._nonfinite_sample()
        data = read_jsonl(write_jsonl(tel, tmp_path / "t.jsonl"))
        cancel = next(e for e in data.events if e.kind == "cancellation")
        assert cancel.value == float("inf")
        assert isinstance(cancel.value, float)

    def test_jsonl_metrics_round_trip_nonfinite(self, tmp_path):
        tel = self._nonfinite_sample()
        data = read_jsonl(write_jsonl(tel, tmp_path / "t.jsonl"))
        assert data.metrics["headroom"]["value"] == float("inf")

    def test_jsonl_lines_are_strictly_valid_json(self, tmp_path):
        # every line must parse under allow_nan=False: no bare Infinity/NaN
        path = write_jsonl(self._nonfinite_sample(), tmp_path / "t.jsonl")
        for line in path.read_text().splitlines():
            json.loads(line, parse_constant=lambda c: pytest.fail(f"bare {c} in JSONL"))

    def test_chrome_trace_complete_events_carry_required_fields(self):
        tel = self._nonfinite_sample()
        doc = to_chrome_trace(tel)
        complete = [e for e in doc["traceEvents"] if e.get("ph") == "X"]
        assert complete
        for e in complete:
            for key in ("ph", "ts", "dur", "pid", "tid", "name"):
                assert key in e, f"complete event missing {key!r}: {e}"
            assert isinstance(e["ts"], float) and isinstance(e["dur"], float)

    def test_chrome_trace_instants_carry_required_fields(self):
        tel = self._nonfinite_sample()
        doc = to_chrome_trace(tel)
        instants = [e for e in doc["traceEvents"] if e.get("ph") == "i"]
        assert instants
        for e in instants:
            for key in ("ph", "ts", "pid", "tid", "name"):
                assert key in e, f"instant event missing {key!r}: {e}"

    def test_chrome_trace_serializes_without_nonfinite_literals(self, tmp_path):
        tel = self._nonfinite_sample()
        # allow_nan=False raises if any non-finite float survived cleaning
        text = json.dumps(to_chrome_trace(tel), allow_nan=False)
        assert "Infinity" not in text and "NaN" not in text

    def test_clamr_trace_files_round_trip(self, tmp_path):
        # end-to-end: a real traced run through both file exporters
        tel = Telemetry(label="clamr/rt", watch_stride=4)
        cfg = DamBreakConfig(nx=12, ny=12, max_level=1)
        ClamrSimulation(cfg, policy="mixed", telemetry=tel).run(8)
        data = read_jsonl(write_jsonl(tel, tmp_path / "run.jsonl"))
        assert len(data.spans) == len(tel.tracer.spans)
        doc = json.loads(write_chrome_trace(tel, tmp_path / "run.trace.json").read_text())
        complete = [e for e in doc["traceEvents"] if e.get("ph") == "X"]
        assert len(complete) == len(tel.tracer.spans)
        for e in complete:
            assert {"ph", "ts", "dur", "pid", "tid"} <= set(e)


class TestClamrIntegration:
    @pytest.fixture(scope="class")
    def traced_run(self):
        tel = Telemetry(label="clamr/test", watch_stride=4)
        sim = ClamrSimulation(
            DamBreakConfig(nx=16, ny=16, max_level=1), policy="full", telemetry=tel
        )
        res = sim.run(20)
        return tel, res

    def test_per_kernel_spans_exist(self, traced_run):
        tel, _ = traced_run
        names = {s.name for s in tel.tracer.spans}
        assert {
            "clamr/run",
            "clamr/step",
            "clamr/compute_timestep",
            "clamr/finite_diff_vectorized",
            "clamr/regrid",
            "clamr/mass_sum",
        } <= names

    def test_span_flops_match_profile(self, traced_run):
        tel, res = traced_run
        span_flops = sum(
            s.counters.get("flops", 0)
            for s in tel.tracer.spans
            if s.name in ("clamr/compute_timestep", "clamr/finite_diff_vectorized")
        )
        assert span_flops == res.profile.flops
        span_bytes = sum(
            s.counters.get("state_bytes", 0)
            for s in tel.tracer.spans
            if s.name in ("clamr/compute_timestep", "clamr/finite_diff_vectorized")
        )
        assert span_bytes == res.profile.state_bytes

    def test_no_numerical_events_on_healthy_run(self, traced_run):
        tel, _ = traced_run
        assert tel.numerics.fatal_events == []

    def test_results_unchanged_by_tracing(self, traced_run):
        _, traced = traced_run
        plain = ClamrSimulation(
            DamBreakConfig(nx=16, ny=16, max_level=1), policy="full"
        ).run(20)
        np.testing.assert_array_equal(traced.slice_precise, plain.slice_precise)
        assert traced.profile.flops == plain.profile.flops

    def test_muscl_spans(self):
        tel = Telemetry(label="clamr/muscl")
        sim = ClamrSimulation(
            DamBreakConfig(nx=16, ny=16, max_level=1),
            policy="full",
            scheme="muscl",
            telemetry=tel,
        )
        sim.run(5)
        assert any(s.name == "clamr/finite_diff_muscl" for s in tel.tracer.spans)


class TestSelfIntegration:
    def test_spans_and_rk3_structure(self):
        tel = Telemetry(label="self/test", watch_stride=4)
        cfg = ThermalBubbleConfig(nex=2, ney=2, nez=2, order=2)
        res = SelfSimulation(cfg, precision="double", telemetry=tel).run(4)
        assert len(tel.tracer.by_name("self/step")) == 4
        # low-storage RK3: three rhs evaluations per step
        assert len(tel.tracer.by_name("self/rhs")) == 12
        span_flops = sum(
            s.counters.get("flops", 0) for s in tel.tracer.by_name("self/rk3_step")
        )
        assert span_flops == res.profile.flops
        assert tel.numerics.fatal_events == []


#: every kernel site's span, as (name, parent name, counter keys in order)
#: keyed by one letter; "KERNEL" stands for the run's flux kernel span
CLAMR_SPANS = {
    "M": ("clamr/mass_sum", None, ("mass",)),
    "R": ("clamr/run", None, ("steps", "ncells")),
    "s": ("clamr/step", "clamr/run", ("step",)),
    "t": ("clamr/compute_timestep", "clamr/step", ("flops", "state_bytes", "dt", "ncells")),
    "k": ("KERNEL", "clamr/step", ("flops", "state_bytes")),
    "f": ("clamr/refinement_flags", "clamr/step", ()),
    "g": ("clamr/regrid", "clamr/step", ("ncells_before", "ncells_after")),
    "m": ("clamr/mass_sum", "clamr/step", ("mass",)),
}
SELF_SPANS = {
    "R": ("self/run", None, ("steps", "ndof")),
    "s": ("self/step", "self/run", ("step",)),
    "d": ("self/stable_dt", "self/step", ("dt",)),
    "k": ("self/rk3_step", "self/step", ("flops",)),
    "h": ("self/rhs", "self/rk3_step", ()),
    "f": ("self/filter", "self/step", ()),
}
#: every ladder entry as (site, field names in order), keyed by one letter
_CONSERVED = ("rho", "rhou", "rhov", "rhow", "rhoE")
CLAMR_LADDER = {
    "T": ("clamr/compute_timestep", ("dt",)),
    "K": ("KERNEL", ("H", "U", "V")),
    "G": ("clamr/regrid", ("H", "U", "V", "level")),
}
SELF_LADDER = {
    "D": ("self/stable_dt", ("dt",)),
    "K": ("self/rk3_step", _CONSERVED),
    "F": ("self/filter", _CONSERVED),
}
_CLAMR_ORDER = "MRstkstkstkstkfgmstkstkstkstkfgmstkstkstkstkfgmstkM"
_CLAMR_STEPS = "1:TK 2:TK 3:TK 4:TKG 5:TK 6:TK 7:TK 8:TKG 9:TK 10:TK 11:TK 12:TKG 13:TK"


def _clamr_metrics(kernel: str) -> list[str]:
    return [
        "clamr.compute_timestep.flops", f"clamr.{kernel}.flops", f"clamr.{kernel}.state_bytes",
        "clamr.mass_drift", "clamr.dt", "clamr.regrid.ncells",
    ]


class TestKernelSites:
    """Where each kernel site's span, metrics and ladder entries land."""

    @pytest.mark.parametrize(
        "run, kernel, expected",
        [
            (
                "rusanov", "clamr/finite_diff_vectorized",
                (_CLAMR_ORDER, _clamr_metrics("finite_diff_vectorized"), _CLAMR_STEPS),
            ),
            (
                "muscl", "clamr/finite_diff_muscl",
                (_CLAMR_ORDER, _clamr_metrics("finite_diff_muscl"), _CLAMR_STEPS),
            ),
            (
                "self", None,
                (
                    "Rsdkhhhf" "sdkhhhf" "sdkhhhf" "sdkhhhf" "sdkhhhf" "sdkhhhf",
                    ["self.flops", "self.state_bytes", "self.dt"],
                    "1:DKF 2:DKF 3:DKF 4:DKF 5:DKF 6:DKF",
                ),
            ),
        ],
    )
    def test_every_site_is_instrumented_in_place(self, run, kernel, expected):
        from repro.telemetry import TelemetrySpec

        tel = TelemetrySpec(label="pin", watch_stride=1, flight_stride=1, hash_stride=1).build()
        if run == "self":
            cfg = ThermalBubbleConfig(nex=2, ney=2, nez=2, order=3)
            SelfSimulation(cfg, telemetry=tel).run(6)
            spans, ladder = SELF_SPANS, SELF_LADDER
        else:
            cfg = DamBreakConfig(nx=16, ny=16, max_level=2)
            ClamrSimulation(cfg, scheme=run, telemetry=tel).run(13)
            spans, ladder = CLAMR_SPANS, CLAMR_LADDER
        span_code = {v: k for k, v in spans.items()}
        site_code = {v: k for k, v in ladder.items()}

        def name(n):
            return "KERNEL" if n == kernel else n

        by_id = {s.span_id: s for s in tel.tracer.spans}
        order = "".join(
            span_code.get(
                (
                    name(s.name),
                    None if s.parent_id is None else by_id[s.parent_id].name,
                    tuple(s.counters),
                ),
                "?",
            )
            for s in tel.tracer.spans
        )
        steps = " ".join(
            f"{entry.step}:" + "".join(
                site_code.get((name(site.name), tuple(f.name for f in site.fields)), "?")
                for site in entry.sites
            )
            for entry in tel.ladder.steps
        )
        assert (order, list(tel.metrics.snapshot()), steps) == expected
        assert tel.flight.nsamples == (6 if run == "self" else 13)


class TestSiteHook:
    def test_null_site_is_the_shared_null_span(self):
        site = NULL_TELEMETRY.site(1, "k", fields=lambda: pytest.fail("hashed"))
        assert site is NULL_SPAN
        with site as inner:
            inner.set(dt=0.5)
        NULL_TELEMETRY.scan_all(1, lambda: pytest.fail("scanned"))

    def test_exit_sets_deltas_then_values_then_hashes(self):
        from repro.machine.counters import KernelCounters
        from repro.telemetry import TelemetrySpec

        tel = TelemetrySpec(hash_stride=2).build()
        counters = KernelCounters(flops=5, state_bytes=7)
        for step in (1, 2):
            with tel.site(step, "k", counters, ("k.flops",), lambda: {"x": np.arange(3.0)}) as site:
                site.set(dt=0.25)
                counters.add(flops=10, state_bytes=4)
                site.set(ncells=3)
        first, second = tel.tracer.spans
        assert list(first.counters.items()) == [
            ("flops", 10), ("state_bytes", 4), ("dt", 0.25), ("ncells", 3),
        ]
        assert second.end_s is not None
        assert tel.metrics.counter("k.flops").value == 20
        # only the hashed step records a ladder entry
        assert [(e.step, [s.name for s in e.sites]) for e in tel.ladder.steps] == [(2, ["k"])]

    def test_a_raising_body_only_closes_the_span(self):
        from repro.machine.counters import KernelCounters
        from repro.telemetry import TelemetrySpec

        tel = TelemetrySpec(hash_stride=1).build()
        with pytest.raises(RuntimeError):
            with tel.site(1, "k", KernelCounters(), ("k.flops",), lambda: {"x": np.zeros(1)}):
                raise RuntimeError("boom")
        [span] = tel.tracer.spans
        assert span.end_s is not None and span.counters == {}
        assert tel.tracer.current() is None
        assert tel.metrics.snapshot() == {} and tel.ladder.steps == []

    def test_cancellation_digits_edges(self):
        from repro.telemetry.numerics import cancellation_digits

        assert cancellation_digits(1e12, 1.0) == pytest.approx(12.0)
        assert cancellation_digits(10.0, 9.0) == pytest.approx(math.log10(10 / 9))
        assert cancellation_digits(1.0, 2.0) == 0.0
        assert cancellation_digits(0.0, 0.0) == 0.0
        assert cancellation_digits(1.0, 0.0) == math.inf
        assert cancellation_digits(1.0, 0.0, zero_total=0.0) == 0.0


class TestInvocationCounting:
    def test_muscl_counts_two_launches(self):
        from repro.clamr.kernels import FaceLists
        from repro.clamr.mesh import AmrMesh
        from repro.clamr.muscl import finite_diff_muscl
        from repro.clamr.state import ShallowWaterState
        from repro.machine.counters import KernelCounters
        from repro.precision.policy import PrecisionPolicy

        mesh = AmrMesh.uniform(8, 8, max_level=0)
        state = ShallowWaterState.zeros(mesh.ncells, PrecisionPolicy.from_level("full"))
        state.H[:] = 1.0
        counters = KernelCounters()
        finite_diff_muscl(mesh, state, 1e-4, FaceLists.from_mesh(mesh), counters)
        assert counters.invocations == 2

    def test_zero_invocation_traffic_charge(self):
        from repro.machine.counters import KernelCounters

        c = KernelCounters()
        c.add(fixed_bytes=1024, invocations=0)
        assert c.invocations == 0
        assert c.fixed_bytes == 1024

    def test_clamr_run_invocations_are_launches_only(self):
        # 10 steps at nx=8/level0: 10 timestep + 10 kernel launches,
        # regrid cadence adds none (regrid is not a counted kernel) and the
        # per-step mesh-traffic charge must not inflate the count.
        sim = ClamrSimulation(DamBreakConfig(nx=8, ny=8, max_level=0), policy="full")
        res = sim.run(10)
        assert res.profile.invocations == 20
