"""The numerics flight recorder: determinism is the contract.

A flight file is only useful if it is *comparable*: identical
seed/config must give bitwise-identical ``flight.jsonl`` bytes and
digests at every stride, and the bounded ring buffer's stride-doubling
downsampling must be a pure function of the full series — never of
when the downsamples happened to fire.  These tests pin that contract
for the recorder itself, the simulation wiring (both mini-apps), the
ledger fidelity integration, and the ``repro flight`` CLI family.
"""

import json
import math
from pathlib import Path

import numpy as np
import pytest

from repro.telemetry.flight import (
    DANGER_RULES,
    FlightRecorder,
    compare_digests,
    field_signals,
    flight_compare,
    flight_counter_trace,
    flight_digest,
    flight_report,
    read_flight,
    write_flight,
)


def _signal(step: int) -> float:
    # deterministic, irregular, sign-changing — a worst case for resampling
    return math.sin(0.37 * step) * (1.0 + 0.01 * step)


def _drive(flight: FlightRecorder, nsteps: int) -> None:
    """Feed the recorder the way a simulation loop does."""
    for step in range(1, nsteps + 1):
        if flight.should_sample(step):
            flight.record(step, x=_signal(step), y=float(step))


class TestRecorder:
    def test_records_on_stride_only(self):
        f = FlightRecorder(stride=4)
        assert [s for s in range(1, 13) if f.should_sample(s)] == [4, 8, 12]
        with pytest.raises(ValueError):
            f.record(3, x=1.0)

    def test_invalid_shape_rejected(self):
        with pytest.raises(ValueError):
            FlightRecorder(stride=0)
        with pytest.raises(ValueError):
            FlightRecorder(capacity=2)

    def test_nan_backfill_for_late_and_missing_signals(self):
        f = FlightRecorder(stride=1)
        f.record(1, a=1.0)
        f.record(2, a=2.0, b=20.0)  # b appears late: step 1 backfills NaN
        f.record(3, b=30.0)  # a goes missing: NaN-padded
        assert math.isnan(f.series("b")[0])
        assert math.isnan(f.series("a")[2])
        assert f.series("a")[:2] == [1.0, 2.0]

    def test_capacity_bounded_and_stride_doubles(self):
        f = FlightRecorder(stride=1, capacity=8)
        _drive(f, 100)
        assert f.nsamples <= 8
        assert f.stride == 16  # 1 -> 2 -> 4 -> 8 -> 16 over 100 steps
        assert f.base_stride == 1

    def test_downsample_is_pure_function_of_full_series(self):
        # the determinism property: a capacity-bounded buffer ends up
        # with exactly the full series filtered to the final stride,
        # regardless of when the intermediate downsamples fired
        for capacity, nsteps in [(8, 100), (16, 257), (4, 31)]:
            bounded = FlightRecorder(stride=1, capacity=capacity)
            _drive(bounded, nsteps)
            expected_steps = [
                s for s in range(1, nsteps + 1) if s % bounded.stride == 0
            ]
            assert bounded.steps == expected_steps
            assert bounded.series("x") == [_signal(s) for s in expected_steps]

    def test_unknown_signal_raises(self):
        f = FlightRecorder()
        f.record(1, x=1.0)
        with pytest.raises(KeyError):
            f.series("nope")


class TestPersistence:
    def test_round_trip_is_byte_identical(self, tmp_path):
        f = FlightRecorder(stride=2, capacity=16, label="rt")
        for step in range(2, 65, 2):
            if f.should_sample(step):
                f.record(step, x=_signal(step), weird=math.inf if step == 8 else math.nan)
        p1 = write_flight(f, tmp_path / "a.jsonl")
        f2 = read_flight(p1)
        p2 = write_flight(f2, tmp_path / "b.jsonl")
        assert p1.read_bytes() == p2.read_bytes()
        assert flight_digest(f) == flight_digest(f2)

    def test_reader_refuses_newer_schema(self, tmp_path):
        f = FlightRecorder(stride=1)
        f.record(1, x=1.0)
        path = write_flight(f, tmp_path / "f.jsonl")
        lines = path.read_text().splitlines()
        meta = json.loads(lines[0])
        meta["version"] = 99
        path.write_text("\n".join([json.dumps(meta), *lines[1:]]) + "\n")
        with pytest.raises(ValueError, match="newer"):
            read_flight(path)

    def test_reader_rejects_malformed(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"type": "flight_sample", "step": 1}\n')
        with pytest.raises(ValueError):
            read_flight(path)


class TestDigest:
    def _flight(self):
        f = FlightRecorder(stride=1, label="d")
        for step, v in enumerate([0.5, 9.0, -3.0, 9.0], start=1):
            f.record(step, headroom_bits=v, plain=v)
        return f

    def test_extremes_and_argsteps(self):
        d = flight_digest(self._flight())
        sig = d["signals"]["plain"]
        assert sig["min"] == -3.0 and sig["argmin_step"] == 3
        # earliest-tie argmax
        assert sig["max"] == 9.0 and sig["argmax_step"] == 2
        assert sig["first"] == 0.5 and sig["last"] == 9.0

    def test_crossings_counted_for_danger_signals(self):
        d = flight_digest(self._flight())
        # headroom_bits danger is < 8: values .5, 9, -3, 9 cross in twice
        assert DANGER_RULES["headroom_bits"] == ("lt", 8.0)
        assert d["signals"]["headroom_bits"]["crossings"] == 2
        assert "crossings" not in d["signals"]["plain"]

    def test_hash_covers_content(self):
        a = flight_digest(self._flight())
        f = self._flight()
        f.record(5, headroom_bits=1.0, plain=1.0)
        b = flight_digest(f)
        assert a["hash"] != b["hash"]
        assert a["hash"] == flight_digest(self._flight())["hash"]

    def test_compare_digests_exact_and_rtol(self):
        a = flight_digest(self._flight())
        b = json.loads(json.dumps(a))  # round-tripped copy
        assert compare_digests(a, b) == []
        b["signals"]["plain"]["max"] = 9.0 * (1 + 1e-9)
        b["hash"] = "tampered"
        assert compare_digests(a, b)  # exact mode: hash mismatch
        assert compare_digests(a, b, rtol=1e-6) == []
        b["signals"]["plain"]["max"] = 11.0
        assert any("plain.max" in p for p in compare_digests(a, b, rtol=1e-6))


class TestFieldSignals:
    def test_counts_and_fractions(self):
        arrays = {
            "a": np.array([1.0, np.nan, np.inf, 2.0], dtype=np.float64),
            "b": np.array([1e-310, 1.0], dtype=np.float64),  # one subnormal
        }
        s = field_signals(arrays, np.dtype(np.float64))
        assert s["nan_count"] == 1.0
        assert s["inf_count"] == 1.0
        assert s["subnormal_fraction"] == 0.5
        assert math.isfinite(s["headroom_bits"]) and s["headroom_bits"] > 0

    def test_empty_and_all_nan(self):
        s = field_signals({"a": np.array([np.nan, np.nan])}, np.dtype(np.float32))
        assert s["nan_count"] == 2.0
        assert math.isnan(s["headroom_bits"]) or s["headroom_bits"] > 0


class TestReportAndCompare:
    def _flight(self, n=12, scale=1.0):
        f = FlightRecorder(stride=1, label="rep")
        for step in range(1, n + 1):
            f.record(step, dt=scale * _signal(step), headroom_bits=100.0)
        return f

    def test_report_renders_sparklines(self):
        text = flight_report(self._flight(), width=20)
        assert "dt" in text and "headroom_bits" in text
        assert any(ch in text for ch in "▁▂▃▄▅▆▇█")
        assert "digest hash:" in text

    def test_compare_equal_flights(self):
        _, mismatches = flight_compare(self._flight(), self._flight())
        assert mismatches == 0

    def test_compare_flags_differences_and_rtol(self):
        a, b = self._flight(), self._flight(scale=1.0 + 1e-9)
        _, strict = flight_compare(a, b)
        assert strict > 0
        _, loose = flight_compare(a, b, rtol=1e-6)
        assert loose == 0

    def test_compare_counts_missing_signal(self):
        a = self._flight()
        b = FlightRecorder(stride=1)
        for step in range(1, 13):
            b.record(step, dt=a.series("dt")[step - 1])
        _, mismatches = flight_compare(a, b)
        assert mismatches == 1  # headroom_bits missing on one side

    def test_counter_trace_tracks(self):
        trace = flight_counter_trace(self._flight())
        counters = [e for e in trace["traceEvents"] if e["ph"] == "C"]
        assert counters and all(e["name"].startswith("flight/") for e in counters)
        # counter timestamps are step numbers, not wall-clock
        assert sorted({e["ts"] for e in counters}) == [float(s) for s in range(1, 13)]
        assert trace["otherData"]["flight_digest"]["hash"]


def _clamr_flight(stride, steps=16, **kw):
    from repro.clamr import ClamrSimulation, DamBreakConfig
    from repro.telemetry import Telemetry

    flight = FlightRecorder(stride=stride, label="t")
    tel = Telemetry(label="t", watch_stride=4, flight=flight)
    cfg = DamBreakConfig(nx=12, ny=12, max_level=1)
    result = ClamrSimulation(cfg, policy="mixed", telemetry=tel, **kw).run(steps)
    return result, tel, cfg


class TestSimulationWiring:
    @pytest.mark.parametrize("stride", [1, 2, 3])
    def test_clamr_bitwise_deterministic_at_every_stride(self, tmp_path, stride):
        _, tel_a, _ = _clamr_flight(stride)
        _, tel_b, _ = _clamr_flight(stride)
        pa = write_flight(tel_a.flight, tmp_path / "a.jsonl")
        pb = write_flight(tel_b.flight, tmp_path / "b.jsonl")
        assert pa.read_bytes() == pb.read_bytes()
        assert flight_digest(tel_a.flight)["hash"] == flight_digest(tel_b.flight)["hash"]

    def test_clamr_signals_present_and_sane(self):
        result, tel, _ = _clamr_flight(2, steps=16)
        f = tel.flight
        for name in ("dt", "cfl", "ncells", "state_bits", "compute_bits",
                     "cancellation_digits", "conservation_drift",
                     "headroom_bits", "subnormal_fraction", "nan_count",
                     "inf_count"):
            assert name in f.signal_names
        assert f.steps == [s for s in range(1, 17) if s % 2 == 0]
        assert f.series("ncells")[-1] == float(result.ncells_history[-1])
        assert all(0.0 < c < 1.0 for c in f.series("cfl"))
        assert f.series("state_bits")[0] == 32.0  # mixed: float32 state
        assert f.series("compute_bits")[0] == 64.0

    def test_self_flight_deterministic(self, tmp_path):
        from repro.self_ import SelfSimulation, ThermalBubbleConfig
        from repro.telemetry import Telemetry

        def run():
            tel = Telemetry(label="s", watch_stride=4,
                            flight=FlightRecorder(stride=2, label="s"))
            cfg = ThermalBubbleConfig(nex=2, ney=2, nez=2, order=3)
            SelfSimulation(cfg, precision="single", telemetry=tel).run(10)
            return tel.flight

        fa, fb = run(), run()
        pa = write_flight(fa, tmp_path / "a.jsonl")
        pb = write_flight(fb, tmp_path / "b.jsonl")
        assert pa.read_bytes() == pb.read_bytes()
        assert fa.nsamples == 5
        assert fa.series("state_bits")[0] == 32.0
        assert max(fa.series("conservation_drift")) < 1e-6

    def test_no_flight_means_no_sampling_cost_path(self):
        from repro.clamr import ClamrSimulation, DamBreakConfig
        from repro.telemetry import Telemetry

        tel = Telemetry(label="t")
        assert tel.flight is None
        cfg = DamBreakConfig(nx=8, ny=8, max_level=1)
        ClamrSimulation(cfg, policy="mixed", telemetry=tel).run(4)  # no crash


class TestLedgerIntegration:
    def test_flight_digest_in_fidelity_only_when_enabled(self):
        from repro.ledger.runner import run_workload
        from repro.service.jobs import JobSpec

        spec = JobSpec("clamr", nx=12, steps=8)
        plain, _ = run_workload(spec)
        flighted, tel = run_workload(spec, flight_stride=2)
        assert "flight" not in plain.fidelity
        assert "flight" not in plain.config["run"]
        assert flighted.fidelity["flight"]["hash"] == flight_digest(tel.flight)["hash"]
        assert flighted.config["run"]["flight"] == {"stride": 2, "capacity": 512}
        # flight sampling cadence is part of the workload identity
        assert plain.workload_key != flighted.workload_key

    def test_flightless_fingerprint_unchanged_by_feature(self):
        # a run without a flight recorder must hash exactly as before the
        # flight recorder existed: nothing flight-shaped in the config
        from repro.ledger.runner import run_workload
        from repro.service.jobs import JobSpec

        record, _ = run_workload(JobSpec("self", elems=2, order=3, steps=6))
        assert "flight" not in record.config["run"]
        assert "flight" not in record.fidelity

    def test_digest_survives_record_json_round_trip(self):
        from repro.ledger.record import RunRecord
        from repro.ledger.runner import run_workload
        from repro.service.jobs import JobSpec

        record, tel = run_workload(JobSpec("clamr", nx=12, steps=8), flight_stride=2)
        back = RunRecord.from_json(record.to_json())
        assert back.fidelity["flight"] == flight_digest(tel.flight)


class TestCli:
    def _run(self, tmp_path, *extra):
        from repro.cli import main

        return main([
            "clamr", "--nx", "12", "--steps", "12", "--max-level", "1",
            "--flight-stride", "2", *extra,
        ])

    def test_flight_report_cli(self, tmp_path, capsys):
        from repro.cli import main

        assert self._run(tmp_path, "--flight", str(tmp_path / "f.jsonl")) == 0
        assert main(["flight", "report", str(tmp_path / "f.jsonl")]) == 0
        out = capsys.readouterr().out
        assert "digest hash:" in out and any(ch in out for ch in "▁▂▃▄▅▆▇█")

    def test_flight_compare_and_digest_cli(self, tmp_path, capsys):
        from repro.cli import main

        self._run(tmp_path, "--flight", str(tmp_path / "a.jsonl"))
        self._run(tmp_path, "--flight", str(tmp_path / "b.jsonl"))
        assert main(["flight", "compare", str(tmp_path / "a.jsonl"),
                     str(tmp_path / "b.jsonl")]) == 0
        assert main(["flight", "digest", str(tmp_path / "a.jsonl"),
                     "--out", str(tmp_path / "a.digest.json")]) == 0
        capsys.readouterr()
        # digest-vs-flight comparison (the CI golden-digest path)
        assert main(["flight", "compare", str(tmp_path / "a.digest.json"),
                     str(tmp_path / "b.jsonl")]) == 0
        assert "match" in capsys.readouterr().out

    def test_flight_compare_mismatch_exits_1(self, tmp_path, capsys):
        from repro.cli import main

        self._run(tmp_path, "--flight", str(tmp_path / "a.jsonl"))
        # a different precision policy: state_bits (at least) must differ
        assert main([
            "clamr", "--nx", "12", "--steps", "12", "--max-level", "1",
            "--policy", "mixed", "--flight-stride", "2",
            "--flight", str(tmp_path / "c.jsonl"),
        ]) == 0
        capsys.readouterr()
        assert main(["flight", "compare", str(tmp_path / "a.jsonl"),
                     str(tmp_path / "c.jsonl")]) == 1

    def test_flight_export_cli(self, tmp_path, capsys):
        from repro.cli import main

        self._run(tmp_path, "--flight", str(tmp_path / "a.jsonl"))
        out = tmp_path / "a.trace.json"
        assert main(["flight", "export", str(tmp_path / "a.jsonl"),
                     "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert any(e["ph"] == "C" for e in doc["traceEvents"])

    def test_missing_file_exits_2(self, capsys):
        from repro.cli import main

        assert main(["flight", "report", "/nonexistent/f.jsonl"]) == 2
        assert "repro: error:" in capsys.readouterr().err

    def test_trace_flight_flag(self, tmp_path, capsys):
        from repro.cli import main

        out = tmp_path / "t.jsonl"
        assert main(["trace", "clamr", "--nx", "12", "--steps", "8",
                     "--max-level", "1", "--flight", str(out),
                     "--flight-stride", "2"]) == 0
        assert read_flight(out).nsamples == 4

    def test_ledger_record_flight_stride(self, tmp_path, capsys):
        from repro.cli import main

        ledger = tmp_path / "led.jsonl"
        assert main(["ledger", "record", "clamr", "--ledger", str(ledger),
                     "--nx", "12", "--steps", "8", "--flight-stride", "2"]) == 0
        records = [json.loads(line) for line in ledger.read_text().splitlines()]
        assert records[0]["fidelity"]["flight"]["nsamples"] == 4
