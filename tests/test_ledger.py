"""Tests for the run ledger & regression observatory (``repro.ledger``).

The acceptance-critical gate tests work on *perturbed clones* of real run
records: the baseline is a real record with deterministic ±2% timing
jitter applied, the regression is the same record with every span timing
scaled by ~20% (perf) or with a forced NaN watchpoint count (fidelity).
Perturbing recorded timings instead of re-running slowly keeps the tests
deterministic on a noisy CI box while still exercising the full
record → ledger → gate → exit-code path.
"""

import json

import pytest

from repro.cli import main
from repro.ledger import (
    LEDGER_SCHEMA_VERSION,
    GateConfig,
    KernelSummary,
    Ledger,
    RunRecord,
    bench_document,
    compare_table,
    fingerprint_of,
    gate_ledger,
    gate_record,
    ledger_summary,
    mad,
    median,
    noise_model,
    regression_threshold,
    run_workload,
    sparkline,
    trend_table,
    validate_bench_document,
    workload_key_of,
    write_bench,
)
from repro.ledger.store import resolve_ledger_path
from repro.service.jobs import JobSpec

# deliberately tiny: the gate tests perturb recorded timings rather than
# relying on the workload being slow enough to time reliably
SMOKE = dict(nx=12, steps=12, max_level=1, policy="mixed")


@pytest.fixture(scope="module")
def clamr_runs():
    """Two genuine re-runs of the identical workload (determinism subject)."""
    r1, _ = run_workload(JobSpec("clamr", seed=0, **SMOKE))
    r2, _ = run_workload(JobSpec("clamr", seed=0, **SMOKE))
    return r1, r2


def clone(record: RunRecord) -> RunRecord:
    """Deep copy through the persistence format (what the gate really sees)."""
    return RunRecord.from_json(record.to_json())


def scale_timings(record: RunRecord, factor: float) -> RunRecord:
    """Clone with every recorded span timing scaled by ``factor``."""
    c = clone(record)
    c.wall_s *= factor
    c.kernel_s *= factor
    c.kernels = {
        name: KernelSummary(
            calls=k.calls,
            total_s=k.total_s * factor,
            mean_ms=k.mean_ms * factor,
            flops=k.flops,
            state_bytes=k.state_bytes,
        )
        for name, k in c.kernels.items()
    }
    return c


def jittered_baseline(record: RunRecord, factors=(0.98, 1.0, 1.02)) -> list[RunRecord]:
    return [scale_timings(record, f) for f in factors]


# ---------------------------------------------------------------------------
# determinism: fingerprints and bitwise conservation (satellite 4)
# ---------------------------------------------------------------------------


class TestDeterminism:
    def test_identical_runs_share_fingerprint(self, clamr_runs):
        r1, r2 = clamr_runs
        assert r1.fingerprint == r2.fingerprint
        assert r1.workload_key == r2.workload_key

    def test_identical_runs_conserve_bitwise(self, clamr_runs):
        # the double-double mass sums must agree to the last bit, and the
        # hex encoding is the representation that survives JSON round-trips
        r1, r2 = clamr_runs
        assert r1.fidelity["conservation_first_hex"] == r2.fidelity["conservation_first_hex"]
        assert r1.fidelity["conservation_last_hex"] == r2.fidelity["conservation_last_hex"]
        back = clone(r1)
        assert back.fidelity["conservation_last_hex"] == r1.fidelity["conservation_last_hex"]
        assert float.fromhex(back.fidelity["conservation_last_hex"]) == pytest.approx(
            r1.fidelity["conservation_last"], abs=0.0
        )

    def test_differing_policy_changes_fingerprint(self, clamr_runs):
        r1, _ = clamr_runs
        other, _ = run_workload(JobSpec("clamr", seed=0, **{**SMOKE, "policy": "full"}))
        assert other.fingerprint != r1.fingerprint
        assert other.workload_key != r1.workload_key

    def test_run_shape_knobs_enter_the_key(self, clamr_runs):
        # steps / scheme / watch stride change the workload, so they must
        # change the identity — otherwise the gate compares a 1000-step
        # MUSCL run against the 40-step Rusanov baseline
        r1, _ = clamr_runs
        for knob in (dict(steps=24), dict(scheme="muscl"), dict(watch_stride=1)):
            other, _ = run_workload(JobSpec("clamr", seed=0, **{**SMOKE, **knob}))
            assert other.workload_key != r1.workload_key, knob
            assert other.fingerprint != r1.fingerprint, knob
        assert r1.config["run"]["steps"] == SMOKE["steps"]
        assert r1.config["run"]["scheme"] == "rusanov"

    def test_vectorized_flag_enters_the_key(self):
        from repro.clamr import ClamrSimulation, DamBreakConfig
        from repro.ledger import record_from_clamr
        from repro.telemetry import Telemetry

        cfg = DamBreakConfig(nx=8, ny=8, max_level=1)
        records = {}
        for vectorized in (True, False):
            tel = Telemetry(label="vec-test")
            res = ClamrSimulation(
                cfg, policy="mixed", vectorized=vectorized, telemetry=tel
            ).run(4)
            records[vectorized] = record_from_clamr(res, tel, cfg)
        assert records[True].workload_key != records[False].workload_key
        assert records[True].config["run"]["vectorized"] is True
        assert records[False].config["run"]["vectorized"] is False

    def test_seed_enters_the_key(self):
        cfg = {"nx": 12}
        assert workload_key_of("clamr", cfg, "mixed", 0) != workload_key_of(
            "clamr", cfg, "mixed", 1
        )

    def test_machine_enters_fingerprint_but_not_key(self):
        cfg = {"nx": 12}
        fp_a = fingerprint_of("clamr", cfg, "mixed", 0, {"cpu": "a"}, "sha")
        fp_b = fingerprint_of("clamr", cfg, "mixed", 0, {"cpu": "b"}, "sha")
        assert fp_a != fp_b  # machine distinguishes full run identity...
        # ...but the workload key has no machine argument at all, so a
        # committed baseline matches the same workload on any machine
        assert workload_key_of("clamr", cfg, "mixed", 0)

    def test_timings_do_not_enter_identity(self, clamr_runs):
        r1, _ = clamr_runs
        slow = scale_timings(r1, 10.0)
        assert slow.fingerprint == r1.fingerprint
        assert slow.workload_key == r1.workload_key

    def test_self_workload_records(self):
        rec, _ = run_workload(JobSpec("self", seed=0, elems=2, order=2, steps=4))
        assert rec.workload == "self"
        assert rec.fidelity["conservation_last_hex"]
        rec2, _ = run_workload(JobSpec("self", seed=0, elems=2, order=2, steps=4))
        assert rec2.fingerprint == rec.fingerprint
        assert rec2.fidelity["conservation_last_hex"] == rec.fidelity["conservation_last_hex"]


# ---------------------------------------------------------------------------
# statistics
# ---------------------------------------------------------------------------


class TestStats:
    def test_median_odd_even(self):
        assert median([3.0, 1.0, 2.0]) == 2.0
        assert median([4.0, 1.0, 2.0, 3.0]) == 2.5

    def test_median_empty_raises(self):
        with pytest.raises(ValueError):
            median([])

    def test_mad_is_outlier_robust(self):
        clean = [1.0, 1.01, 0.99, 1.02, 0.98]
        spiked = clean + [50.0]
        assert mad(spiked) < 0.05  # one spike cannot blow up the spread

    def test_threshold_relative_floor_governs_tight_baselines(self):
        model = noise_model([1.0, 1.0, 1.0])
        assert regression_threshold(model, rel_floor=0.10, z=5.0) == pytest.approx(1.10)

    def test_threshold_mad_band_governs_noisy_baselines(self):
        model = noise_model([1.0, 1.3, 0.7, 1.25, 0.75])
        thr = regression_threshold(model, rel_floor=0.10, z=5.0)
        assert thr > 1.10  # observed scatter widens the band past the floor
        assert thr == pytest.approx(model.median + 5.0 * 1.4826 * model.mad)


# ---------------------------------------------------------------------------
# store
# ---------------------------------------------------------------------------


class TestStore:
    def test_path_resolution(self, tmp_path):
        assert resolve_ledger_path(tmp_path / "x.jsonl") == tmp_path / "x.jsonl"
        assert resolve_ledger_path(tmp_path) == tmp_path / "ledger.jsonl"

    def test_append_and_reload(self, tmp_path, clamr_runs):
        r1, r2 = clamr_runs
        ledger = Ledger(tmp_path / "runs")
        ledger.append(clone(r1))
        ledger.append(clone(r2))
        fresh = Ledger(tmp_path / "runs")  # re-read from disk
        assert len(fresh) == 2
        assert fresh.workload_keys() == [r1.workload_key]
        assert fresh.latest(r1.workload_key).fingerprint == r2.fingerprint
        assert len(fresh.tail(r1.workload_key, 1)) == 1

    def test_fingerprint_prefix_lookup(self, tmp_path, clamr_runs):
        r1, _ = clamr_runs
        ledger = Ledger(tmp_path / "runs")
        ledger.append(clone(r1))
        assert ledger.by_fingerprint(r1.fingerprint[:6])
        assert ledger.by_fingerprint("zz" * 20) == []

    def test_ambiguous_prefix_raises(self, tmp_path, clamr_runs):
        r1, _ = clamr_runs
        a, b = clone(r1), clone(r1)
        a.fingerprint = "aa11"
        b.fingerprint = "aa22"
        ledger = Ledger(tmp_path / "runs")
        ledger.append(a)
        ledger.append(b)
        with pytest.raises(ValueError, match="ambiguous"):
            ledger.by_fingerprint("aa")

    def test_newer_schema_rejected_with_location(self, tmp_path, clamr_runs):
        r1, _ = clamr_runs
        doc = json.loads(clone(r1).to_json())
        doc["schema"] = LEDGER_SCHEMA_VERSION + 1
        path = tmp_path / "future.jsonl"
        path.write_text(json.dumps(doc) + "\n")
        with pytest.raises(ValueError, match="future.jsonl:1"):
            Ledger(path).load()


# ---------------------------------------------------------------------------
# gating (acceptance criteria: both regression classes caught)
# ---------------------------------------------------------------------------


class TestGate:
    def test_unperturbed_rerun_passes(self, clamr_runs):
        r1, _ = clamr_runs
        result = gate_record(scale_timings(r1, 1.01), jittered_baseline(r1))
        assert result.passed
        assert result.checks > 4
        assert "PASS" in result.render()

    def test_genuine_rerun_passes(self, clamr_runs):
        # an actual second run of the workload: its timings carry real
        # run-to-run noise, so gate with the wide relative floor a
        # cross-machine baseline would use — fidelity rules stay strict
        r1, r2 = clamr_runs
        result = gate_record(clone(r2), jittered_baseline(r1), GateConfig(rel_floor=3.0))
        assert result.passed, result.render()

    def test_injected_20pct_slowdown_fails(self, clamr_runs):
        # the injected regression: every recorded span timing ~20% up
        r1, _ = clamr_runs
        result = gate_record(scale_timings(r1, 1.22), jittered_baseline(r1))
        assert not result.passed
        perf = [f for f in result.findings if f.kind == "perf"]
        assert perf, result.render()
        assert any(f.metric == "wall_s" for f in perf)
        assert all(f.current > f.threshold for f in perf)
        assert "FAIL" in result.render()

    def test_injected_nan_event_fails(self, clamr_runs):
        # the injected fidelity regression: one forced NaN watchpoint event
        r1, _ = clamr_runs
        bad = clone(r1)
        bad.fidelity["nan_events"] = 1
        result = gate_record(bad, jittered_baseline(r1))
        assert not result.passed
        assert any(
            f.kind == "fidelity" and f.metric == "nan_events" for f in result.findings
        )

    def test_mass_drift_blowup_fails(self, clamr_runs):
        r1, _ = clamr_runs
        bad = clone(r1)
        bad.fidelity["mass_drift"] = max(abs(r1.fidelity["mass_drift"]) * 100.0, 1e-6)
        result = gate_record(bad, jittered_baseline(r1))
        assert any(f.metric == "mass_drift" for f in result.findings)

    def test_tiny_kernels_are_not_timed(self):
        base = _synthetic({"big": 0.5, "tiny": 1e-5})
        cur = _synthetic({"big": 0.5, "tiny": 1e-3})  # 100x "regression" in 10 µs
        result = gate_record(cur, [base, base, base])
        assert result.passed  # below min_kernel_s: measuring the OS, not code

    def test_baseline_only_kernel_is_surfaced(self):
        # a kernel that disappears from the current run (renamed, or no
        # longer instrumented) cannot be checked, but must not vanish
        # silently from the gate output
        base = _synthetic({"big": 0.5, "gone": 0.5})
        cur = _synthetic({"big": 0.5})
        result = gate_record(cur, [base, base, base])
        assert result.passed
        assert any("'gone'" in s for s in result.skipped)

    def test_missing_baseline_skips_or_fails(self, clamr_runs):
        r1, _ = clamr_runs
        lenient = gate_record(clone(r1), [])
        assert lenient.passed and lenient.skipped
        strict = gate_record(clone(r1), [], GateConfig(require_baseline=True))
        assert not strict.passed
        assert strict.findings[0].kind == "missing-baseline"

    def test_gate_ledger_matches_by_workload_key(self, tmp_path, clamr_runs):
        r1, _ = clamr_runs
        base = Ledger(tmp_path / "base.jsonl")
        for rec in jittered_baseline(r1):
            base.append(rec)
        cur = Ledger(tmp_path / "cur.jsonl")
        cur.append(scale_timings(r1, 1.01))
        assert gate_ledger(cur, base).passed
        cur.append(scale_timings(r1, 1.5))  # latest record per key is gated
        assert not gate_ledger(cur, base).passed


def _synthetic(kernels: dict, wall: float = 1.0, fidelity: dict | None = None) -> RunRecord:
    base_fidelity = {
        "nan_events": 0,
        "inf_events": 0,
        "overflow_risk_events": 0,
        "subnormal_events": 0,
        "cancellation_events": 0,
        "mass_drift": 0.0,
        "asymmetry_relative": 0.0,
    }
    return RunRecord(
        schema=LEDGER_SCHEMA_VERSION,
        fingerprint="f" * 16,
        workload_key="k" * 16,
        workload="clamr",
        label="synthetic",
        config={},
        policy="mixed",
        seed=0,
        git_sha="deadbeef",
        machine={},
        created_unix=0.0,
        wall_s=wall,
        kernel_s=0.9 * wall,
        kernels={
            name: KernelSummary(
                calls=1, total_s=t, mean_ms=1e3 * t, flops=0.0, state_bytes=0.0
            )
            for name, t in kernels.items()
        },
        fidelity=dict(fidelity or base_fidelity),
    )


# ---------------------------------------------------------------------------
# reporting
# ---------------------------------------------------------------------------


class TestReport:
    def test_sparkline_shapes(self):
        assert sparkline([]) == ""
        assert sparkline([1.0, 1.0, 1.0]) == "▁▁▁"
        line = sparkline([0.0, 1.0, 2.0, 3.0])
        assert len(line) == 4 and line[0] == "▁" and line[-1] == "█"

    def test_sparkline_thins_long_series(self):
        assert len(sparkline(list(range(100)), width=16)) == 16

    def test_sparkline_keeps_the_newest_run(self):
        # downsampling must anchor the final element — the newest run is
        # the one a trend review is about
        assert sparkline([0.0] * 99 + [1.0], width=16)[-1] == "█"
        assert sparkline([1.0] + [0.0] * 99, width=16)[0] == "█"
        assert len(sparkline([0.0] * 99 + [1.0], width=1)) == 1

    def test_sparkline_marks_nonfinite(self):
        assert "!" in sparkline([1.0, float("nan"), 2.0])
        assert sparkline([float("inf")] * 3) == "!!!"

    def test_trend_and_summary_render(self, tmp_path, clamr_runs):
        r1, r2 = clamr_runs
        ledger = Ledger(tmp_path / "runs")
        for rec in (r1, r2):
            ledger.append(clone(rec))
        trend = trend_table(ledger).render()
        assert "wall" in trend and r1.label in trend
        summary = ledger_summary(ledger).render()
        assert r1.workload_key[:8] in summary

    def test_compare_table_flags_slower(self, clamr_runs):
        r1, _ = clamr_runs
        a = jittered_baseline(r1)
        b = [scale_timings(r1, f) for f in (1.49, 1.5, 1.51)]
        rendered = compare_table(a, b).render()
        assert "slower" in rendered
        assert "fidelity A vs B" in rendered
        same = compare_table(a, a).render()
        assert "slower" not in same

    def test_compare_needs_records(self, clamr_runs):
        r1, _ = clamr_runs
        with pytest.raises(ValueError):
            compare_table([], [clone(r1)])


# ---------------------------------------------------------------------------
# bench export
# ---------------------------------------------------------------------------


class TestBench:
    def test_document_is_schema_valid(self, tmp_path, clamr_runs):
        r1, r2 = clamr_runs
        ledger = Ledger(tmp_path / "runs")
        for rec in (r1, r2):
            ledger.append(clone(rec))
        doc = bench_document(ledger)
        validate_bench_document(doc)  # must not raise
        names = {e["name"] for e in doc["entries"]}
        assert any(n.endswith("wall/total_ms") for n in names)
        assert any("/kernel/" in n for n in names)
        assert any(n.endswith("fidelity/mass_drift") for n in names)
        medians = {e["name"]: e["samples"] for e in doc["entries"]}
        assert max(medians.values()) == 2  # both runs entered the medians

    def test_colliding_labels_stay_unique(self, tmp_path, clamr_runs):
        # default labels omit the seed, so two seeds of one config share a
        # label; entry names must still be unique or export-bench crashes
        r1, _ = clamr_runs
        twin = clone(r1)
        twin.seed = 1
        twin.workload_key = "1" * 16
        twin.fingerprint = "2" * 16
        ledger = Ledger(tmp_path / "runs")
        ledger.append(clone(r1))
        ledger.append(twin)
        doc = bench_document(ledger)
        validate_bench_document(doc)  # must not raise on duplicate names
        assert len({e["workload_key"] for e in doc["entries"]}) == 2

    def test_write_bench(self, tmp_path, clamr_runs):
        r1, _ = clamr_runs
        ledger = Ledger(tmp_path / "runs")
        ledger.append(clone(r1))
        out = write_bench(ledger, tmp_path / "BENCH.json")
        doc = json.loads(out.read_text())
        assert doc["schema"] == "repro-bench/v1"
        validate_bench_document(doc)

    def test_validator_catches_violations(self):
        good = {
            "schema": "repro-bench/v1",
            "generated_unix": 0.0,
            "git_sha": "abc",
            "machine": {},
            "entries": [
                {"name": "a", "value": 1.0, "unit": "ms", "samples": 1,
                 "workload_key": "k", "fingerprint": "f"},
            ],
        }
        validate_bench_document(good)
        for mutate, fragment in [
            (lambda d: d.update(schema="nope"), "schema"),
            (lambda d: d["entries"].append(dict(d["entries"][0])), "duplicate"),
            (lambda d: d["entries"][0].update(value=float("nan")), "finite"),
            (lambda d: d["entries"][0].update(unit="furlongs"), "unit"),
            (lambda d: d["entries"][0].update(samples=0), "samples"),
            (lambda d: d["entries"][0].update(fingerprint=""), "fingerprint"),
        ]:
            bad = json.loads(json.dumps(good))
            mutate(bad)
            with pytest.raises(ValueError, match=fragment):
                validate_bench_document(bad)


# ---------------------------------------------------------------------------
# CLI (the acceptance path: nonzero exits on injected regressions)
# ---------------------------------------------------------------------------


def _write_ledger(path, records) -> Ledger:
    ledger = Ledger(path)
    for rec in records:
        ledger.append(rec)
    return ledger


class TestLedgerCli:
    @pytest.fixture()
    def ledgers(self, tmp_path, clamr_runs):
        """baseline.jsonl (3 jittered runs) + the record currents derive from.

        Currents are perturbed clones of the same base record, so the gate
        outcome is a deterministic function of the injected perturbation —
        never of scheduler noise between two real runs.
        """
        r1, _ = clamr_runs
        base_path = tmp_path / "baseline.jsonl"
        _write_ledger(base_path, jittered_baseline(r1))
        return tmp_path, base_path, r1

    def test_record_report_export(self, tmp_path, capsys):
        ledger_path = tmp_path / "obs"
        trace_dir = tmp_path / "traces"
        assert main([
            "ledger", "record", "clamr", "--ledger", str(ledger_path),
            "--runs", "2", "--nx", "12", "--steps", "12", "--trace-dir", str(trace_dir),
        ]) == 0
        out = capsys.readouterr().out
        assert "recorded" in out and "fingerprint" in out
        assert len(Ledger(ledger_path)) == 2
        assert list(trace_dir.glob("*.trace.json"))
        assert list(trace_dir.glob("*.jsonl"))

        assert main(["ledger", "report", "--ledger", str(ledger_path)]) == 0
        out = capsys.readouterr().out
        assert "Run ledger" in out and "Trend" in out

        bench = tmp_path / "BENCH_observatory.json"
        assert main([
            "ledger", "export-bench", "--ledger", str(ledger_path), "--out", str(bench),
        ]) == 0
        doc = json.loads(bench.read_text())
        validate_bench_document(doc)

    def test_report_empty_ledger(self, tmp_path, capsys):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        assert main(["ledger", "report", "--ledger", str(path)]) == 0
        assert "empty" in capsys.readouterr().out

    def test_report_missing_ledger_is_an_error(self, tmp_path, capsys):
        # a missing ledger is a user error (exit 2), not an empty ledger
        assert main(["ledger", "report", "--ledger", str(tmp_path / "nope")]) == 2
        assert "not found" in capsys.readouterr().err

    def test_compare_by_prefix(self, tmp_path, clamr_runs, capsys):
        r1, _ = clamr_runs
        a, b = clone(r1), scale_timings(r1, 1.5)
        b.fingerprint = "0123456789abcdef"
        path = tmp_path / "cmp.jsonl"
        _write_ledger(path, [a, b])
        assert main([
            "ledger", "compare", r1.fingerprint[:8], "0123", "--ledger", str(path),
        ]) == 0
        assert "Ledger compare" in capsys.readouterr().out
        assert main(["ledger", "compare", "zzzz", "0123", "--ledger", str(path)]) == 2

    def test_gate_passes_unperturbed(self, ledgers, capsys):
        tmp_path, base_path, rec = ledgers
        cur = tmp_path / "current.jsonl"
        _write_ledger(cur, [scale_timings(rec, 1.01)])
        assert main([
            "ledger", "gate", "--ledger", str(cur), "--baseline", str(base_path),
        ]) == 0
        assert "gate: PASS" in capsys.readouterr().out

    def test_gate_exits_nonzero_on_injected_slowdown(self, ledgers, capsys):
        tmp_path, base_path, rec = ledgers
        cur = tmp_path / "slow.jsonl"
        _write_ledger(cur, [scale_timings(rec, 1.22)])
        assert main([
            "ledger", "gate", "--ledger", str(cur), "--baseline", str(base_path),
        ]) == 1
        out = capsys.readouterr().out
        assert "gate: FAIL" in out and "[perf]" in out

    def test_gate_exits_nonzero_on_injected_nan(self, ledgers, capsys):
        tmp_path, base_path, rec = ledgers
        bad = clone(rec)
        bad.fidelity["nan_events"] = 1
        cur = tmp_path / "nan.jsonl"
        _write_ledger(cur, [bad])
        assert main([
            "ledger", "gate", "--ledger", str(cur), "--baseline", str(base_path),
        ]) == 1
        out = capsys.readouterr().out
        assert "gate: FAIL" in out and "nan_events" in out

    def test_gate_require_baseline(self, tmp_path, clamr_runs, capsys):
        r1, _ = clamr_runs
        orphan = clone(r1)
        orphan.workload_key = "0" * 16  # no such key in the baseline
        cur = tmp_path / "orphan.jsonl"
        _write_ledger(cur, [orphan])
        empty_base = tmp_path / "base.jsonl"
        _write_ledger(empty_base, [])
        empty_base.touch()  # zero records never touch the file; the gate needs it to exist
        assert main([
            "ledger", "gate", "--ledger", str(cur), "--baseline", str(empty_base),
        ]) == 0  # skip by default
        capsys.readouterr()
        assert main([
            "ledger", "gate", "--ledger", str(cur), "--baseline", str(empty_base),
            "--require-baseline",
        ]) == 1
        assert "missing-baseline" in capsys.readouterr().out

    def test_gate_rel_floor_flag(self, ledgers, capsys):
        # a generous relative floor (the cross-machine CI setting) absorbs
        # the same delta the default floor flags
        tmp_path, base_path, rec = ledgers
        cur = tmp_path / "floor.jsonl"
        _write_ledger(cur, [scale_timings(rec, 1.22)])
        assert main([
            "ledger", "gate", "--ledger", str(cur), "--baseline", str(base_path),
            "--rel-floor", "3.0",
        ]) == 0


# ---------------------------------------------------------------------------
# harness wiring
# ---------------------------------------------------------------------------


class TestHarnessWiring:
    def test_run_clamr_levels_appends_records(self, tmp_path):
        from repro.harness.experiments import run_clamr_levels

        ledger_dir = tmp_path / "obs"
        results = run_clamr_levels(nx=8, steps=6, max_level=1, ledger=ledger_dir)
        ledger = Ledger(ledger_dir)
        assert len(ledger) == len(results)
        # one workload key per precision level, each a distinct policy
        policies = {ledger.latest(k).policy for k in ledger.workload_keys()}
        assert policies == set(results)

    def test_run_self_precisions_appends_records(self, tmp_path):
        from repro.harness.experiments import run_self_precisions

        ledger_dir = tmp_path / "obs"
        results = run_self_precisions(elems=2, order=2, steps=3, ledger=ledger_dir)
        ledger = Ledger(ledger_dir)
        assert len(ledger) == len(results)
        labels = {ledger.latest(k).label for k in ledger.workload_keys()}
        assert all(label.startswith("self/") for label in labels)


class TestStoreDurability:
    """Appends are fsynced; loads tolerate exactly a torn trailing line."""

    def test_truncated_trailing_line_skipped_with_warning(self, tmp_path, clamr_runs):
        r1, r2 = clamr_runs
        path = tmp_path / "runs.jsonl"
        ledger = Ledger(path)
        ledger.append(clone(r1))
        ledger.append(clone(r2))
        # simulate a writer killed mid-append: cut the last line short
        text = path.read_text()
        path.write_text(text[: len(text) - 40])
        with pytest.warns(RuntimeWarning, match="truncated"):
            fresh = Ledger(path).load()
        assert len(fresh) == 1
        assert fresh.records()[0].fingerprint == r1.fingerprint

    def test_midfile_corruption_still_raises(self, tmp_path, clamr_runs):
        r1, r2 = clamr_runs
        path = tmp_path / "runs.jsonl"
        ledger = Ledger(path)
        ledger.append(clone(r1))
        ledger.append(clone(r2))
        lines = path.read_text().splitlines()
        lines[0] = lines[0][:-30]  # tear the FIRST record instead
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match="runs.jsonl:1"):
            Ledger(path).load()

    def test_append_fsyncs(self, tmp_path, clamr_runs, monkeypatch):
        # the append path goes through the shared JSONL helper, which owns
        # the fsync (see repro.ioutil.append_jsonl_line)
        import repro.ioutil as ioutil

        calls = []
        monkeypatch.setattr(ioutil, "fsync_file", lambda fh: calls.append(fh))
        r1, _ = clamr_runs
        Ledger(tmp_path / "runs.jsonl").append(clone(r1))
        assert len(calls) == 1
