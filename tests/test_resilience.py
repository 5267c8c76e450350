"""Tests for the resilience subsystem: faults, detectors, recovery."""

import numpy as np
import pytest

from repro.resilience import (
    CampaignConfig,
    ClamrAdapter,
    ConservationDetector,
    DetectorSuite,
    FaultInjector,
    FaultPlan,
    FaultSpec,
    InvariantDetector,
    NonFiniteDetector,
    RecoveryPolicy,
    ResilientRunner,
    SelfAdapter,
    make_adapter,
    probe,
    run_campaign,
    run_cell,
    vulnerability_table,
)
from repro.resilience.campaign import record_resilient_run
from repro.service import JobSpec


class TestFaultSpec:
    def test_parse_minimal(self):
        spec = FaultSpec.parse("nan:H:12")
        assert spec.kind == "nan" and spec.array == "H" and spec.step == 12
        assert spec.index is None and spec.bit is None and not spec.sticky

    def test_parse_full(self):
        spec = FaultSpec.parse("bitflip:U:5:17:30")
        assert (spec.kind, spec.array, spec.step, spec.index, spec.bit) == (
            "bitflip", "U", 5, 17, 30)

    def test_parse_sticky(self):
        assert FaultSpec.parse("inf!:V:3").sticky

    @pytest.mark.parametrize("bad", ["nan", "nan:H", "nan:H:x", "warp:H:3", "nan:H:0"])
    def test_parse_rejects(self, bad):
        with pytest.raises(ValueError):
            FaultSpec.parse(bad)


class TestFaultInjector:
    def _arrays(self, n=32, dtype=np.float32):
        rng = np.random.default_rng(0)
        return {"H": (1.0 + rng.random(n)).astype(dtype)}

    def test_nan_fault_lands(self):
        arrays = self._arrays()
        plan = FaultPlan(specs=(FaultSpec(kind="nan", array="H", step=3),), seed=1)
        inj = FaultInjector(plan)
        assert inj.apply(2, arrays) == []
        fired = inj.apply(3, arrays)
        assert len(fired) == 1
        assert np.isnan(arrays["H"][fired[0].index])

    def test_transient_fires_once(self):
        arrays = self._arrays()
        plan = FaultPlan(specs=(FaultSpec(kind="inf", array="H", step=2),), seed=1)
        inj = FaultInjector(plan)
        assert len(inj.apply(2, arrays)) == 1
        arrays = self._arrays()  # "rollback"
        assert inj.apply(2, arrays) == []  # replay passes cleanly
        assert not inj.pending()

    def test_sticky_refires(self):
        plan = FaultPlan(specs=(FaultSpec(kind="nan", array="H", step=2, sticky=True),), seed=1)
        inj = FaultInjector(plan)
        for _ in range(3):
            arrays = self._arrays()
            assert len(inj.apply(2, arrays)) == 1
        assert inj.pending()

    def test_bitflip_flips_exactly_one_bit(self):
        arrays = self._arrays()
        before = arrays["H"].copy()
        plan = FaultPlan(specs=(FaultSpec(kind="bitflip", array="H", step=1),), seed=5)
        [fault] = FaultInjector(plan).apply(1, arrays)
        changed = np.flatnonzero(arrays["H"].view(np.uint32) != before.view(np.uint32))
        assert list(changed) == [fault.index]
        delta = int(arrays["H"].view(np.uint32)[fault.index] ^ before.view(np.uint32)[fault.index])
        assert delta == (1 << fault.bit)

    def test_injection_through_noncontiguous_view(self):
        # column views of a 2-D tensor (the SELF adapter's arrays) must
        # receive the injection despite not being contiguous
        U = np.ones((8, 5), dtype=np.float64)
        arrays = {"rho": U[:, 0]}
        plan = FaultPlan(specs=(FaultSpec(kind="nan", array="rho", step=1),), seed=2)
        [fault] = FaultInjector(plan).apply(1, arrays)
        assert np.isnan(U[fault.index, 0])

    def test_overflow_is_finite_but_huge(self):
        arrays = self._arrays()
        plan = FaultPlan(specs=(FaultSpec(kind="overflow", array="H", step=1),), seed=3)
        [fault] = FaultInjector(plan).apply(1, arrays)
        v = arrays["H"][fault.index]
        assert np.isfinite(v) and abs(v) > 0.2 * np.finfo(np.float32).max

    def test_resolution_is_deterministic(self):
        plan = FaultPlan(specs=(FaultSpec(kind="bitflip", array="H", step=4),), seed=9)
        a = FaultInjector(plan).apply(4, self._arrays())[0]
        b = FaultInjector(plan).apply(4, self._arrays())[0]
        assert (a.index, a.bit) == (b.index, b.bit)

    def test_unknown_array_raises(self):
        plan = FaultPlan(specs=(FaultSpec(kind="nan", array="Q", step=1),), seed=0)
        with pytest.raises(KeyError):
            FaultInjector(plan).apply(1, self._arrays())

    def test_generate_is_reproducible(self):
        a = FaultPlan.generate(3, arrays=("H", "U"), steps=(1, 20), count=4)
        b = FaultPlan.generate(3, arrays=("H", "U"), steps=(1, 20), count=4)
        assert a == b
        assert all(1 <= s.step <= 20 and s.array in ("H", "U") for s in a.specs)


class TestDetectors:
    def test_non_finite_detects_nan(self):
        det = NonFiniteDetector()
        arrays = {"H": np.array([1.0, np.nan], dtype=np.float32)}
        found = det.check(arrays, step=1, state_dtype=np.float32)
        assert any(d.detector == "non_finite" for d in found)

    def test_non_finite_detects_overflow_headroom(self):
        det = NonFiniteDetector(fail_on_overflow_risk=True)
        arrays = {"H": np.array([0.25 * np.finfo(np.float32).max], dtype=np.float32)}
        assert det.check(arrays, step=1, state_dtype=np.float32)
        relaxed = NonFiniteDetector(fail_on_overflow_risk=False)
        assert not relaxed.check(arrays, step=1, state_dtype=np.float32)

    def test_clean_arrays_pass(self):
        det = NonFiniteDetector()
        arrays = {"H": np.linspace(0.5, 2.0, 64, dtype=np.float32)}
        assert det.check(arrays, step=1, state_dtype=np.float32) == []

    def test_conservation_bound(self):
        det = ConservationDetector(rel_bound=1e-4)
        det.set_reference(100.0)
        assert det.check_total(100.0 + 1e-3, step=2) == []
        assert det.check_total(101.0, step=2)
        assert det.check_total(float("nan"), step=2)

    def test_invariant_bounds(self):
        det = InvariantDetector({"H": (0.0, None)})
        assert det.check({"H": np.array([0.5, 1.0])}, step=1) == []
        found = det.check({"H": np.array([0.5, -2.0])}, step=1)
        assert found and "-2" in found[0].message

    def test_invariant_ignores_nonfinite(self):
        det = InvariantDetector({"H": (0.0, None)})
        assert det.check({"H": np.array([np.nan, np.inf, 1.0])}, step=1) == []


class TestClamrRecovery:
    def _run(self, ladder=("escalate", "escalate"), kind="nan", steps=24,
             policy_kw=None, **spec_kw):
        adapter = ClamrAdapter(JobSpec("clamr", nx=16, max_level=1, policy="min"))
        plan = FaultPlan(
            specs=(FaultSpec(kind=kind, array="H", step=12, **spec_kw),), seed=7
        )
        policy = RecoveryPolicy(ladder=ladder, **(policy_kw or {}))
        runner = ResilientRunner(adapter, plan=plan, policy=policy)
        return runner.run(steps), runner

    def test_nan_recovery_via_escalation(self):
        report, _ = self._run()
        assert report.completed and not report.aborted
        assert len(report.faults) == 1
        assert report.detected
        assert report.rollbacks >= 1 and report.recoveries >= 1
        assert report.initial_policy == "min" and report.final_policy == "mixed"
        assert report.post_recovery_drift < 1e-4

    def test_nan_recovery_via_retry(self):
        # a transient fault needs only a replay: no escalation
        report, _ = self._run(ladder=("retry",))
        assert report.completed and report.escalations == 0
        assert report.final_policy == "min" and report.recoveries >= 1

    def test_sticky_fault_exhausts_ladder_and_aborts(self):
        report, _ = self._run(ladder=("retry", "retry"), sticky=True)
        assert report.aborted and not report.completed
        assert report.rollbacks >= 2
        # the run stopped at the last good checkpoint, not on garbage
        assert report.steps_completed < report.steps_requested

    def test_rollback_budget_aborts(self):
        # ladder long enough that the rollback budget, not ladder
        # exhaustion, is what stops the run
        report, _ = self._run(ladder=("retry",) * 8, sticky=True,
                              policy_kw={"max_rollbacks": 3})
        assert report.aborted and report.rollbacks == 4

    def test_fault_free_run_is_clean(self):
        runner = ResilientRunner(ClamrAdapter(JobSpec("clamr", nx=12, max_level=1,
                                                      policy="full")))
        report = runner.run(10)
        assert report.completed and not report.detections and not report.faults
        assert report.rollbacks == 0 and report.replayed_steps == 0

    def test_fidelity_counters(self):
        report, _ = self._run()
        fid = report.fidelity()
        assert fid["faults_injected"] == 1
        assert fid["recoveries"] >= 1
        assert fid["aborted"] == 0
        assert fid["final_policy"] == "mixed"

    def test_escalation_survives_rollback(self):
        # two consecutive escalations must compound: min -> mixed -> full
        report, _ = self._run(ladder=("escalate", "escalate"), sticky=True,
                              kind="nan")
        assert report.escalations == 2
        assert report.final_policy == "full"


class TestRecoveryDeterminism:
    def _record(self):
        adapter = ClamrAdapter(JobSpec("clamr", nx=16, max_level=1, policy="min", seed=11))
        plan = FaultPlan(specs=(FaultSpec(kind="bitflip", array="H", step=9),), seed=11)
        runner = ResilientRunner(adapter, plan=plan, policy=RecoveryPolicy())
        report = runner.run(20)
        return record_resilient_run(report, runner, label="det")

    def test_same_plan_same_fingerprint(self):
        a, b = self._record(), self._record()
        assert a.fingerprint == b.fingerprint
        assert a.fidelity["conservation_last_hex"] == b.fidelity["conservation_last_hex"]

    def test_plan_enters_run_identity(self):
        spec = JobSpec("clamr", nx=16, max_level=1, policy="min")

        def run(seed):
            adapter = ClamrAdapter(spec)
            plan = FaultPlan(specs=(FaultSpec(kind="bitflip", array="H", step=9),), seed=seed)
            runner = ResilientRunner(adapter, plan=plan)
            report = runner.run(20)
            return record_resilient_run(report, runner)

        assert run(1).workload_key != run(2).workload_key


class TestSelfRecovery:
    def test_nan_recovery_via_escalation(self):
        adapter = SelfAdapter(JobSpec("self", elems=2, order=3, precision="single"))
        plan = FaultPlan(specs=(FaultSpec(kind="nan", array="rho", step=4),), seed=3)
        runner = ResilientRunner(
            adapter, plan=plan,
            policy=RecoveryPolicy(checkpoint_interval=4, ladder=("escalate",)),
        )
        report = runner.run(8)
        assert report.completed and report.recoveries >= 1
        assert report.initial_policy == "single" and report.final_policy == "double"
        assert adapter.sim.U.dtype == np.float64

    def test_make_adapter(self):
        spec = JobSpec("self", elems=2, order=2)
        assert make_adapter(spec.at_level("min")).policy_name == "single"
        assert make_adapter(spec.at_level("full")).policy_name == "double"
        assert isinstance(make_adapter(JobSpec("clamr", nx=8)), ClamrAdapter)
        with pytest.raises(ValueError):
            make_adapter(JobSpec("lulesh"))


class TestProbe:
    def test_probe_never_recovers(self):
        adapter = ClamrAdapter(JobSpec("clamr", nx=12, max_level=1, policy="min"))
        plan = FaultPlan(specs=(FaultSpec(kind="nan", array="H", step=4),), seed=1)
        report = probe(adapter, plan, steps=8)
        assert report.steps_completed == 8
        assert report.detected and report.rollbacks == 0


class TestCampaign:
    def test_cell_is_deterministic(self):
        from dataclasses import replace

        cfg = CampaignConfig(JobSpec("clamr", steps=10, nx=12))
        a, _, _ = run_cell(cfg, "H", "nan", "min")
        b, _, _ = run_cell(cfg, "H", "nan", "min")
        assert replace(a, wall_s=0.0) == replace(b, wall_s=0.0)

    def test_small_sweep_and_table(self, tmp_path):
        from repro.ledger import Ledger

        cfg = CampaignConfig(
            JobSpec("clamr", steps=10, nx=12), arrays=("H",), kinds=("nan",),
            levels=("min", "full"),
        )
        ledger = Ledger(tmp_path / "camp.jsonl")
        result = run_campaign(cfg, ledger=ledger)
        assert len(result.cells) == 2
        assert all(c.detected and c.completed for c in result.cells)
        rendered = vulnerability_table(result).render()
        assert "Vulnerability report" in rendered and "min" in rendered
        assert len(ledger) == 2
        for rec in ledger.records():
            assert rec.fidelity["faults_injected"] == 1
            assert "resilience" in rec.config
