"""Integration tests for the CLAMR dam-break simulation."""

from dataclasses import replace

import numpy as np
import pytest

from repro.clamr import ClamrSimulation, DamBreakConfig
from repro.precision.analysis import asymmetry_signature, difference_metrics
from repro.scenarios.registry import scenario_names
from repro.service import JobSpec

SMALL = DamBreakConfig(nx=16, ny=16, max_level=1)


class TestBasicRun:
    def test_runs_and_reports(self):
        sim = ClamrSimulation(SMALL, policy="full")
        res = sim.run(30)
        assert res.steps == 30
        assert res.final_time > 0
        assert res.field.shape == (32, 32)
        assert res.slice_y.shape == (32,)
        assert res.slice_precise.dtype == np.float64
        assert res.profile.flops > 0
        assert res.checkpoint_bytes > 0

    def test_stability(self):
        sim = ClamrSimulation(SMALL, policy="full")
        sim.run(200)
        H = sim.state.H
        assert np.isfinite(H).all()
        assert H.min() > 0.2 and H.max() < 2.5

    def test_mass_conserved_full_precision(self):
        res = ClamrSimulation(SMALL, policy="full").run(100)
        assert res.mass_drift < 1e-13

    def test_mass_drift_small_at_min_precision(self):
        res = ClamrSimulation(SMALL, policy="min").run(100)
        assert res.mass_drift < 1e-5  # float32 storage rounding only

    def test_amr_activity(self):
        sim = ClamrSimulation(DamBreakConfig(nx=16, ny=16, max_level=2), policy="full")
        res = sim.run(60)
        assert max(res.ncells_history) > 16 * 16  # refinement happened
        assert sim.mesh.check_balance()

    def test_invalid_steps(self):
        with pytest.raises(ValueError):
            ClamrSimulation(SMALL).run(0)

    def test_no_amr_mode(self):
        cfg = DamBreakConfig(nx=16, ny=16, max_level=0, start_refined=False)
        sim = ClamrSimulation(cfg, policy="full")
        res = sim.run(20)
        assert sim.mesh.ncells == 256
        assert len(set(res.ncells_history)) == 1


class TestPrecisionLevels:
    @pytest.fixture(scope="class")
    def runs(self):
        cfg = DamBreakConfig(nx=32, ny=32, max_level=2)
        return {
            level: ClamrSimulation(cfg, policy=level).run(150)
            for level in ("min", "mixed", "full")
        }

    def test_meshes_identical_across_precisions(self, runs):
        counts = {lvl: r.ncells_history[-1] for lvl, r in runs.items()}
        assert len(set(counts.values())) == 1

    def test_solutions_close_across_precisions(self, runs):
        d = difference_metrics(runs["full"].slice_precise, runs["min"].slice_precise)
        assert d.within(4.0)  # paper: 5-6 orders at 1000 steps; short run is cleaner

    def test_state_dtypes(self, runs):
        assert runs["min"].policy.state_dtype == np.float32
        assert runs["full"].policy.state_dtype == np.float64

    def test_checkpoint_ratio(self, runs):
        assert runs["min"].checkpoint_bytes / runs["full"].checkpoint_bytes == pytest.approx(
            2 / 3, abs=0.01
        )

    def test_memory_ratio(self, runs):
        assert runs["min"].state_nbytes * 2 == runs["full"].state_nbytes

    def test_full_precision_asymmetry_at_rounding_floor(self, runs):
        sig = asymmetry_signature(runs["full"].slice_precise)
        assert sig.relative_max < 1e-10

    def test_reduced_precision_asymmetry_amplified(self, runs):
        sig_min = asymmetry_signature(runs["min"].slice_precise)
        sig_full = asymmetry_signature(runs["full"].slice_precise)
        assert sig_min.max_abs >= sig_full.max_abs
        # but still bounded well below the solution (paper: factor 1e-6)
        assert sig_min.relative_max < 1e-4


class TestRunToTime:
    def test_reaches_target(self):
        sim = ClamrSimulation(SMALL, policy="full")
        first = sim.run(10)
        target = first.final_time * 3
        sim.run_to_time(target)
        assert sim.time >= target

    def test_rejects_past_target(self):
        sim = ClamrSimulation(SMALL, policy="full")
        sim.run(5)
        with pytest.raises(ValueError):
            sim.run_to_time(sim.time / 2)


class TestDeterminism:
    def test_identical_runs_bitwise(self):
        a = ClamrSimulation(SMALL, policy="min").run(50)
        b = ClamrSimulation(SMALL, policy="min").run(50)
        np.testing.assert_array_equal(a.field, b.field)
        assert a.mass_history == b.mass_history


class TestConfigValidation:
    def test_tiny_grid_rejected(self):
        with pytest.raises(ValueError):
            DamBreakConfig(nx=2, ny=2)

    def test_column_must_be_above_base(self):
        with pytest.raises(ValueError):
            DamBreakConfig(column_height=0.5, base_height=1.0)

    def test_radius_fraction_range(self):
        with pytest.raises(ValueError):
            DamBreakConfig(column_radius_fraction=0.7)

    def test_regrid_interval_positive(self):
        with pytest.raises(ValueError):
            DamBreakConfig(regrid_interval=0)

    # each of these used to construct, then run to a non-finite state,
    # with AMR silently off, or fail only later with another message
    @pytest.mark.parametrize(
        "field, value",
        [
            ("base_height", -1.0),
            ("base_height", 0.0),
            ("base_height", float("nan")),
            ("column_height", float("nan")),
            ("column_height", float("inf")),
            ("domain_size", float("nan")),
            ("domain_size", float("inf")),
            ("domain_size", 0.0),
            ("domain_size", -1.0),
            ("refine_threshold", float("nan")),
            ("refine_threshold", 0.004),
            ("refine_threshold", 0.001),
            ("coarsen_threshold", float("nan")),
            ("coarsen_threshold", -1.0),
            ("coarsen_threshold", 0.0),
            ("courant", 0.0),
            ("courant", 1.0),
            ("courant", 1.5),
            ("courant", float("nan")),
        ],
    )
    def test_non_finite_or_out_of_range_fields(self, field, value):
        with pytest.raises(ValueError, match=rf"^{field} must .*{value}$"):
            DamBreakConfig(**{field: value})

    def test_initial_depth_underflow_rejected(self):
        # 1e-8 is below float16's smallest subnormal: the quiescent depth
        # would store as 0 and the first step would divide by it
        cfg = JobSpec("clamr", nx=32, max_level=1).config(base_height=1e-8)
        with pytest.raises(ValueError) as err:
            ClamrSimulation(cfg, policy="half")
        message = str(err.value)
        assert "\n" not in message
        assert "float16" in message and "1024 cells" in message and "1e-08" in message
        ClamrSimulation(cfg, policy="min")  # float32 holds it

    @pytest.mark.parametrize("policy", ["half", "min", "mixed", "full"])
    @pytest.mark.parametrize("name", [n for n in scenario_names() if n.startswith("clamr/")])
    def test_every_scenario_constructs_at_every_policy(self, name, policy):
        from repro.scenarios import scenario_spec

        sim = scenario_spec(name, scale="quick", policy=policy).simulation()
        assert (sim.state.H >= 0).all()

    @pytest.mark.parametrize("name", [n for n in scenario_names() if n.startswith("clamr/")])
    def test_scenarios_and_resilience_halving_construct(self, name):
        cfg = JobSpec("clamr", scenario=name).config()
        assert replace(cfg, courant=cfg.courant * 0.5).courant == cfg.courant * 0.5
