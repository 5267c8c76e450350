"""Integration tests for the SELF thermal-bubble simulation."""

import numpy as np
import pytest

from repro.precision.analysis import asymmetry_signature, difference_metrics
from repro.self_ import SelfSimulation, ThermalBubbleConfig
from repro.self_.simulation import parse_precision

SMALL = ThermalBubbleConfig(nex=3, ney=3, nez=3, order=3)


class TestParsePrecision:
    def test_paper_vocabulary(self):
        assert parse_precision("single") == np.float32
        assert parse_precision("double") == np.float64
        assert parse_precision("SP") == np.float32

    def test_dtype_passthrough(self):
        assert parse_precision(np.dtype(np.float64)) == np.float64

    def test_invalid(self):
        with pytest.raises(ValueError):
            parse_precision("quad")
        with pytest.raises(ValueError):
            parse_precision(np.dtype(np.int32))


class TestBasicRun:
    def test_runs_and_reports(self):
        res = SelfSimulation(SMALL, precision="double").run(10)
        assert res.steps == 10
        assert res.final_time > 0
        assert res.anomaly_slice.ndim == 1
        assert res.slice_precise.dtype == np.float64
        assert res.profile.flops > 0
        assert res.profile.dense_compute

    def test_bubble_rises(self):
        sim = SelfSimulation(SMALL, precision="double")
        res = sim.run(60)
        assert res.max_vertical_velocity > 0.0
        # net upward momentum in the bubble region
        w = sim.U[:, 3] / sim.U[:, 0]
        assert w.max() > abs(w.min()) * 0.5

    def test_stability(self):
        sim = SelfSimulation(SMALL, precision="double")
        sim.run(150)
        assert np.isfinite(sim.U).all()
        rho = sim.U[:, 0]
        assert rho.min() > 0.5 and rho.max() < 2.0

    def test_anomaly_scale_matches_bubble(self):
        res = SelfSimulation(SMALL, precision="double").run(20)
        # 0.5 K on 300 K at rho~1.1: anomaly ~ 0.5/300*1.1 ~ 1.8e-3
        assert 1e-4 < res.anomaly_scale < 1e-2

    def test_single_precision_state(self):
        sim = SelfSimulation(SMALL, precision="single")
        assert sim.U.dtype == np.float32
        res = sim.run(5)
        assert res.precision == "single"
        assert res.state_nbytes == sim.U.nbytes

    def test_memory_halves_at_single(self):
        a = SelfSimulation(SMALL, precision="single")
        b = SelfSimulation(SMALL, precision="double")
        assert 2 * a.U.nbytes == b.U.nbytes

    def test_invalid_steps(self):
        with pytest.raises(ValueError):
            SelfSimulation(SMALL).run(0)


class TestPrecisionComparison:
    @pytest.fixture(scope="class")
    def runs(self):
        cfg = ThermalBubbleConfig(nex=4, ney=4, nez=4, order=3)
        return {
            prec: SelfSimulation(cfg, precision=prec).run(80)
            for prec in ("single", "double")
        }

    def test_solutions_close(self, runs):
        d = difference_metrics(runs["double"].slice_precise, runs["single"].slice_precise)
        assert d.within(1.5)  # paper Fig 4: ~2 orders below the anomaly

    def test_double_asymmetry_near_zero(self, runs):
        sig = asymmetry_signature(runs["double"].slice_precise)
        assert sig.relative_max < 1e-9

    def test_single_asymmetry_larger(self, runs):
        sig_s = asymmetry_signature(runs["single"].slice_precise)
        sig_d = asymmetry_signature(runs["double"].slice_precise)
        assert sig_s.max_abs >= sig_d.max_abs

    def test_profiles_scale_with_itemsize(self, runs):
        ps, pd = runs["single"].profile, runs["double"].profile
        assert ps.state_itemsize == 4 and pd.state_itemsize == 8
        assert pd.state_bytes == 2 * ps.state_bytes
        assert ps.flops == pd.flops


class TestConfigValidation:
    def test_minimum_elements(self):
        with pytest.raises(ValueError):
            ThermalBubbleConfig(nex=1, ney=2, nez=2)

    def test_minimum_order(self):
        with pytest.raises(ValueError):
            ThermalBubbleConfig(order=1)

    def test_bubble_params(self):
        with pytest.raises(ValueError):
            ThermalBubbleConfig(bubble_amplitude=0.0)
        with pytest.raises(ValueError):
            ThermalBubbleConfig(bubble_radius=-1.0)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("theta0", float("nan")),
            ("theta0", -300.0),
            ("bubble_amplitude", float("nan")),
            ("bubble_radius", float("inf")),
            ("bubble_center", (float("nan"), 0.0, 0.0)),
            ("lengths", (1000.0, float("nan"), 1000.0)),
            ("lengths", (1000.0, 1000.0, float("inf"))),
            ("filter_strength", float("nan")),
            ("filter_strength", 0.0),
            ("courant", float("nan")),
            ("courant", 0.0),
            ("courant", 2.0),
        ],
    )
    def test_non_finite_or_out_of_range_fields(self, field, value):
        """Rejected at construction, not as a NaN state (or a first-step error) later."""
        with pytest.raises(ValueError, match=field):
            ThermalBubbleConfig(**{field: value})

    def test_too_tall_domain_rejected(self):
        cfg = ThermalBubbleConfig(lengths=(1000.0, 1000.0, 40000.0))
        with pytest.raises(ValueError, match="Exner"):
            SelfSimulation(cfg)


class TestDeterminism:
    def test_identical_runs_bitwise(self):
        a = SelfSimulation(SMALL, precision="single").run(20)
        b = SelfSimulation(SMALL, precision="single").run(20)
        np.testing.assert_array_equal(a.anomaly_field, b.anomaly_field)
