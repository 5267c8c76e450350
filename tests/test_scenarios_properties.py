"""Property-based validation of the scenario library.

Every registered scenario — present and future — is pulled through the
same property gauntlet by parameterizing over the registry itself:
initial conditions must be finite and physical, declared symmetries
must hold, the step-0 conservation budget must be honest, and the
precision ladder must place state dtypes monotonically (min ⊑ mixed ⊑
full).  The lake-at-rest case gets the strictest treatment: the
well-balanced bathymetry source term must preserve the rest state to
the *bit*, across both flux schemes and every precision policy.
"""

from dataclasses import replace

import numpy as np
import pytest

from repro.scenarios import (
    Scenario,
    all_scenarios,
    get_scenario,
    register_scenario,
    scenario_names,
    scenario_spec,
    validate_scenario,
)
from repro.scenarios.checks import mirror_asymmetry, rot90_asymmetry, ulp_distance

CLAMR_POLICIES = ("min", "mixed", "full")


def _names(family=None):
    names = scenario_names()
    if family:
        names = [n for n in names if n.startswith(family + "/")]
    return names


class TestRegistry:
    def test_minimum_library_size(self):
        assert len(_names("clamr")) >= 5
        assert len(_names("self")) >= 3
        assert len(scenario_names()) >= 8

    def test_names_are_family_prefixed_and_sorted(self):
        names = scenario_names()
        assert all(n.split("/")[0] in ("clamr", "self") for n in names)
        clamr = [n for n in names if n.startswith("clamr/")]
        assert names[: len(clamr)] == sorted(clamr), "clamr scenarios lead"

    def test_unknown_scenario_is_a_value_error(self):
        with pytest.raises(ValueError, match="unknown scenario"):
            get_scenario("clamr/no-such-case")

    def test_duplicate_registration_rejected(self):
        existing = get_scenario("clamr/dam-break")
        with pytest.raises(ValueError, match="already registered"):
            register_scenario(existing)

    def test_unpicklable_hook_rejected(self):
        sc = Scenario(
            name="clamr/bad-hook",
            family="clamr",
            description="lambda hooks cannot cross process boundaries",
            ic=lambda cfg, x, y: None,
            scales={"quick": {"nx": 8, "steps": 4}, "bench": {"nx": 8, "steps": 4}},
        )
        with pytest.raises(ValueError, match="picklable"):
            register_scenario(sc)

    @pytest.mark.parametrize("name", scenario_names())
    def test_both_scales_resolve(self, name):
        sc = get_scenario(name)
        for scale in ("quick", "bench"):
            size = sc.scale(scale)
            assert size["steps"] >= 1
        with pytest.raises(ValueError, match="no scale"):
            sc.scale("huge")


class TestInitialConditions:
    @pytest.mark.parametrize("name", _names("clamr"))
    def test_clamr_ic_finite_and_positive(self, name):
        sim = scenario_spec(name, scale="quick").simulation()
        s = sim.state
        for arr in (s.H, s.U, s.V):
            assert np.isfinite(np.asarray(arr, dtype=np.float64)).all()
        assert (np.asarray(s.H, dtype=np.float64) > 0).all(), "dry cells in IC"

    @pytest.mark.parametrize("name", _names("self"))
    def test_self_ic_finite_and_physical(self, name):
        sim = scenario_spec(name, scale="quick").simulation()
        U = np.asarray(sim.U, dtype=np.float64)
        assert np.isfinite(U).all()
        assert (U[:, 0] > 0).all(), "non-positive density in IC"
        assert (U[:, 4] > 0).all(), "non-positive total energy in IC"

    @pytest.mark.parametrize("name", _names("clamr"))
    def test_clamr_ic_starts_at_rest(self, name):
        # every registered clamr case releases from rest: momenta exactly 0
        sim = scenario_spec(name, scale="quick").simulation()
        assert not np.asarray(sim.state.U, dtype=np.float64).any()
        assert not np.asarray(sim.state.V, dtype=np.float64).any()

    @pytest.mark.parametrize(
        "name", [n for n in _names("clamr") if get_scenario(n).symmetry]
    )
    def test_declared_symmetry_holds_in_the_ic(self, name):
        sim = scenario_spec(name, scale="quick").simulation()
        field = sim.mesh.sample_to_uniform(
            np.asarray(sim.state.H, dtype=np.float64)
        )
        # the uniform sample indexes [row, col] with y on axis 0
        sym = get_scenario(name).symmetry
        if sym == "rot90":
            asym = rot90_asymmetry(field)
        elif sym == "mirror-y":
            asym = mirror_asymmetry(field, axis=0)
        else:  # pragma: no cover - future symmetries
            pytest.fail(f"unknown declared symmetry {sym!r}")
        assert asym == 0.0, f"{name} IC breaks its declared {sym} symmetry"


class TestConservationBudget:
    @pytest.mark.parametrize("name", _names("clamr"))
    def test_step0_total_mass_is_finite_positive(self, name):
        sim = scenario_spec(name, scale="quick").simulation()
        mass = sim.state.total_mass(sim.mesh.cell_area())
        assert np.isfinite(mass) and mass > 0

    @pytest.mark.parametrize("name", scenario_names())
    def test_acceptance_contract_passes_at_quick_scale(self, name):
        _run, checks = validate_scenario(name, scale="quick")
        assert checks, f"{name} registered no acceptance checks"
        failed = [c for c in checks if not c.passed]
        assert not failed, "\n".join(str(c) for c in failed)


class TestPrecisionPlacement:
    @pytest.mark.parametrize("name", _names("clamr"))
    def test_state_dtype_monotone_min_mixed_full(self, name):
        sizes = []
        for policy in CLAMR_POLICIES:
            sim = scenario_spec(name, scale="quick", policy=policy).simulation()
            sizes.append(sim.state.state_dtype.itemsize)
        assert sizes == sorted(sizes), (
            f"{name}: state dtypes not monotone over {CLAMR_POLICIES}: {sizes}"
        )
        assert sizes[0] < sizes[-1], "min and full collapse to one dtype"


class TestLakeAtRestWellBalance:
    """The tentpole claim: variable bathymetry preserves the rest state
    to the bit — zero ULPs of drift in H, U, V — at every precision."""

    @pytest.mark.parametrize("policy", ("half", "min", "mixed", "full"))
    @pytest.mark.parametrize("scheme", ("rusanov", "muscl"))
    def test_bitwise_preservation(self, policy, scheme):
        # a scenario never picks the flux scheme; the caller's JobSpec does
        spec = replace(scenario_spec("clamr/lake-at-rest", scale="quick", policy=policy),
                       scheme=scheme)
        sim = spec.simulation()
        h0 = np.array(sim.state.H, copy=True)
        sim.run(spec.steps)
        assert ulp_distance(sim.state.H, h0).max() == 0.0
        assert not np.asarray(sim.state.U).any()
        assert not np.asarray(sim.state.V).any()

    def test_scalar_kernel_also_well_balanced(self):
        spec = scenario_spec("clamr/lake-at-rest", scale="quick", policy="mixed")
        sim = spec.simulation(vectorized=False)
        h0 = np.array(sim.state.H, copy=True)
        sim.run(spec.steps)
        assert ulp_distance(sim.state.H, h0).max() == 0.0

    def test_flat_bottom_runs_bit_unchanged_by_the_bathy_code(self):
        # bathymetry=None must leave the seed dam break untouched: the
        # source-term path only activates when a bottom is supplied
        from repro.clamr import ClamrSimulation, DamBreakConfig

        cfg = DamBreakConfig(nx=12, ny=12, max_level=1)
        a = ClamrSimulation(cfg, policy="mixed")
        b = ClamrSimulation(cfg, policy="mixed", bathymetry=None)
        a.run(8)
        b.run(8)
        assert np.array_equal(a.state.H, b.state.H)
        assert np.array_equal(a.state.U, b.state.U)
