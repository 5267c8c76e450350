"""Execution-strategy parity for every registered scenario.

The reproducibility contract extends to scenarios: running a scenario
under worker processes (``jobs=2``) or under the CSR scatter plan must
produce *bit-identical* state to the serial / ``np.add.at`` reference.
These are the same guarantees the seed workloads already make
(test_harness_sweeps, test_clamr_scatter), re-asserted over the
registry so a new scenario cannot silently opt out of them.
"""

import numpy as np
import pytest

from repro.clamr.kernels import scatter_mode
from repro.harness.experiments import run_clamr_levels, run_self_precisions
from repro.scenarios import scenario_names, scenario_spec

CLAMR_SCENARIOS = [n for n in scenario_names() if n.startswith("clamr/")]
SELF_SCENARIOS = [n for n in scenario_names() if n.startswith("self/")]

NX, STEPS = 12, 8
ELEMS, ORDER, SST = 2, 2, 4


class TestProcessParallelParity:
    @pytest.mark.parametrize("name", CLAMR_SCENARIOS)
    def test_clamr_scenario_jobs2_bit_identical(self, name):
        serial = run_clamr_levels(nx=NX, steps=STEPS, scenario=name)
        parallel = run_clamr_levels(nx=NX, steps=STEPS, scenario=name, jobs=2)
        assert serial.keys() == parallel.keys()
        for level in serial:
            a, b = serial[level], parallel[level]
            assert np.array_equal(a.slice_precise, b.slice_precise), level
            assert a.mass_history == b.mass_history, level
            assert np.array_equal(a.field, b.field), level

    @pytest.mark.parametrize("name", SELF_SCENARIOS)
    def test_self_scenario_jobs2_bit_identical(self, name):
        serial = run_self_precisions(
            elems=ELEMS, order=ORDER, steps=SST, scenario=name
        )
        parallel = run_self_precisions(
            elems=ELEMS, order=ORDER, steps=SST, scenario=name, jobs=2
        )
        assert serial.keys() == parallel.keys()
        for prec in serial:
            a, b = serial[prec], parallel[prec]
            assert np.array_equal(a.slice_precise, b.slice_precise), prec
            assert np.array_equal(a.anomaly_field, b.anomaly_field), prec


class TestScatterModeParity:
    @pytest.mark.parametrize("name", CLAMR_SCENARIOS)
    @pytest.mark.parametrize("policy", ["min", "full"])
    def test_plan_vs_add_at_bit_identical(self, name, policy):
        states = {}
        for mode in ("plan", "add_at"):
            with scatter_mode(mode):
                sim = scenario_spec(name, scale="quick", policy=policy).simulation()
                sim.run(STEPS)
            states[mode] = (
                sim.state.H.copy(), sim.state.U.copy(), sim.state.V.copy()
            )
        for a, b in zip(states["plan"], states["add_at"]):
            assert a.dtype == b.dtype
            assert np.array_equal(a, b), f"{name}/{policy}: state bits diverged"
