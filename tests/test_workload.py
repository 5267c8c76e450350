"""One recipe: every door builds its config, simulation and label alike.

:class:`repro.service.JobSpec` is the only code that turns a run request
into a run.  These tests pin the two promises that makes:

* a scenario of the wrong mini-app is refused by every door with the
  same one-line :class:`ValueError`;
* every door that runs a registered CLAMR scenario hands the simulation
  the same config and the same hook objects, and every door labels a
  run the same way.
"""

import pytest

import repro.clamr
from repro.clamr import DamBreakConfig
from repro.scenarios import all_scenarios, scenario_spec
from repro.service import JobSpec
from repro.workload import run_label, self_precision

MISMATCH = "belongs to workload"


def _harness(workload, scenario):
    from repro.harness.experiments import run_clamr_levels, run_self_precisions

    if workload == "clamr":
        return run_clamr_levels(nx=8, steps=1, max_level=1, scenario=scenario)
    return run_self_precisions(elems=2, order=2, steps=1, scenario=scenario)


def _spec(workload, scenario):
    return JobSpec(workload, steps=1, nx=8, elems=2, order=2, scenario=scenario)


def _diverge(workload, scenario):
    from repro.diverge import record_run

    return record_run(None, _spec(workload, scenario))


def _campaign(workload, scenario):
    from repro.resilience import CampaignConfig
    from repro.resilience.campaign import run_cell

    config = CampaignConfig(_spec(workload, scenario))
    return run_cell(config, "H" if workload == "clamr" else "rho", "bitflip", "min")


def _adapter(workload, scenario):
    from repro.resilience import make_adapter

    return make_adapter(_spec(workload, scenario))


_OTHER = {"clamr": "self/thermal-bubble", "self": "clamr/dam-break"}


class TestFamilyMismatch:
    @pytest.mark.parametrize("workload", ("clamr", "self"))
    @pytest.mark.parametrize("door", (_harness, _diverge, _campaign, _adapter),
                             ids=("harness", "diverge", "campaign", "adapter"))
    def test_every_door_raises_the_one_error(self, door, workload):
        other = _OTHER[workload]
        family = other.split("/")[0]
        expected = f"scenario {other!r} belongs to workload {family!r}, not {workload!r}"
        with pytest.raises(ValueError) as info:
            door(workload, other)
        assert str(info.value) == expected

    def test_cli_exits_2_with_one_line(self, tmp_path, capsys):
        from repro.cli import main

        code = main(["diverge", "record", str(tmp_path / "run"), "--workload", "clamr",
                     "--scenario", "self/thermal-bubble"])
        assert code == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert err.startswith("repro: error: ") and MISMATCH in err


class TestOneRecipe:
    @pytest.fixture
    def built(self, monkeypatch):
        """Every ClamrSimulation the doors construct, in order."""
        sims = []

        class Spy(repro.clamr.ClamrSimulation):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                sims.append(self)

        monkeypatch.setattr(repro.clamr, "ClamrSimulation", Spy)
        return sims

    @staticmethod
    def _recipe(sim):
        return sim.config, sim._ic, sim._bathymetry, sim.scheme

    @pytest.mark.parametrize(
        "scenario", [sc for sc in all_scenarios() if sc.family == "clamr"],
        ids=lambda sc: sc.name,
    )
    def test_doors_build_the_same_simulation(self, scenario, built):
        from repro.diverge import record_run
        from repro.harness.experiments import run_clamr_levels
        from repro.resilience import CampaignConfig
        from repro.resilience.campaign import run_cell

        name = scenario.name
        nx = scenario.scale("quick")["nx"]
        max_level = DamBreakConfig().max_level
        scenario_spec(name, scale="quick").simulation()
        reference = self._recipe(built[-1])
        assert reference[1] is scenario.ic and reference[2] is scenario.bathymetry

        doors = {
            "harness": lambda: run_clamr_levels(
                nx=nx, steps=1, max_level=max_level, scenario=name
            ),
            "adapter": lambda: run_cell(
                CampaignConfig(JobSpec("clamr", scenario=name, steps=1, nx=nx,
                                       max_level=max_level), levels=("mixed",)),
                "H", "bitflip", "mixed",
            ),
            "diverge": lambda: record_run(
                None, JobSpec("clamr", steps=1, nx=nx, max_level=max_level, scenario=name)
            ),
            "jobspec": lambda: JobSpec(
                "clamr", steps=1, nx=nx, max_level=max_level, scenario=name
            ).simulation(),
        }
        for door, run in doors.items():
            before = len(built)
            run()
            assert len(built) > before, door
            got = self._recipe(built[before])
            assert got[0] == reference[0], door
            assert got[1] is reference[1] and got[2] is reference[2], door
            assert got[3] == reference[3] == "rusanov", door

    def test_config_overlays_the_scenario_last(self):
        cfg = JobSpec("clamr", nx=12, max_level=2, scenario="clamr/lake-at-rest").config()
        assert (cfg.nx, cfg.ny, cfg.max_level, cfg.start_refined) == (12, 12, 0, False)

    def test_self_precision_map(self):
        assert [self_precision(p) for p in ("half", "min", "mixed", "full")] == [
            "single", "single", "single", "double"
        ]
        assert self_precision("single") == "single"
        assert self_precision("double") == "double"


class TestOneLabel:
    def test_cli_muscl_record_label_matches_job_spec(self, tmp_path, capsys):
        from repro.cli import main
        from repro.ledger import Ledger
        from repro.service.jobs import JobSpec

        ledger = tmp_path / "runs.jsonl"
        argv = ["clamr", "--nx", "8", "--steps", "3", "--max-level", "1",
                "--policy", "min", "--scheme", "muscl", "--ledger", str(ledger)]
        assert main(argv) == 0
        capsys.readouterr()
        [record] = Ledger(ledger).records()
        spec = JobSpec(workload="clamr", nx=8, steps=3, max_level=1, policy="min",
                       scheme="muscl")
        assert record.label == spec.describe() == "clamr/nx8s3/min/muscl"

    def test_scenario_replaces_the_workload_prefix(self):
        assert run_label("self", steps=8, policy="single", elems=2, order=3,
                         scenario="self/density-current") == (
            "self/density-current/e2o3s8/single"
        )


class _Stop(Exception):
    """Raised by the stand-in simulation: the test needs only the configs."""


class TestHarnessConfigs:
    """The harness table, figure and sweep functions build their CLAMR
    runs from a JobSpec, with the literal configs they built before."""

    @pytest.fixture
    def configs(self, monkeypatch):
        built = []

        def stop(spec, *args, config=None, **kwargs):
            built.append(spec.config() if config is None else config)
            raise _Stop

        monkeypatch.setattr(JobSpec, "simulation", stop)
        return built

    @pytest.mark.parametrize(
        "site, expected",
        [
            ("table3", [DamBreakConfig(nx=12, ny=12, max_level=1)]),
            ("fig3", [DamBreakConfig(nx=8, ny=8, max_level=1)]),
            ("chunks", [DamBreakConfig(nx=10, ny=10, max_level=2)]),
            ("resolution", [DamBreakConfig(nx=12, ny=12, max_level=1)]),
            ("compare", [DamBreakConfig(nx=10, ny=10, max_level=2)]),
        ],
    )
    def test_configs_equal_the_literal_ones(self, site, expected, configs):
        from repro.cli import main
        from repro.harness import experiments, sweeps

        calls = {
            "table3": lambda: experiments.table3_vectorization(nx=12),
            "fig3": lambda: experiments.fig3_precision_resolution(nx_lo=8),
            "chunks": lambda: next(sweeps._run_in_chunks(10, 4, 2)),
            "resolution": lambda: sweeps.resolution_sweep(sizes=(12,), max_level=1),
            "compare": lambda: main(["compare", "--nx", "10"]),
        }
        with pytest.raises(_Stop):
            calls[site]()
        assert configs == expected

    def test_fig3_fine_run_doubles_the_grid(self, monkeypatch):
        from repro.harness import experiments

        built = []
        real = JobSpec.simulation

        def spy(spec, *args, **kwargs):
            built.append((spec.policy, spec.config()))
            return real(spec, *args, **kwargs)

        monkeypatch.setattr(JobSpec, "simulation", spy)
        experiments.fig3_precision_resolution(nx_lo=8, steps_hint=2)
        assert built == [("full", DamBreakConfig(nx=8, ny=8, max_level=1)),
                         ("min", DamBreakConfig(nx=16, ny=16, max_level=1))]
