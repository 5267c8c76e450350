"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main
from repro.workload import CLAMR_POLICIES

_CLAMR = dict(nx=16, max_level=1, policy="min", scheme="rusanov")
_SELF = dict(elems=3, order=3, precision="double")

#: each run command's bare defaults, as the parser has always given them
BARE_DEFAULTS = {
    "clamr": (["clamr"], dict(workload="clamr", steps=200, nx=32, max_level=2, policy="full",
                              scheme="rusanov", watch_stride=8)),
    "self": (["self"], dict(workload="self", steps=100, elems=4, order=4, precision="double",
                            watch_stride=8, viscosity=0.0)),
    "trace": (["trace", "clamr"], dict(steps=100, nx=64, max_level=2, policy="full",
                                       scheme="rusanov", **_SELF, watch_stride=4,
                                       strict=False, strict_headroom_bits=2.0)),
    "resilience inject": (["resilience", "inject", "clamr"],
                          dict(steps=24, **_CLAMR, elems=2, order=3, seed=0, scenario="")),
    "resilience run": (["resilience", "run", "clamr"],
                       dict(steps=24, **_CLAMR, elems=2, order=3, seed=0, scenario="",
                            label="")),
    "resilience campaign": (["resilience", "campaign", "clamr"],
                            dict(steps=24, nx=16, max_level=1, scheme="rusanov", elems=2,
                                 order=3, seed=0, scenario="")),
    "diverge record": (["diverge", "record", "d"],
                       dict(workload="clamr", steps=24, nx=16, max_level=1, policy="mixed",
                            scheme="rusanov", **_SELF, scalar=False, seed=0, label="",
                            scenario="")),
    "diverge report": (["diverge", "report"],
                       dict(workload="clamr", steps=24, nx=16, max_level=1, scheme="rusanov",
                            elems=3, order=3)),
    "compare": (["compare"], dict(nx=48, steps=300, levels="min,full")),
    "ledger record": (["ledger", "record", "clamr", "--ledger", "r"],
                      dict(steps=40, seed=0, watch_stride=4, nx=24, max_level=1,
                           policy="mixed", scheme="rusanov", **_SELF, runs=1)),
    "submit": (["submit", "self", "--queue", "q"],
               dict(steps=40, seed=0, watch_stride=4, label="", nx=24, max_level=1,
                    policy="mixed", scheme="rusanov", **_SELF, repeat=1)),
}


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    @pytest.mark.parametrize("command", BARE_DEFAULTS)
    def test_bare_defaults(self, command):
        # every run flag is declared once, from JobSpec's fields; each
        # command keeps its own defaults
        argv, expected = BARE_DEFAULTS[command]
        args = vars(build_parser().parse_args(argv))
        assert {name: args[name] for name in expected} == expected

    @pytest.mark.parametrize("command", BARE_DEFAULTS)
    def test_steps_zero_one_rule(self, command, tmp_path, monkeypatch, capsys):
        # JobSpec's rule and message at every door, before anything is
        # printed or written; `diverge report` used to print "no steps
        # measured" and exit 0, `resilience campaign` its header first
        monkeypatch.chdir(tmp_path)
        assert main(BARE_DEFAULTS[command][0] + ["--steps", "0"]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "repro: error: steps must be a positive integer, got 0\n"
        assert list(tmp_path.iterdir()) == []

    def test_invalid_policy_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["clamr", "--policy", "quad"])

    def test_table_number_range(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["table", "8"])
        assert build_parser().parse_args(["table", "7"]).number == 7

    def test_figure_number_range(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["figure", "6"])

    def test_trace_strict_headroom_flag(self):
        args = build_parser().parse_args(
            ["trace", "clamr", "--strict", "--strict-headroom-bits", "8"]
        )
        assert args.strict and args.strict_headroom_bits == 8.0

    def test_ledger_record_defaults(self):
        args = build_parser().parse_args(
            ["ledger", "record", "clamr", "--ledger", "runs"]
        )
        assert args.runs == 1 and args.nx == 24 and args.steps == 40
        assert args.policy == "mixed" and args.seed == 0

    @pytest.mark.parametrize("argv", [
        ["ledger", "record", "clamr", "--ledger", "runs"],
        ["submit", "clamr", "--queue", "q"],
    ])
    def test_job_flags_default_to_jobspec(self, argv):
        # ledger record and submit share one argument group read from
        # JobSpec's fields, so bare flags parse to JobSpec's defaults
        from repro.cli import _job_spec_from_args
        from repro.service import JobSpec

        spec = _job_spec_from_args(build_parser().parse_args(argv))
        assert spec == JobSpec("clamr")

    def test_job_flag_spellings(self):
        parse = build_parser().parse_args
        assert parse(["ledger", "record", "self", "--ledger", "r",
                      "--stride", "2"]).watch_stride == 2
        assert parse(["submit", "self", "--queue", "q",
                      "--watch-stride", "2"]).watch_stride == 2

    def test_record_watch_stride_is_named_once(self, monkeypatch):
        # the CLI's clamr/self records, the harness sweeps and the scenario
        # runner all read repro.workload.RECORD_WATCH_STRIDE, which is
        # also TelemetrySpec's default; JobSpec's own default stays 4
        import repro.workload
        from repro.harness import experiments
        from repro.scenarios.runner import scenario_spec
        from repro.service import JobSpec
        from repro.telemetry import TelemetrySpec

        assert repro.workload.RECORD_WATCH_STRIDE == TelemetrySpec().watch_stride == 8
        assert JobSpec("clamr").watch_stride == 4
        monkeypatch.setattr(repro.workload, "RECORD_WATCH_STRIDE", 5)
        monkeypatch.setattr(experiments, "RECORD_WATCH_STRIDE", 5)
        assert build_parser().parse_args(["clamr"]).watch_stride == 5
        assert build_parser().parse_args(["self"]).watch_stride == 5
        assert scenario_spec("clamr/dam-break").watch_stride == 5
        specs = []
        monkeypatch.setattr(experiments, "_run_levels", lambda spec, *a: specs.append(spec))
        experiments.run_clamr_levels()
        experiments.run_self_precisions()
        assert [s.watch_stride for s in specs] == [5, 5]

    def test_ledger_gate_defaults(self):
        args = build_parser().parse_args(
            ["ledger", "gate", "--ledger", "a", "--baseline", "b"]
        )
        assert args.rel_floor == 0.10 and args.mad_z == 5.0
        assert args.min_kernel_ms == 1.0 and not args.require_baseline

    def test_trace_workload_choices(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["trace", "lulesh"])


class TestCommands:
    def test_devices(self, capsys):
        assert main(["devices"]) == 0
        out = capsys.readouterr().out
        assert "GTX TITAN X" in out and "32" in out

    def test_clamr_run(self, capsys):
        assert main(["clamr", "--nx", "8", "--steps", "5", "--max-level", "1"]) == 0
        out = capsys.readouterr().out
        assert "mass drift" in out

    def test_clamr_checkpoint(self, tmp_path, capsys):
        path = tmp_path / "ck.clmr"
        assert main(["clamr", "--nx", "8", "--steps", "2", "--max-level", "0",
                     "--checkpoint", str(path)]) == 0
        assert path.exists()
        assert "checkpoint" in capsys.readouterr().out

    def test_self_run(self, capsys):
        assert main(["self", "--elems", "2", "--order", "2", "--steps", "3"]) == 0
        out = capsys.readouterr().out
        assert "anomaly scale" in out

    def test_compare(self, capsys):
        assert main(["compare", "--nx", "16", "--steps", "20"]) == 0
        out = capsys.readouterr().out
        assert "orders below soln" in out

    def test_compare_bad_levels(self, capsys):
        assert main(["compare", "--nx", "16", "--steps", "5", "--levels", "min"]) == 2

    def test_table4(self, capsys):
        assert main(["table", "4"]) == 0
        out = capsys.readouterr().out
        assert "GNU" in out and "Intel" in out

    def test_figure5(self, capsys):
        assert main(["figure", "5"]) == 0
        out = capsys.readouterr().out
        assert "asymmetry" in out.lower()

    def test_trace_clamr(self, tmp_path, capsys):
        trace = tmp_path / "t.trace.json"
        jsonl = tmp_path / "t.jsonl"
        assert main(["trace", "clamr", "--nx", "16", "--steps", "10",
                     "--max-level", "1", "--out", str(trace),
                     "--jsonl", str(jsonl), "--strict"]) == 0
        out = capsys.readouterr().out
        assert "clamr/compute_timestep" in out
        assert "Span summary" in out
        assert "numerical events" in out
        import json

        doc = json.loads(trace.read_text())
        names = {e["name"] for e in doc["traceEvents"] if e.get("ph") == "X"}
        assert len(names) >= 4
        assert jsonl.exists()

    def test_trace_self(self, capsys):
        assert main(["trace", "self", "--elems", "2", "--order", "2",
                     "--steps", "3"]) == 0
        out = capsys.readouterr().out
        assert "self/rhs" in out

    def test_clamr_ledger_flag(self, tmp_path, capsys):
        from repro.ledger import Ledger

        assert main(["clamr", "--nx", "8", "--steps", "5", "--max-level", "1",
                     "--ledger", str(tmp_path / "obs")]) == 0
        assert "ledger" in capsys.readouterr().out
        assert len(Ledger(tmp_path / "obs")) == 1

    def test_ledger_record_half(self, tmp_path, capsys):
        from repro.ledger import Ledger

        ledger = tmp_path / "half.jsonl"
        assert main(["ledger", "record", "clamr", "--ledger", str(ledger),
                     "--policy", "half", "--nx", "12", "--steps", "4"]) == 0
        [record] = Ledger(ledger).records()
        assert record.policy == "half"
        assert record.label == "clamr/nx12s4/half"

    @pytest.mark.parametrize("command", [["clamr"], ["trace", "clamr"]])
    def test_half_policy_runs(self, command, capsys):
        assert main([*command, "--policy", "half", "--steps", "4"]) == 0
        assert "half" in capsys.readouterr().out

    def test_every_run_flag_offers_every_policy(self):
        # one list of CLAMR policies: each --policy flag offers exactly it
        from repro.service import JobSpec

        parse = build_parser().parse_args
        assert JobSpec.__dataclass_fields__["policy"].metadata["choices"] == CLAMR_POLICIES
        for argv in (["clamr"], ["trace", "clamr"], ["submit", "clamr", "--queue", "q"],
                     ["ledger", "record", "clamr", "--ledger", "r"],
                     ["resilience", "run", "clamr"],
                     ["diverge", "record", "d"]):
            for policy in CLAMR_POLICIES:
                assert parse([*argv, "--policy", policy]).policy == policy

    def test_self_ledger_flag(self, tmp_path):
        from repro.ledger import Ledger

        assert main(["self", "--elems", "2", "--order", "2", "--steps", "3",
                     "--ledger", str(tmp_path / "obs")]) == 0
        record = Ledger(tmp_path / "obs").records()[0]
        assert record.workload == "self"

    @pytest.mark.parametrize("workload, knobs", [
        *[("clamr", dict(nx=8, steps=3, max_level=1, policy=policy, scheme=scheme))
          for policy in CLAMR_POLICIES for scheme in ("rusanov", "muscl")],
        *[("self", dict(elems=2, order=2, steps=2, precision=precision))
          for precision in ("single", "double")],
    ])
    def test_ledger_flag_records_its_jobspec(self, tmp_path, workload, knobs):
        # repro clamr|self run a JobSpec: the record carries the identity
        # and label that JobSpec predicts, at the watch stride 8 these
        # records have always hashed
        from repro.ledger import Ledger
        from repro.service import JobSpec

        argv = [workload, "--ledger", str(tmp_path / "obs")]
        for name, value in knobs.items():
            argv += [f"--{name.replace('_', '-')}", str(value)]
        assert main(argv) == 0
        [record] = Ledger(tmp_path / "obs").records()
        spec = JobSpec(workload, watch_stride=8, **knobs)
        assert record.workload_key == spec.workload_key()
        assert record.label == spec.describe()


class TestResilienceCLI:
    def test_parser_defaults(self):
        args = build_parser().parse_args(["resilience", "run", "clamr"])
        assert args.checkpoint_interval == 8 and args.max_rollbacks == 12
        assert args.ladder == "retry,halve_dt,escalate,escalate"
        assert args.policy == "min"

    def test_run_recovers_and_ledgers(self, tmp_path, capsys):
        from repro.ledger import Ledger

        ledger = tmp_path / "res.jsonl"
        assert main(["resilience", "run", "clamr", "--nx", "12", "--steps", "16",
                     "--policy", "min", "--fault", "nan:H:8",
                     "--ladder", "escalate,escalate",
                     "--ledger", str(ledger)]) == 0
        out = capsys.readouterr().out
        assert "min -> mixed" in out and "1 recovery(ies)" in out
        [record] = Ledger(ledger).records()
        assert record.fidelity["faults_injected"] == 1
        assert record.fidelity["recoveries"] >= 1
        assert record.fidelity["aborted"] == 0
        assert record.config["resilience"]["plan"]["specs"][0]["kind"] == "nan"

    def test_run_abort_exits_1(self, capsys):
        assert main(["resilience", "run", "clamr", "--nx", "12", "--steps", "16",
                     "--fault", "nan!:H:8", "--ladder", "retry",
                     "--max-rollbacks", "2"]) == 1
        assert "ABORTED" in capsys.readouterr().out

    def test_inject_probe(self, capsys):
        assert main(["resilience", "inject", "clamr", "--nx", "12", "--steps", "10",
                     "--fault", "nan:H:5"]) == 0
        out = capsys.readouterr().out
        assert "0 rollback(s)" in out and "detection" in out

    def test_campaign(self, capsys):
        assert main(["resilience", "campaign", "clamr", "--arrays", "H",
                     "--kinds", "nan", "--levels", "min", "--steps", "10",
                     "--nx", "12"]) == 0
        out = capsys.readouterr().out
        assert "Vulnerability report" in out


class TestOneRunDescription:
    """``resilience`` and ``diverge`` run the JobSpec their flags parse to."""

    def test_footprint_twins_run_at_the_probe_precision(self, monkeypatch, capsys):
        # the probe runs SELF at --policy min's precision (single); its two
        # footprint twins used to run at double
        from repro.resilience import adapters

        built = []

        class Spy(adapters.SelfAdapter):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                built.append(self.policy_name)

        monkeypatch.setattr(adapters, "SelfAdapter", Spy)
        assert main(["resilience", "inject", "self", "--policy", "min", "--footprint",
                     "--fault", "nan:rho:2", "--steps", "3", "--elems", "2",
                     "--order", "2"]) == 0
        assert "footprint" in capsys.readouterr().out
        assert built == ["single"] * 3

    @pytest.mark.parametrize("door", [["resilience", "run", "clamr"],
                                      ["diverge", "record", "{tmp}/d"]],
                             ids=["resilience", "diverge"])
    @pytest.mark.parametrize("fault, message", [
        (["--fault", "nan:Q:5"],
         "fault targets unknown array 'Q'; clamr exposes ['H', 'U', 'V']"),
        (["--steps", "4", "--fault", "nan:H:99"], "fault step 99 is beyond the run (4 steps)"),
    ], ids=["unknown-array", "beyond-run"])
    def test_one_fault_plan_builder(self, tmp_path, capsys, door, fault, message):
        self._expect_first_line(tmp_path, capsys, door + fault, message)

    def test_only_the_sweep_doors_take_a_scenario(self):
        import argparse

        def doors(parser, path=()):
            for action in parser._actions:
                if isinstance(action, argparse._SubParsersAction):
                    for name, child in action.choices.items():
                        yield from doors(child, (*path, name))
                elif "--scenario" in action.option_strings:
                    yield " ".join(path)

        assert sorted(doors(build_parser())) == sorted(self.SCENARIO_DOORS)

    SCENARIO_DOORS = {
        "table": ["table", "1"],
        "figure": ["figure", "1"],
        "resilience inject": ["resilience", "inject", "self"],
        "resilience run": ["resilience", "run", "self"],
        "resilience campaign": ["resilience", "campaign", "self"],
        "diverge record": ["diverge", "record", "{tmp}/d", "--workload", "self"],
    }

    def _expect_first_line(self, tmp_path, capsys, argv, message):
        assert main([arg.format(tmp=tmp_path) for arg in argv]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err == f"repro: error: {message}\n"
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("door", SCENARIO_DOORS)
    def test_unknown_scenario_fails_first(self, tmp_path, capsys, monkeypatch, door):
        from repro.scenarios import scenario_names

        monkeypatch.chdir(tmp_path)
        message = (f"unknown scenario 'clamr/nope'; available: "
                   f"{', '.join(scenario_names())}")
        self._expect_first_line(tmp_path, capsys,
                                self.SCENARIO_DOORS[door] + ["--scenario", "clamr/nope"],
                                message)

    @pytest.mark.parametrize("door", [d for d in SCENARIO_DOORS if d not in ("table", "figure")])
    def test_other_family_scenario_fails_first(self, tmp_path, capsys, monkeypatch, door):
        # `resilience campaign` used to print its header before this error
        monkeypatch.chdir(tmp_path)
        message = ("scenario 'clamr/lake-at-rest' belongs to workload 'clamr', "
                   "not 'self'")
        self._expect_first_line(
            tmp_path, capsys,
            self.SCENARIO_DOORS[door] + ["--scenario", "clamr/lake-at-rest"], message)


    PINNING_DOORS = {
        "resilience inject": ["resilience", "inject", "clamr"],
        "resilience run": ["resilience", "run", "clamr"],
        "resilience campaign": ["resilience", "campaign", "clamr"],
        "diverge record": ["diverge", "record", "{tmp}/d"],
    }

    @pytest.mark.parametrize("door", PINNING_DOORS)
    def test_a_size_the_scenario_sets_is_not_given_otherwise(
        self, tmp_path, capsys, monkeypatch, door
    ):
        # the lake at rest runs max_level 0; --max-level 2 used to be dropped
        monkeypatch.chdir(tmp_path)
        self._expect_first_line(
            tmp_path, capsys,
            self.PINNING_DOORS[door] + ["--scenario", "clamr/lake-at-rest", "--max-level", "2"],
            "--max-level 2 conflicts with scenario 'clamr/lake-at-rest', which runs max_level 0",
        )

    @pytest.mark.parametrize("max_level", [[], ["--max-level", "0"]], ids=["off", "same"])
    def test_the_scenarios_size_runs_when_not_contradicted(self, tmp_path, capsys, max_level):
        from repro.ledger import Ledger

        ledger = tmp_path / "runs.jsonl"
        assert main(["resilience", "run", "clamr", "--scenario", "clamr/lake-at-rest",
                     "--steps", "4", "--fault", "nan:H:2", "--ledger", str(ledger),
                     *max_level]) == 0
        capsys.readouterr()
        [record] = Ledger(ledger).records()
        assert record.config["max_level"] == 0
        assert record.config["scenario"] == "clamr/lake-at-rest"


class TestErrorHygiene:
    """User errors exit 2 with a one-line message, no traceback."""

    def _expect_error(self, capsys, argv):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("repro: error:") and "Traceback" not in err

    @pytest.mark.parametrize("viscosity", ["nan", "inf"])
    def test_self_non_finite_viscosity(self, capsys, viscosity):
        assert main(["self", "--elems", "2", "--order", "2", "--steps", "1",
                     "--viscosity", viscosity]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("repro: error: viscosity")

    def test_bad_fault_spec(self, capsys):
        self._expect_error(capsys, ["resilience", "run", "clamr", "--fault", "garbage"])

    def test_fault_unknown_array(self, capsys):
        self._expect_error(capsys, ["resilience", "run", "clamr", "--fault", "nan:Q:5"])

    def test_fault_beyond_run(self, capsys):
        self._expect_error(
            capsys, ["resilience", "run", "clamr", "--steps", "4", "--fault", "nan:H:99"])

    def test_bad_ladder_action(self, capsys):
        self._expect_error(
            capsys, ["resilience", "run", "clamr", "--ladder", "retry,reboot"])

    def test_missing_ledger_report(self, tmp_path, capsys):
        self._expect_error(
            capsys, ["ledger", "report", "--ledger", str(tmp_path / "nope.jsonl")])

    def test_missing_gate_baseline(self, tmp_path, capsys):
        ledger = tmp_path / "runs.jsonl"
        ledger.write_text("")
        self._expect_error(
            capsys, ["ledger", "gate", "--ledger", str(ledger),
                     "--baseline", str(tmp_path / "nope.jsonl")])

    @pytest.mark.parametrize("argv", [
        ["ledger", "record", "clamr", "--ledger", "{tmp}/r", "--stride", "0"],
        ["trace", "clamr", "--stride", "0"],
    ], ids=["ledger-record", "trace"])
    def test_ledger_record_stride_zero(self, tmp_path, capsys, argv):
        # JobSpec validates the watch stride for every door; 0 used to
        # run with the watchpoints off
        assert main([arg.format(tmp=tmp_path) for arg in argv]) == 2
        err = capsys.readouterr().err.splitlines()
        assert err == ["repro: error: watch_stride must be a positive integer, got 0"]
        assert not (tmp_path / "r").exists()

    def test_missing_export_bench_ledger(self, tmp_path, capsys):
        self._expect_error(
            capsys, ["ledger", "export-bench", "--ledger", str(tmp_path / "nope")])


class TestStrictTrace:
    """``trace --strict`` fails on fatal events and on exhausted headroom."""

    def test_healthy_run_passes_strict(self):
        assert main(["trace", "clamr", "--nx", "12", "--steps", "8",
                     "--max-level", "1", "--strict",
                     "--strict-headroom-bits", "4"]) == 0

    def test_fatal_events_detected(self):
        import numpy as np

        from repro.cli import _strict_failures
        from repro.telemetry import Telemetry

        tel = Telemetry(watch_stride=1)
        tel.scan("H", np.array([1.0, np.nan]))
        fatal, exhausted = _strict_failures(tel, 2.0)
        assert len(fatal) == 1 and not exhausted

    def test_headroom_exhaustion_detected(self):
        import numpy as np

        from repro.cli import _strict_failures
        from repro.telemetry import Telemetry

        tel = Telemetry(watch_stride=1)
        # ~0.5 decades (~1.7 bits) below float32 max: an overflow_risk
        # watchpoint event with headroom under the 2-bit default
        tel.scan("H", np.array([1.0e38], dtype=np.float32))
        events = [e for e in tel.numerics.events if e.kind == "overflow_risk"]
        assert events, "scan should have recorded an overflow_risk event"
        fatal, exhausted = _strict_failures(tel, 2.0)
        assert not fatal and len(exhausted) == 1
        # a tighter threshold tolerates the same event
        _, ok = _strict_failures(tel, 0.5)
        assert not ok
