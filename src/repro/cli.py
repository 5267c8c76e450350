"""Command-line interface: ``python -m repro <command>``.

Subcommands
-----------
``clamr``
    Run the CLAMR dam break and print a one-run summary.
``self``
    Run the SELF thermal bubble and print a one-run summary.
``devices``
    Print the simulated device zoo with the key ratios.
``table {1..7}`` / ``figure {1..5}``
    Regenerate one of the paper's tables/figures at a chosen scale.
``compare``
    Run CLAMR at two precision levels and print the fidelity comparison.
``trace``
    Run a mini-app under full telemetry and print the span tree, the
    per-kernel summary, and the numerical-event report; optionally dump
    Chrome-trace / JSONL files for Perfetto or post-mortem analysis.
``flight report|digest|compare|export``
    The numerics flight recorder (see docs/flightrecorder.md): render a
    run's per-signal timeline as unicode sparklines, reduce a flight file
    to its digest, compare two flights (or digests) step-aligned, and
    export the signals as Chrome-trace counter tracks.
``ledger record|report|compare|gate|export-bench``
    The run ledger & regression observatory (see docs/observatory.md):
    persist runs as fingerprinted records, trend them with sparklines,
    diff two fingerprints, gate against a committed baseline, and export
    the ``BENCH_observatory.json`` perf trajectory.
``resilience inject|run|campaign``
    The resilience subsystem (see docs/resilience.md): inject seeded
    faults without recovery to probe detectability, run a supervised
    loop with checkpoint-rollback recovery and precision escalation, or
    sweep fault sites × precision levels into a vulnerability report.
``diverge record|compare|replay|report``
    The divergence microscope (see docs/divergence.md): record a run's
    hierarchical state-hash ladder (step → kernel site → field → chunk)
    to ``hashes.jsonl``, bisect two recordings to the first divergent
    chunk (exit 1 on divergence), re-run a divergence window from the
    nearest checkpoints at full hash resolution with ULP statistics,
    and chart the ULP divergence-onset curve of a precision pair.
``scenario list|run|validate|gate``
    The scenario library (see docs/scenarios.md): enumerate the
    registered initial-condition/bathymetry cases, run one and print a
    summary (optionally fingerprinting it into a ledger), apply each
    scenario's acceptance contract (exit 1 on failure), and gate fresh
    runs against the committed golden fingerprints (exit 1 on drift).
    Sweep-shaped commands (``table``/``figure``, ``resilience``,
    ``diverge record``) take ``--scenario NAME`` to run the same
    machinery over a registered case instead of the seed workload.
``submit`` / ``serve`` / ``queue status|reclaim|drain``
    The crash-safe sweep service (see docs/service.md): submit sweep
    jobs into a disk-backed queue, run a long-lived worker that claims
    jobs under a heartbeat lease and serves duplicates from the
    content-addressed result cache, inspect queue/lease/quarantine
    state (``--json`` for machines), re-queue jobs abandoned by dead
    workers, and drain the queue to empty in the foreground (exit 1 if
    anything failed or was quarantined).

Errors from bad arguments or missing files exit with status 2 and a
one-line ``repro: error: ...`` message — never a traceback.

Every run flag (``--nx``, ``--steps``, ``--policy``, ``--scenario``, ...)
is a field of :class:`repro.service.JobSpec`, declared once by
``_add_job_arguments`` with each command's own defaults; every command
that runs a mini-app parses its flags into one JobSpec, so its
validation and its one-line messages hold at every door, and each run is
built by :meth:`JobSpec.simulation`, as ``repro.ledger.run_workload``
builds its runs.

The CLI is a thin veneer over the public API — every command body is a
few calls a user could type in a REPL — so it doubles as executable
documentation.
"""

from __future__ import annotations

import argparse
import sys
from typing import Sequence

from repro.precision.breakdown import NonFiniteStepError

__all__ = ["main", "build_parser", "CLIError"]


class CLIError(Exception):
    """A user-facing CLI failure: printed as one line, exit status 2."""


def _require_file(path, what: str):
    """Resolve a path that must already exist (ledger, baseline, ...)."""
    from pathlib import Path

    p = Path(path)
    if not p.exists():
        raise CLIError(f"{what} not found: {p}")
    return p


def _add_job_arguments(
    parser: argparse.ArgumentParser, names: Sequence[str], stride_flag: str = "--stride",
    **defaults,
) -> None:
    """The :class:`~repro.service.JobSpec` fields ``names`` as one argument group.

    The only place a run flag is declared: every command that runs a
    mini-app takes its run flags here, so their type, choices and help
    are JobSpec's.  ``defaults`` is the command's own table of defaults
    where they differ from JobSpec's, for fields in ``names`` only.
    ``workload`` is a positional, or a ``--workload`` flag when the
    table gives it a default.  Only the watch-stride spelling differs
    between commands (``stride_flag``).
    :func:`_job_spec_from_args` turns the parsed group back into a JobSpec,
    and :func:`main` checks every parsed run flag by JobSpec's rule
    before the command runs.
    """
    from dataclasses import MISSING, fields

    from repro.service.jobs import JobSpec

    unknown = set(defaults) - set(names)
    if unknown:
        raise ValueError(f"defaults for fields not taken: {sorted(unknown)}")
    group = parser.add_argument_group("run", "the run (a JobSpec)")
    for f in fields(JobSpec):
        if f.name not in names:
            continue
        default = defaults.get(f.name, f.default)
        meta = f.metadata
        if default is MISSING:
            group.add_argument(f.name, choices=meta["choices"], help=meta["help"])
            continue
        flag = stride_flag if f.name == "watch_stride" else f"--{f.name.replace('_', '-')}"
        group.add_argument(flag, dest=f.name, type=type(default), default=default,
                           choices=meta["choices"] or None, help=meta["help"],
                           action=_GivenFlag)
    parser.set_defaults(run_flags=tuple(names))


class _GivenFlag(argparse.Action):
    """Stores a run flag and notes in ``given_flags`` that the command line gave it."""

    def __call__(self, parser, namespace, values, option_string=None):
        setattr(namespace, self.dest, values)
        namespace.given_flags = (*getattr(namespace, "given_flags", ()), self.dest)


def _add_run_outputs(parser: argparse.ArgumentParser) -> None:
    """``--flight``, ``--flight-stride`` and ``--backend`` of ``clamr``/``self``/``trace``."""
    parser.add_argument("--flight", default=None, metavar="FILE",
                        help="record the numerics flight timeline and write it here "
                             "(.jsonl; see 'repro flight report')")
    parser.add_argument("--flight-stride", type=int, default=4, metavar="N",
                        help="flight sampling stride in steps (default 4)")
    parser.add_argument("--backend", default=None, metavar="NAME",
                        help="kernel backend: numpy|python|cext "
                             "(default: $REPRO_KERNEL_BACKEND, else numpy; "
                             "see 'repro backends')")


def _job_spec_from_args(args: argparse.Namespace):
    """The :class:`~repro.service.JobSpec` parsed by :func:`_add_job_arguments`.

    A command with ``--policy`` but no ``--precision`` runs SELF at the
    policy's precision (:meth:`JobSpec.at_level`).  A size flag given
    with a different value from the one its ``--scenario`` sets is an
    error; left off, the scenario's value runs.
    """
    from dataclasses import fields

    from repro.service.jobs import JobSpec

    given = {f.name: getattr(args, f.name) for f in fields(JobSpec) if hasattr(args, f.name)}
    spec = JobSpec(**given)
    for name in getattr(args, "given_flags", ()):
        if getattr(spec, name) != given[name]:
            raise CLIError(
                f"--{name.replace('_', '-')} {given[name]} conflicts with scenario "
                f"{spec.scenario!r}, which runs {name} {getattr(spec, name)}"
            )
    flags = getattr(args, "run_flags", ())
    if spec.workload == "self" and "policy" in flags and "precision" not in flags:
        return spec.at_level(spec.policy)
    return spec


def build_parser() -> argparse.ArgumentParser:
    from dataclasses import fields

    from repro.service.jobs import JobSpec
    from repro.workload import RECORD_WATCH_STRIDE

    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduction of 'Thoughtful Precision in Mini-apps' (CLUSTER 2017)",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    # a scenario is taken only where a sweep-shaped command names it
    every_field = tuple(f.name for f in fields(JobSpec) if f.name != "scenario")
    clamr_run = ("steps", "nx", "max_level", "policy", "scheme")
    self_run = ("steps", "elems", "order", "precision")

    # repro clamr|self --ledger records hash the record watch stride
    clamr = sub.add_parser("clamr", help="run the CLAMR dam break")
    _add_job_arguments(clamr, clamr_run, nx=32, steps=200, max_level=2, policy="full")
    clamr.set_defaults(workload="clamr", watch_stride=RECORD_WATCH_STRIDE)
    clamr.add_argument("--checkpoint", default=None, help="write a checkpoint here")
    clamr.add_argument("--ledger", default=None, metavar="PATH",
                       help="trace the run and append a run record to this ledger")
    _add_run_outputs(clamr)

    selfp = sub.add_parser("self", help="run the SELF thermal bubble")
    _add_job_arguments(selfp, self_run, elems=4, order=4, steps=100)
    selfp.set_defaults(workload="self", watch_stride=RECORD_WATCH_STRIDE)
    selfp.add_argument("--viscosity", type=float, default=0.0)
    selfp.add_argument("--ledger", default=None, metavar="PATH",
                       help="trace the run and append a run record to this ledger")
    _add_run_outputs(selfp)

    sub.add_parser("devices", help="list the simulated architectures")

    sub.add_parser(
        "backends",
        help="list kernel backends (numpy oracle, compiled paths) and availability",
    )

    table = sub.add_parser("table", help="regenerate a paper table")
    table.add_argument("number", type=int, choices=range(1, 8))
    table.add_argument("--scale", default="quick", choices=("quick", "bench"))
    table.add_argument("--jobs", type=int, default=1, metavar="N",
                       help="worker processes for the underlying runs (clamped "
                            "to the sweep size; results are order- and "
                            "bit-identical to --jobs 1)")
    table.add_argument("--trace-out", default=None, metavar="FILE",
                       help="merge the sweep's per-run telemetry into one Chrome "
                            "trace, one pid lane per run (tables 1/2/5/6 only)")
    table.add_argument("--hash-dir", default=None, metavar="DIR",
                       help="write each run's state-hash stream there as "
                            "<label>.hashes.jsonl for 'repro diverge compare' "
                            "(tables 1/2/5/6 only)")
    table.add_argument("--hash-stride", type=int, default=0, metavar="N",
                       help="hash every Nth step (default: every step when "
                            "--hash-dir is set)")
    _add_job_arguments(table, ("scenario",))  # tables 1/2 take clamr/*, 5/6 self/*

    figure = sub.add_parser("figure", help="regenerate a paper figure")
    figure.add_argument("number", type=int, choices=range(1, 6))
    figure.add_argument("--scale", default="quick", choices=("quick", "bench"))
    figure.add_argument("--jobs", type=int, default=1, metavar="N",
                        help="worker processes for the underlying runs")
    figure.add_argument("--trace-out", default=None, metavar="FILE",
                        help="merge the sweep's per-run telemetry into one Chrome "
                             "trace (figures 1/2/4/5 only)")
    figure.add_argument("--hash-dir", default=None, metavar="DIR",
                        help="write each run's state-hash stream there as "
                             "<label>.hashes.jsonl (figures 1/2/4/5 only)")
    figure.add_argument("--hash-stride", type=int, default=0, metavar="N",
                        help="hash every Nth step (default: every step when "
                             "--hash-dir is set)")
    _add_job_arguments(figure, ("scenario",))  # figures 1/2 take clamr/*, 4/5 self/*

    compare = sub.add_parser("compare", help="fidelity comparison of two precision levels")
    _add_job_arguments(compare, ("steps", "nx"), nx=48, steps=300)
    compare.set_defaults(workload="clamr", max_level=2)
    compare.add_argument("--levels", default="min,full", help="comma-separated pair")

    validate = sub.add_parser("validate", help="check every paper claim against a fresh run")
    validate.add_argument("--scale", default="quick", choices=("quick", "bench"))
    validate.add_argument("--no-scenarios", action="store_true",
                          help="skip the scenario-library acceptance checks "
                               "(paper claims only)")

    trace = sub.add_parser("trace", help="run a workload with telemetry and report the trace")
    _add_job_arguments(trace, ("workload", "watch_stride", *clamr_run, *self_run),
                       nx=64, steps=100, max_level=2, policy="full")
    trace.add_argument("--out", default=None, metavar="FILE",
                       help="write a Chrome-trace JSON (load in ui.perfetto.dev)")
    trace.add_argument("--jsonl", default=None, metavar="FILE",
                       help="write the raw telemetry as JSONL")
    trace.add_argument("--strict", action="store_true",
                       help="exit 1 if any NaN/Inf event was recorded, or any "
                            "overflow-headroom event fell below --strict-headroom-bits")
    trace.add_argument("--strict-headroom-bits", type=float, default=2.0, metavar="N",
                       help="with --strict, overflow_risk events with less than N bits "
                            "of dynamic-range headroom left are fatal (default 2)")
    _add_run_outputs(trace)

    flight = sub.add_parser(
        "flight", help="flight-recorder timelines: report, digest, compare, export"
    )
    fsub = flight.add_subparsers(dest="flight_command", required=True)

    frep = fsub.add_parser(
        "report", help="per-signal sparkline timelines from a flight.jsonl"
    )
    frep.add_argument("file", metavar="FLIGHT_JSONL")
    frep.add_argument("--width", type=int, default=40,
                      help="sparkline width in cells (default 40)")

    fdig = fsub.add_parser("digest", help="reduce a flight.jsonl to its digest JSON")
    fdig.add_argument("file", metavar="FLIGHT_JSONL")
    fdig.add_argument("--out", default=None, metavar="FILE",
                      help="also write the digest JSON here")

    fcmp = fsub.add_parser(
        "compare", help="step-aligned comparison of two flights (exit 1 on mismatch)"
    )
    fcmp.add_argument("a", metavar="A", help="flight.jsonl or digest JSON")
    fcmp.add_argument("b", metavar="B", help="flight.jsonl or digest JSON")
    fcmp.add_argument("--rtol", type=float, default=0.0,
                      help="relative tolerance per value (default 0: exact)")

    fexp = fsub.add_parser(
        "export", help="export flight signals as Chrome-trace counter tracks"
    )
    fexp.add_argument("file", metavar="FLIGHT_JSONL")
    fexp.add_argument("--out", required=True, metavar="FILE",
                      help="Chrome-trace JSON to write (x axis = step number)")

    ledger = sub.add_parser(
        "ledger", help="persistent cross-run telemetry and regression gating"
    )
    lsub = ledger.add_subparsers(dest="ledger_command", required=True)

    lrec = lsub.add_parser("record", help="run a workload and append a run record")
    _add_job_arguments(lrec, tuple(n for n in every_field if n != "label"))
    lrec.add_argument("--ledger", required=True, metavar="PATH",
                      help="ledger file (.jsonl) or directory")
    lrec.add_argument("--runs", type=int, default=1, help="record this many repeat runs")
    lrec.add_argument("--flight-stride", type=int, default=0, metavar="N",
                      help="attach a flight recorder sampling every N steps (0 "
                           "disables); its digest lands in the record's fidelity")
    lrec.add_argument("--trace-dir", default=None, metavar="DIR",
                      help="also persist Chrome-trace + JSONL telemetry per run")
    lrec.add_argument("--backend", default=None, metavar="NAME",
                      help="kernel backend: numpy|python|cext "
                           "(default: $REPRO_KERNEL_BACKEND, else numpy; recorded "
                           "on the record's 'backend' field, excluded from its "
                           "fingerprint)")

    lrep = lsub.add_parser("report", help="terminal dashboard: trends + sparklines")
    lrep.add_argument("--ledger", required=True, metavar="PATH")
    lrep.add_argument("--last", type=int, default=12, help="runs per workload in the trend")

    lcmp = lsub.add_parser("compare", help="per-kernel deltas between two fingerprints")
    lcmp.add_argument("a", metavar="FINGERPRINT_A", help="fingerprint (prefix ok)")
    lcmp.add_argument("b", metavar="FINGERPRINT_B", help="fingerprint (prefix ok)")
    lcmp.add_argument("--ledger", required=True, metavar="PATH")

    lgate = lsub.add_parser(
        "gate", help="exit nonzero on perf or fidelity regression vs a baseline ledger"
    )
    lgate.add_argument("--ledger", required=True, metavar="PATH",
                       help="ledger holding the current run(s)")
    lgate.add_argument("--baseline", required=True, metavar="PATH",
                       help="committed baseline ledger to gate against")
    lgate.add_argument("--rel-floor", type=float, default=0.10,
                       help="relative perf tolerance floor (default 0.10; use a generous "
                            "value when baseline and current machines differ)")
    lgate.add_argument("--mad-z", type=float, default=5.0,
                       help="MAD z-score band width (default 5)")
    lgate.add_argument("--min-kernel-ms", type=float, default=1.0,
                       help="skip kernels whose baseline median is below this (default 1 ms)")
    lgate.add_argument("--require-baseline", action="store_true",
                       help="fail (instead of skip) workloads missing from the baseline")

    lexp = lsub.add_parser("export-bench", help="write the BENCH_observatory.json trajectory")
    lexp.add_argument("--ledger", required=True, metavar="PATH")
    lexp.add_argument("--out", default="BENCH_observatory.json", metavar="FILE")
    lexp.add_argument("--window", type=int, default=10,
                      help="median window (runs per workload, default 10)")

    resil = sub.add_parser(
        "resilience", help="fault injection, numerical guards, and rollback recovery"
    )
    rsub = resil.add_subparsers(dest="resilience_command", required=True)

    def _resil_workload_args(p: argparse.ArgumentParser) -> None:
        _add_job_arguments(p, ("workload", *clamr_run, "elems", "order", "scenario"),
                           nx=16, steps=24, policy="min", elems=2)
        p.add_argument("--fault", action="append", default=[], metavar="SPEC",
                       help="planned fault kind:array:step[:index[:bit]]; a trailing '!' "
                            "on the kind makes it sticky (re-fires after rollback); "
                            "repeatable")
        p.add_argument("--faults", type=int, default=0, metavar="N",
                       help="additionally draw N random faults from --seed")
        p.add_argument("--seed", type=int, default=0,
                       help="plan seed: resolves random element/bit choices")

    rinj = rsub.add_parser(
        "inject", help="inject faults with detectors but no recovery (probe run)"
    )
    _resil_workload_args(rinj)
    rinj.add_argument("--footprint", action="store_true",
                      help="also run a clean twin and report each fault's "
                           "corruption footprint via the state-hash ladder "
                           "(first divergent step/site/field, detection latency)")

    rrun = rsub.add_parser(
        "run", help="supervised run: checkpoint, detect, roll back, recover"
    )
    _resil_workload_args(rrun)
    rrun.add_argument("--checkpoint-interval", type=int, default=8, metavar="STEPS")
    rrun.add_argument("--detect-stride", type=int, default=1, metavar="STEPS",
                      help="scan every Nth step between checkpoints (backs off "
                           "exponentially while clean)")
    rrun.add_argument("--max-detect-stride", type=int, default=8, metavar="STEPS")
    rrun.add_argument("--ladder", default="retry,halve_dt,escalate,escalate",
                      metavar="A,B,...",
                      help="recovery actions, one per consecutive failed attempt "
                           "(retry | halve_dt | escalate)")
    rrun.add_argument("--max-rollbacks", type=int, default=12)
    rrun.add_argument("--conservation-bound", type=float, default=1e-4, metavar="REL")
    rrun.add_argument("--ledger", default=None, metavar="PATH",
                      help="append the supervised run's record to this ledger")
    rrun.add_argument("--label", default="", help="ledger record label")

    rcamp = rsub.add_parser(
        "campaign", help="sweep fault sites × precision levels; vulnerability report"
    )
    _add_job_arguments(rcamp, ("workload", "steps", "nx", "max_level", "scheme",
                               "elems", "order", "scenario"), nx=16, steps=24, elems=2)
    rcamp.add_argument("--arrays", default=None, metavar="A,B,...",
                       help="state arrays to target (default: all of the workload's)")
    rcamp.add_argument("--kinds", default="bitflip,nan,inf,overflow", metavar="K,...")
    rcamp.add_argument("--levels", default="min,mixed,full", metavar="L,...",
                       help="precision levels to sweep")
    rcamp.add_argument("--trials", type=int, default=1, help="cells per sweep point")
    rcamp.add_argument("--fault-step", type=int, default=0,
                       help="step each fault lands on (default: mid-run)")
    rcamp.add_argument("--seed", type=int, default=0, help="fault-plan seed of the cells")
    rcamp.add_argument("--ledger", default=None, metavar="PATH",
                       help="append one record per completed cell to this ledger")
    rcamp.add_argument("--jobs", type=int, default=1, metavar="N",
                       help="worker processes for the sweep (clamped to the cell "
                            "count; outcomes and ledger records are identical to "
                            "--jobs 1 up to wall-clock fields)")
    rcamp.add_argument("--trace-out", default=None, metavar="FILE",
                       help="merge every cell's telemetry into one Chrome trace, "
                            "one pid lane per cell in sweep order")

    diverge = sub.add_parser(
        "diverge", help="state-hash ladders and first-divergence bisection"
    )
    dsub = diverge.add_subparsers(dest="diverge_command", required=True)

    drec = dsub.add_parser(
        "record", help="run a workload and record its state-hash ladder"
    )
    drec.add_argument("out", metavar="DIR",
                      help="run directory to create (hashes.jsonl, run.json, "
                           "checkpoints)")
    _add_job_arguments(drec, ("workload", *clamr_run, *self_run, "scenario"),
                       workload="clamr", nx=16, steps=24)
    drec.add_argument("--scalar", action="store_true",
                      help="use the unvectorized clamr kernel")
    drec.add_argument("--scatter", default="plan", choices=("plan", "add_at"),
                      help="clamr scatter implementation (plan = CSR)")
    drec.add_argument("--seed", type=int, default=0,
                      help="fault-plan seed (resolves random element/bit choices)")
    drec.add_argument("--hash-stride", type=int, default=1, metavar="N",
                      help="hash every Nth step (default 1: every step)")
    drec.add_argument("--hash-chunk", type=int, default=4096, metavar="ELEMS",
                      help="chunk size in array elements (default 4096)")
    drec.add_argument("--checkpoint-interval", type=int, default=0, metavar="STEPS",
                      help="write a checkpoint every N steps (enables "
                           "'diverge replay'; 0 disables)")
    drec.add_argument("--fault", action="append", default=[], metavar="SPEC",
                      help="inject kind:array:step[:index[:bit]] after that step "
                           "completes; trailing '!' on the kind = sticky; "
                           "repeatable")
    drec.add_argument("--label", default="", help="label stored in the hash stream")

    dcmp = dsub.add_parser(
        "compare",
        help="bisect two recordings to the first divergent step/site/field/chunk "
             "(exit 1 on divergence)",
    )
    dcmp.add_argument("a", metavar="A", help="run directory or hashes.jsonl")
    dcmp.add_argument("b", metavar="B", help="run directory or hashes.jsonl")
    dcmp.add_argument("--json", default=None, metavar="FILE",
                      help="also write the full divergence report as JSON")

    drep = dsub.add_parser(
        "replay",
        help="re-run a coarse divergence window from the nearest checkpoints "
             "with stride-1 hashing and ULP statistics (exit 1 on divergence)",
    )
    drep.add_argument("a", metavar="DIR_A", help="run directory (needs checkpoints)")
    drep.add_argument("b", metavar="DIR_B", help="run directory (needs checkpoints)")
    drep.add_argument("--pad", type=int, default=2, metavar="STEPS",
                      help="extra steps replayed past the divergence (default 2)")
    drep.add_argument("--json", default=None, metavar="FILE",
                      help="also write the replay report (ULP curve) as JSON")

    dons = dsub.add_parser(
        "report",
        help="ULP divergence-onset curve for a precision pair (tolerance mode)",
    )
    _add_job_arguments(dons, ("workload", "steps", "nx", "max_level", "scheme",
                              "elems", "order"), workload="clamr", nx=16, steps=24)
    dons.add_argument("--pair", default=None, metavar="A,B",
                      help="precision pair (default: min,full for clamr; "
                           "single,double for self)")
    dons.add_argument("--json", default=None, metavar="FILE",
                      help="also write the onset report as JSON")

    scen = sub.add_parser(
        "scenario", help="the scenario library: list, run, validate, gate"
    )
    ssub = scen.add_subparsers(dest="scenario_command", required=True)

    ssub.add_parser("list", help="list the registered scenarios")

    srun = ssub.add_parser("run", help="run one scenario and print a summary")
    srun.add_argument("name", metavar="NAME", help="e.g. clamr/circular-dam")
    srun.add_argument("--scale", default="quick", choices=("quick", "bench"))
    srun.add_argument("--policy", default=None,
                      help="precision level (default: the scenario's "
                           "fingerprint policy)")
    srun.add_argument("--seed", type=int, default=0,
                      help="workload seed (fingerprint input)")
    srun.add_argument("--ledger", default=None, metavar="PATH",
                      help="run under telemetry and append a fingerprinted "
                           "run record to this ledger")

    sval = ssub.add_parser(
        "validate", help="apply each scenario's acceptance contract (exit 1 on failure)"
    )
    sval.add_argument("names", nargs="*", metavar="NAME",
                      help="scenario names (default: every registered scenario)")
    sval.add_argument("--scale", default="quick", choices=("quick", "bench"))

    sgate = ssub.add_parser(
        "gate",
        help="fresh-run each scenario and compare identity + conservation "
             "digests against the committed goldens (exit 1 on drift)",
    )
    sgate.add_argument("names", nargs="*", metavar="NAME",
                       help="scenario names (default: every registered scenario)")
    sgate.add_argument("--baseline", default="benchmarks/baseline_ledger.jsonl",
                       metavar="PATH", help="committed golden ledger "
                       "(default benchmarks/baseline_ledger.jsonl)")

    submit = sub.add_parser(
        "submit", help="enqueue a sweep job for the service (see docs/service.md)"
    )
    _add_job_arguments(submit, every_field, stride_flag="--watch-stride")
    submit.add_argument("--queue", required=True, metavar="DIR",
                        help="queue root directory (created if missing)")
    submit.add_argument("--repeat", type=int, default=1, metavar="N",
                        help="submit N copies (duplicates are deduplicated by "
                             "scope-based claiming and served from cache)")

    serve = sub.add_parser(
        "serve", help="run a sweep-service worker loop against a queue"
    )
    serve.add_argument("--queue", required=True, metavar="DIR")
    serve.add_argument("--ledger", default=None, metavar="PATH",
                       help="append each computed run record to this ledger")
    serve.add_argument("--cache", default=None, metavar="DIR",
                       help="result cache directory (default <queue>/.cache)")
    serve.add_argument("--max-jobs", type=int, default=0, metavar="N",
                       help="stop after N completed/failed jobs (0 = unlimited)")
    serve.add_argument("--idle-timeout", type=float, default=0.0, metavar="S",
                       help="stop after S seconds with no work (0 = run until "
                            "signalled)")
    serve.add_argument("--poll", type=float, default=0.2, metavar="S",
                       help="sleep between empty claim attempts")
    serve.add_argument("--lease-ttl", type=float, default=30.0, metavar="S",
                       help="heartbeat lease time-to-live")
    serve.add_argument("--max-attempts", type=int, default=3, metavar="N",
                       help="retry budget before a job is failed/quarantined")

    qp = sub.add_parser(
        "queue", help="inspect and maintain a sweep-service queue"
    )
    qsub = qp.add_subparsers(dest="queue_command", required=True)
    qst = qsub.add_parser("status", help="per-state counts, stale leases, quarantine")
    qst.add_argument("--queue", required=True, metavar="DIR")
    qst.add_argument("--json", action="store_true", help="machine-readable output")
    qrc = qsub.add_parser(
        "reclaim", help="re-queue jobs whose worker lease has gone stale"
    )
    qrc.add_argument("--queue", required=True, metavar="DIR")
    qrc.add_argument("--max-attempts", type=int, default=3, metavar="N")
    qdr = qsub.add_parser(
        "drain",
        help="run an in-process worker until the queue is empty "
             "(exit 1 if anything failed or was quarantined)",
    )
    qdr.add_argument("--queue", required=True, metavar="DIR")
    qdr.add_argument("--ledger", default=None, metavar="PATH")
    qdr.add_argument("--cache", default=None, metavar="DIR")
    qdr.add_argument("--timeout", type=float, default=0.0, metavar="S",
                     help="give up after S seconds (0 = no limit)")
    qdr.add_argument("--max-attempts", type=int, default=3, metavar="N")
    qdr.add_argument("--poll", type=float, default=0.1, metavar="S")
    qdr.add_argument("--lease-ttl", type=float, default=30.0, metavar="S")
    return parser


def _apply_backend(args: argparse.Namespace) -> None:
    """Honor ``--backend``: select it process-wide and export the env var.

    The env export matters for commands that fan work out to spawned
    worker processes (``--jobs``): workers re-read the selection from
    ``$REPRO_KERNEL_BACKEND``.  An unknown name fails as a one-line
    CLIError (exit 2) before any simulation work starts.
    """
    name = getattr(args, "backend", None)
    if name is None:
        return
    import os

    from repro.clamr.backends import ENV_VAR, UnknownBackendError, normalize_backend, set_kernel_backend

    try:
        canon = normalize_backend(name)
    except UnknownBackendError as exc:
        raise CLIError(str(exc)) from None
    set_kernel_backend(canon)
    os.environ[ENV_VAR] = canon


def _flight_stride(args: argparse.Namespace) -> int:
    """``--flight-stride`` when ``--flight`` asks for a recorder, else 0."""
    if not getattr(args, "flight", None):
        return 0
    if args.flight_stride < 1:
        raise CLIError(f"--flight-stride must be at least 1, got {args.flight_stride}")
    return args.flight_stride


def _write_flight_file(args: argparse.Namespace, tel, indent: str = "  ") -> None:
    """Persist ``tel.flight`` to the ``--flight`` path and say where."""
    flight = getattr(tel, "flight", None)
    if flight is None or not getattr(args, "flight", None):
        return
    from repro.telemetry.flight import write_flight

    path = write_flight(flight, args.flight)
    print(f"{indent}flight       : {path} ({flight.nsamples} samples, "
          f"stride {flight.stride})")


def _run_job(args: argparse.Namespace, traced: bool, **fields):
    """Run the command's :class:`~repro.service.JobSpec`: ``(spec, sim, result, tel)``.

    Built by :meth:`JobSpec.simulation <repro.service.JobSpec.simulation>`,
    as ``repro ledger record`` builds its runs; ``tel`` is the JobSpec's
    telemetry when ``traced`` (or ``--flight`` asks for a recorder), else
    ``None``.  ``fields`` are config fields a JobSpec does not carry.
    """
    spec = _job_spec_from_args(args)
    _apply_backend(args)
    flight_stride = _flight_stride(args)
    tel = spec.telemetry(flight_stride) if traced or flight_stride else None
    sim = spec.simulation(tel, config=spec.config(**fields))
    return spec, sim, sim.run(spec.steps), tel


def _append_record(args: argparse.Namespace, spec, sim, res, tel) -> None:
    """Append the run's record to the ``--ledger`` path, if one was given."""
    if not args.ledger:
        return
    from repro.ledger import Ledger, record_job

    record = Ledger(args.ledger).append(record_job(spec, res, tel, config=sim.config))
    print(f"  ledger       : {args.ledger} += {record.fingerprint}")


def _cmd_clamr(args: argparse.Namespace) -> int:
    spec, sim, res, tel = _run_job(args, traced=bool(args.ledger))
    print(f"CLAMR dam break: {spec.nx}^2 coarse, {spec.max_level} AMR levels, {spec.steps} steps")
    print(f"  policy       : {res.policy.describe()}")
    print(f"  scheme       : {spec.scheme}")
    print(f"  cells        : {sim.mesh.ncells}")
    print(f"  sim time     : {res.final_time:.5f}")
    print(f"  wall time    : {res.elapsed_s:.2f}s (kernel {res.kernel_elapsed_s:.2f}s)")
    print(f"  state memory : {res.state_nbytes / 1e6:.2f} MB")
    print(f"  mass drift   : {res.mass_drift:.3e}")
    print(f"  work         : {res.profile.flops / 1e9:.2f} Gflop, "
          f"{(res.profile.state_bytes + res.profile.fixed_bytes) / 1e9:.2f} GB traffic")
    if args.checkpoint:
        from repro.clamr import write_checkpoint

        nbytes = write_checkpoint(args.checkpoint, sim.mesh, sim.state)
        print(f"  checkpoint   : {args.checkpoint} ({nbytes / 1e6:.2f} MB)")
    _write_flight_file(args, tel)
    _append_record(args, spec, sim, res, tel)
    return 0


def _cmd_self(args: argparse.Namespace) -> int:
    spec, sim, res, tel = _run_job(args, traced=bool(args.ledger), viscosity=args.viscosity)
    cfg = sim.config
    dof = cfg.nex * cfg.ney * cfg.nez * (cfg.order + 1) ** 3 * 5
    print(f"SELF thermal bubble: {spec.elems}^3 elements, order {spec.order} ({dof} DOF)")
    print(f"  precision    : {res.precision}" + (f", viscosity {args.viscosity}" if args.viscosity else ""))
    print(f"  sim time     : {res.final_time:.3f}s over {res.steps} RK3 steps")
    print(f"  wall time    : {res.elapsed_s:.2f}s")
    print(f"  state memory : {res.state_nbytes / 1e6:.2f} MB")
    print(f"  w_max        : {res.max_vertical_velocity:.4f} m/s")
    print(f"  anomaly scale: {res.anomaly_scale:.3e}")
    _write_flight_file(args, tel)
    _append_record(args, spec, sim, res, tel)
    return 0


def _cmd_backends(args: argparse.Namespace) -> int:
    import os

    from repro.clamr.backends import ENV_VAR, active_backend, available_backends, resolved_backend
    from repro.harness.report import Table

    table = Table(
        title="Kernel backends (bit-identical by contract; see docs/performance.md)",
        headers=["Backend", "Available", "Detail"],
    )
    for row in available_backends():
        table.add_row(row["name"], "yes" if row["available"] else "no", row["detail"])
    print(table.render())
    env = os.environ.get(ENV_VAR)
    print(f"selected : {active_backend()}"
          + (f" (${ENV_VAR}={env})" if env else " (default)"))
    print(f"resolved : {resolved_backend()} (float16 state always runs the numpy oracle)")
    return 0


def _cmd_devices(args: argparse.Namespace) -> int:
    from repro.harness.report import Table
    from repro.machine.specs import DEVICES

    table = Table(
        title="Simulated device zoo (paper §IV-E, published nominal specs)",
        headers=["Key", "Name", "Kind", "SP Gflop/s", "DP Gflop/s", "SP:DP", "BW GB/s", "TDP W"],
    )
    for key, d in DEVICES.items():
        table.add_row(
            key, d.name, d.kind.value, d.sp_gflops, d.dp_gflops,
            round(d.sp_dp_ratio, 1), d.bandwidth_gbs, d.tdp_watts,
        )
    print(table.render())
    return 0


def _cmd_table(args: argparse.Namespace) -> int:
    from repro.harness import experiments as ex
    from repro.harness.validate import SCALES

    s = SCALES[args.scale]
    n = args.number
    if args.trace_out and n not in (1, 2, 5, 6):
        raise CLIError(
            f"table {n} does not run a single sweep; --trace-out supports tables 1, 2, 5, 6"
        )
    if args.hash_dir and n not in (1, 2, 5, 6):
        raise CLIError(
            f"table {n} does not run a single sweep; --hash-dir supports tables 1, 2, 5, 6"
        )
    if args.scenario and n not in (1, 2, 5, 6):
        raise CLIError(
            f"table {n} does not run a single sweep; --scenario supports tables 1, 2, 5, 6"
        )
    if n in (1, 2):
        runs = ex.run_clamr_levels(
            nx=s["nx"], steps=s["steps"], jobs=args.jobs, trace_out=args.trace_out,
            hash_stride=args.hash_stride, hash_dir=args.hash_dir,
            scenario=args.scenario or None,
        )
        fn = ex.table1_clamr_architectures if n == 1 else ex.table2_clamr_energy
        out = fn(runs, nx=s["nx"], steps=s["steps"])
    elif n == 3:
        out = ex.table3_vectorization(nx=s["nx"] // 2, steps=s["steps"] // 2)
    elif n == 4:
        out = ex.table4_compilers(elems=s["elems"], order=s["order"], steps=s["sst"] // 2)
    elif n in (5, 6):
        runs = ex.run_self_precisions(
            elems=s["elems"], order=s["order"], steps=s["sst"], jobs=args.jobs,
            trace_out=args.trace_out,
            hash_stride=args.hash_stride, hash_dir=args.hash_dir,
            scenario=args.scenario or None,
        )
        fn = ex.table5_self_architectures if n == 5 else ex.table6_self_energy
        out = fn(runs, elems=s["elems"], order=s["order"], steps=s["sst"])
    else:
        clamr = ex.run_clamr_levels(nx=s["nx"], steps=s["steps"], jobs=args.jobs)
        selfr = ex.run_self_precisions(
            elems=s["elems"], order=s["order"], steps=s["sst"], jobs=args.jobs
        )
        out = ex.table7_cost(
            clamr, selfr, nx=s["nx"], steps=s["steps"],
            self_elems=s["elems"], self_order=s["order"], self_steps=s["sst"],
        )
    print(out.render())
    if args.trace_out:
        print(f"merged trace: {args.trace_out}")
    if args.hash_dir:
        print(f"hash streams: {args.hash_dir}")
    return 0


def _cmd_figure(args: argparse.Namespace) -> int:
    from repro.harness import experiments as ex
    from repro.harness.validate import SCALES

    s = SCALES[args.scale]
    n = args.number
    if args.trace_out and n == 3:
        raise CLIError("figure 3 does not run a sweep; --trace-out supports figures 1, 2, 4, 5")
    if args.hash_dir and n == 3:
        raise CLIError("figure 3 does not run a sweep; --hash-dir supports figures 1, 2, 4, 5")
    if args.scenario and n == 3:
        raise CLIError("figure 3 does not run a sweep; --scenario supports figures 1, 2, 4, 5")
    if n in (1, 2):
        runs = ex.run_clamr_levels(
            nx=s["fig_nx"], steps=s["fig_steps"], jobs=args.jobs, trace_out=args.trace_out,
            hash_stride=args.hash_stride, hash_dir=args.hash_dir,
            scenario=args.scenario or None,
        )
        fn = ex.fig1_clamr_slices if n == 1 else ex.fig2_clamr_asymmetry
        out = fn(runs)
    elif n == 3:
        out = ex.fig3_precision_resolution(nx_lo=s["fig_nx"] // 2, steps_hint=s["fig_steps"] // 3)
    else:
        runs = ex.run_self_precisions(
            elems=s["elems"], order=s["order"], steps=s["sst"], jobs=args.jobs,
            trace_out=args.trace_out,
            hash_stride=args.hash_stride, hash_dir=args.hash_dir,
            scenario=args.scenario or None,
        )
        out = ex.fig4_self_slices(runs) if n == 4 else ex.fig5_self_asymmetry(runs)
    print(out.render())
    if args.trace_out:
        print(f"merged trace: {args.trace_out}")
    if args.hash_dir:
        print(f"hash streams: {args.hash_dir}")
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    from repro.precision.analysis import asymmetry_signature, difference_metrics

    levels = [x.strip() for x in args.levels.split(",")]
    if len(levels) != 2:
        print("--levels expects exactly two comma-separated names", file=sys.stderr)
        return 2
    spec = _job_spec_from_args(args)
    runs = {lvl: spec.at_level(lvl).simulation().run(spec.steps) for lvl in levels}
    a, b = (runs[lvl] for lvl in levels)
    d = difference_metrics(b.slice_precise, a.slice_precise)
    print(f"CLAMR {args.nx}^2, {args.steps} steps: {levels[0]} vs {levels[1]}")
    print(f"  max |ΔH|          : {d.max_abs:.3e}")
    print(f"  orders below soln : {d.orders_below_solution:.2f}")
    for lvl in levels:
        sig = asymmetry_signature(runs[lvl].slice_precise)
        print(f"  asymmetry {lvl:>5}   : {sig.max_abs:.3e} (relative {sig.relative_max:.3e})")
    return 0


def _strict_failures(tel, headroom_bits: float):
    """Events that fail ``trace --strict``: (fatal NaN/Inf, exhausted headroom).

    Overflow-risk watchpoints carry the remaining *decades* of dynamic range;
    the strict threshold is expressed in bits (1 decade = log2(10) ≈ 3.32
    bits), so an event fails when ``value * log2(10) < headroom_bits``.
    """
    import math

    from repro.telemetry import TelemetryBundle
    from repro.telemetry.numerics import FATAL_KINDS

    events = TelemetryBundle.of(tel).events
    fatal = [e for e in events if e.kind in FATAL_KINDS]
    exhausted = [
        e
        for e in events
        if e.kind == "overflow_risk" and e.value * math.log2(10.0) < headroom_bits
    ]
    return fatal, exhausted


def _cmd_trace(args: argparse.Namespace) -> int:
    from repro.telemetry import (
        TelemetryBundle,
        event_report,
        span_summary,
        span_tree,
        write_chrome_trace,
        write_jsonl,
    )

    spec, _sim, res, tel = _run_job(args, traced=True)
    if spec.workload == "clamr":
        print(f"CLAMR dam break: {spec.nx}^2 coarse, {spec.max_level} AMR levels, "
              f"{spec.steps} steps, policy {spec.policy}")
        print(f"  wall {res.elapsed_s:.3f}s (kernel {res.kernel_elapsed_s:.3f}s), "
              f"mass drift {res.mass_drift:.3e}")
    else:
        print(f"SELF thermal bubble: {spec.elems}^3 elements, order {spec.order}, "
              f"{spec.steps} steps, precision {spec.precision}")
        print(f"  wall {res.elapsed_s:.3f}s (kernel {res.kernel_elapsed_s:.3f}s)")

    bundle = TelemetryBundle.of(tel)
    print()
    print(span_tree(bundle))
    print()
    print(span_summary(bundle).render())
    print()
    print(event_report(bundle))
    if args.out:
        path = write_chrome_trace(bundle, args.out)
        print(f"chrome trace : {path}")
    if args.jsonl:
        path = write_jsonl(bundle, args.jsonl)
        print(f"jsonl trace  : {path}")
    _write_flight_file(args, bundle, indent="")
    if args.strict:
        fatal, exhausted = _strict_failures(bundle, args.strict_headroom_bits)
        if fatal:
            print(f"STRICT: {len(fatal)} NaN/Inf event(s) recorded", file=sys.stderr)
        if exhausted:
            print(
                f"STRICT: {len(exhausted)} overflow-headroom event(s) below "
                f"{args.strict_headroom_bits:g} bits",
                file=sys.stderr,
            )
        if fatal or exhausted:
            return 1
    return 0


def _load_flight_or_digest(path):
    """A :class:`FlightRecorder` from a flight.jsonl, or a digest dict.

    ``repro flight compare`` accepts either form on either side; the
    first line decides (a flight.jsonl always opens with its
    ``flight_meta`` record, a digest file is one indented JSON object).
    """
    import json

    from repro.telemetry.flight import read_flight

    p = _require_file(path, "flight file")
    with p.open(encoding="utf-8") as fh:
        first = fh.readline()
    if '"flight_meta"' in first:
        return read_flight(p)
    try:
        doc = json.loads(p.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise CLIError(f"{p} is neither a flight.jsonl nor a digest JSON ({exc})")
    if not isinstance(doc, dict) or "signals" not in doc:
        raise CLIError(f"{p}: JSON object is not a flight digest (no 'signals' key)")
    return doc


def _cmd_flight(args: argparse.Namespace) -> int:
    import json

    from repro.telemetry.flight import (
        compare_digests,
        flight_counter_trace,
        flight_digest,
        flight_report,
        read_flight,
    )

    if args.flight_command == "report":
        flight = read_flight(_require_file(args.file, "flight file"))
        print(flight_report(flight, width=args.width))
        return 0

    if args.flight_command == "digest":
        loaded = _load_flight_or_digest(args.file)
        digest = loaded if isinstance(loaded, dict) else flight_digest(loaded)
        text = json.dumps(digest, indent=2, sort_keys=True)
        print(text)
        if args.out:
            from pathlib import Path

            Path(args.out).write_text(text + "\n", encoding="utf-8")
            print(f"wrote {args.out}")
        return 0

    if args.flight_command == "compare":
        from repro.telemetry.flight import flight_compare

        a = _load_flight_or_digest(args.a)
        b = _load_flight_or_digest(args.b)
        if isinstance(a, dict) or isinstance(b, dict):
            # at least one side is already a digest: compare digests
            da = a if isinstance(a, dict) else flight_digest(a)
            db = b if isinstance(b, dict) else flight_digest(b)
            problems = compare_digests(da, db, rtol=args.rtol)
            if not problems:
                print(f"flight digests match ({da.get('hash')})"
                      + (f" within rtol {args.rtol:g}" if args.rtol else ""))
                return 0
            for line in problems:
                print(f"  {line}")
            print(f"flight digests differ: {len(problems)} field(s)")
            return 1
        table, mismatches = flight_compare(a, b, rtol=args.rtol)
        print(table.render())
        if mismatches:
            print(f"flights differ: {mismatches} mismatched value(s)")
            return 1
        return 0

    if args.flight_command == "export":
        flight = read_flight(_require_file(args.file, "flight file"))
        trace = flight_counter_trace(flight)
        from pathlib import Path

        with Path(args.out).open("w", encoding="utf-8") as fh:
            json.dump(trace, fh)
        counters = sum(1 for e in trace["traceEvents"] if e.get("ph") == "C")
        print(f"wrote {args.out}: {counters} counter samples, "
              f"{len(flight.signal_names)} signals")
        return 0

    raise ValueError(f"unknown flight command {args.flight_command!r}")  # pragma: no cover


def _cmd_ledger(args: argparse.Namespace) -> int:
    from repro.ledger import Ledger

    if args.ledger_command == "record":
        from repro.ledger import run_workload

        spec = _job_spec_from_args(args)
        _apply_backend(args)
        ledger = Ledger(args.ledger)
        for i in range(max(1, args.runs)):
            record, tel = run_workload(spec, flight_stride=args.flight_stride)
            ledger.append(record)
            fatal = record.fidelity["nan_events"] + record.fidelity["inf_events"]
            print(
                f"recorded {record.label} run {i + 1}/{args.runs}: "
                f"fingerprint {record.fingerprint}, wall {record.wall_s:.3f}s, "
                f"drift {record.fidelity['mass_drift']:.3e}, fatal events {fatal}"
            )
            if args.trace_dir:
                from pathlib import Path

                from repro.telemetry import write_chrome_trace, write_jsonl

                out = Path(args.trace_dir)
                out.mkdir(parents=True, exist_ok=True)
                stem = f"{record.label.replace('/', '_')}.run{len(ledger.by_fingerprint(record.fingerprint))}"
                write_chrome_trace(tel, out / f"{stem}.trace.json")
                write_jsonl(tel, out / f"{stem}.jsonl")
        print(f"ledger: {ledger.path} ({len(ledger)} records)")
        return 0

    if args.ledger_command == "report":
        from repro.ledger import ledger_summary, trend_table

        _require_file(args.ledger, "ledger")
        ledger = Ledger(args.ledger)
        if not len(ledger):
            print(f"ledger {ledger.path} is empty")
            return 0
        print(ledger_summary(ledger, last=args.last).render())
        print()
        print(trend_table(ledger, last=args.last).render())
        return 0

    if args.ledger_command == "compare":
        from repro.ledger import compare_table

        _require_file(args.ledger, "ledger")
        ledger = Ledger(args.ledger)
        runs_a = ledger.by_fingerprint(args.a)
        runs_b = ledger.by_fingerprint(args.b)
        for name, runs in ((args.a, runs_a), (args.b, runs_b)):
            if not runs:
                print(f"no records match fingerprint {name!r}", file=sys.stderr)
                return 2
        print(compare_table(runs_a, runs_b).render())
        return 0

    if args.ledger_command == "gate":
        from repro.ledger import GateConfig, gate_ledger

        _require_file(args.ledger, "ledger")
        _require_file(args.baseline, "baseline ledger")
        config = GateConfig(
            rel_floor=args.rel_floor,
            mad_z=args.mad_z,
            min_kernel_s=args.min_kernel_ms / 1e3,
            require_baseline=args.require_baseline,
        )
        result = gate_ledger(Ledger(args.ledger), Ledger(args.baseline), config)
        print(result.render())
        return 0 if result.passed else 1

    if args.ledger_command == "export-bench":
        from repro.ledger import write_bench

        _require_file(args.ledger, "ledger")
        ledger = Ledger(args.ledger)
        path = write_bench(ledger, args.out, window=args.window)
        import json

        doc = json.loads(path.read_text())
        print(f"wrote {path}: {len(doc['entries'])} entries from {len(ledger)} run records")
        return 0

    raise ValueError(f"unknown ledger command {args.ledger_command!r}")  # pragma: no cover


def _resil_plan(args: argparse.Namespace, array_names):
    """The FaultPlan of ``--fault`` (and ``--faults``), checked against the
    run's ``array_names`` and ``--steps``, seeded by ``--seed``."""
    from repro.resilience import FaultPlan, FaultSpec

    specs = [FaultSpec.parse(text) for text in args.fault]
    for spec in specs:
        if spec.array not in array_names:
            raise CLIError(
                f"fault targets unknown array {spec.array!r}; "
                f"{args.workload} exposes {sorted(array_names)}"
            )
        if spec.step > args.steps:
            raise CLIError(
                f"fault step {spec.step} is beyond the run ({args.steps} steps)"
            )
    if getattr(args, "faults", 0) > 0:
        generated = FaultPlan.generate(
            seed=args.seed,
            arrays=tuple(array_names),
            steps=(1, args.steps),
            count=args.faults,
        )
        specs.extend(generated.specs)
    return FaultPlan(specs=tuple(specs), seed=args.seed)


def _cmd_resilience(args: argparse.Namespace) -> int:
    from repro.telemetry import TelemetrySpec

    spec = _job_spec_from_args(args)
    if args.resilience_command == "campaign":
        from repro.resilience import CampaignConfig, run_campaign, vulnerability_table

        config = CampaignConfig(
            spec,
            arrays=tuple(x.strip() for x in args.arrays.split(",")) if args.arrays else (),
            kinds=tuple(x.strip() for x in args.kinds.split(",")),
            levels=tuple(x.strip() for x in args.levels.split(",")),
            fault_step=args.fault_step,
            trials=args.trials,
        )
        ledger = None
        if args.ledger:
            from repro.ledger import Ledger

            ledger = Ledger(args.ledger)

        def show(cell) -> None:
            status = "aborted" if cell.aborted else (
                "recovered" if cell.recovered else (
                    "silent" if not cell.detected else "detected"))
            print(f"  {cell.level:>5} {cell.array:>5} {cell.kind:<8} -> {status}")

        print(f"campaign: {spec.workload}, levels {','.join(config.levels)}, "
              f"kinds {','.join(config.kinds)}")
        result = run_campaign(
            config, ledger=ledger, progress=show, jobs=args.jobs,
            trace_out=args.trace_out,
        )
        print()
        print(vulnerability_table(result).render())
        if ledger is not None:
            print(f"ledger: {ledger.path} ({len(ledger)} records)")
        if args.trace_out:
            print(f"merged trace: {args.trace_out}")
        return 0

    from repro.resilience import make_adapter

    tel = TelemetrySpec(label=f"resilience/{spec.workload}/{spec.policy}", watch_stride=0).build()
    adapter = make_adapter(spec, tel)
    plan = _resil_plan(args, adapter.arrays().keys())

    if args.resilience_command == "inject":
        from repro.resilience import probe

        report = probe(adapter, plan, spec.steps)
        print(report.summary())
        detected = {d.step for d in report.detections}
        undetected = [f for f in report.faults if f.step not in detected]
        for f in undetected:
            print(f"  UNDETECTED   : {f.describe()} (silent corruption candidate)")
        if args.footprint:
            if not plan.specs:
                raise CLIError("--footprint needs at least one --fault/--faults")
            from repro.diverge import fault_footprint

            fp = fault_footprint(plan, spec)
            print(f"  footprint    : {fp['summary']}")
            if fp["diverged"]:
                match = "at the injection site" if fp["site_match"] else \
                    "away from the injection site"
                print(f"  localization : {match}, "
                      f"latency {fp['latency_steps']} step(s)")
            else:
                print("  localization : fault left no bit-level trace "
                      "(masked or overwritten)")
        return 0

    if args.resilience_command == "run":
        from repro.resilience import RecoveryPolicy, ResilientRunner
        from repro.resilience.campaign import record_resilient_run

        ladder = tuple(x.strip() for x in args.ladder.split(",") if x.strip())
        policy = RecoveryPolicy(
            checkpoint_interval=args.checkpoint_interval,
            detect_stride=args.detect_stride,
            max_detect_stride=args.max_detect_stride,
            ladder=ladder,
            max_rollbacks=args.max_rollbacks,
            conservation_bound=args.conservation_bound,
        )
        runner = ResilientRunner(adapter, plan=plan, policy=policy)
        report = runner.run(spec.steps)
        print(report.summary())
        if args.ledger and report.result is not None:
            from repro.ledger import Ledger

            record = record_resilient_run(report, runner, label=spec.label or tel.label)
            Ledger(args.ledger).append(record)
            print(f"  ledger       : {args.ledger} += {record.fingerprint}")
        return 1 if report.aborted else 0

    raise ValueError(  # pragma: no cover
        f"unknown resilience command {args.resilience_command!r}"
    )


def _write_json_report(path, text: str) -> None:
    from pathlib import Path

    Path(path).write_text(text + "\n", encoding="utf-8")
    print(f"wrote {path}")


def _cmd_diverge(args: argparse.Namespace) -> int:
    if args.diverge_command == "record":
        from repro.diverge import record_run
        from repro.resilience import make_adapter

        spec = _job_spec_from_args(args)
        plan = _resil_plan(args, make_adapter(spec).arrays()) if args.fault else None
        run = record_run(
            args.out,
            spec,
            vectorized=not args.scalar,
            scatter=args.scatter,
            hash_stride=args.hash_stride,
            hash_chunk=args.hash_chunk,
            checkpoint_interval=args.checkpoint_interval,
            plan=plan,
        )
        print(f"recorded {spec.workload}: {run.steps} steps, "
              f"{run.ladder.nsteps} hashed (stride {run.ladder.stride}), "
              f"root {run.root}")
        for ev in run.injected:
            print(f"  injected     : {ev.describe()}")
        if run.checkpoint_steps:
            print(f"  checkpoints  : steps {run.checkpoint_steps}")
        print(f"  run dir      : {run.out}")
        return 0

    if args.diverge_command == "compare":
        from repro.diverge import compare_paths

        report = compare_paths(
            _require_file(args.a, "hash stream"),
            _require_file(args.b, "hash stream"),
        )
        print(report.summary())
        for line in report.meta_mismatch:
            print(f"  meta         : {line}")
        if args.json:
            _write_json_report(args.json, report.to_json())
        return 1 if report.diverged else 0

    if args.diverge_command == "replay":
        from repro.diverge import replay

        report = replay(
            _require_file(args.a, "run directory"),
            _require_file(args.b, "run directory"),
            pad=args.pad,
        )
        print(report.summary())
        if report.diverged and report.ulp_curve:
            print(f"  window       : steps {report.start_step}..{report.stop_step} "
                  f"(ckpt {report.ckpt_a or 'start'} / {report.ckpt_b or 'start'})")
            for point in report.ulp_curve:
                print(f"  step {point['step']:>5}  max {point['max_ulp']:.3g} ULP")
            if report.offending:
                off = report.offending
                st = off.get("stats", {})
                print(f"  offending    : {off['field']} ({st.get('dtype', '?')}), "
                      f"{st.get('count_diff', 0)}/{st.get('n', 0)} values differ, "
                      f"max {st.get('max_ulp', 0):.3g} / mean {st.get('mean_ulp', 0):.3g} ULP")
        if args.json:
            _write_json_report(args.json, report.to_json())
        return 1 if report.diverged else 0

    if args.diverge_command == "report":
        from repro.diverge import onset_curve

        spec = _job_spec_from_args(args)
        pair = args.pair or ("min,full" if spec.workload == "clamr" else "single,double")
        parts = tuple(x.strip() for x in pair.split(","))
        if len(parts) != 2:
            raise CLIError(f"--pair expects exactly two comma-separated names, got {pair!r}")
        report = onset_curve(spec, parts)
        print(report.summary())
        for point in report.curve:
            worst = max(point["fields"], key=lambda f: point["fields"][f]["max_ulp"])
            print(f"  step {point['step']:>5}  max {point['max_ulp']:.3g} ULP "
                  f"(worst field: {worst})")
        if args.json:
            _write_json_report(args.json, report.to_json())
        return 0

    raise ValueError(f"unknown diverge command {args.diverge_command!r}")  # pragma: no cover


def _cmd_validate(args: argparse.Namespace) -> int:
    from repro.harness.validate import validate_reproduction

    checks = validate_reproduction(scale=args.scale, scenarios=not args.no_scenarios)
    failed = [c for c in checks if not c.passed]
    for check in checks:
        print(check)
    print(f"\n{len(checks) - len(failed)}/{len(checks)} claims reproduced at scale '{args.scale}'")
    return 1 if failed else 0


def _cmd_scenario(args: argparse.Namespace) -> int:
    from repro.scenarios import all_scenarios, gate_scenarios, record_scenario, validate_scenario

    if args.scenario_command == "list":
        from repro.harness.report import Table

        table = Table(
            title="Registered scenarios (see docs/scenarios.md)",
            headers=["Name", "Quick", "Bench", "Policy", "Description"],
        )

        def shape(sc, scale: str) -> str:
            size = sc.scale(scale)
            if sc.family == "clamr":
                return f"{size['nx']}^2 x{size['steps']}"
            return f"{size['elems']}^3 o{size['order']} x{size['steps']}"

        for sc in all_scenarios():
            table.add_row(
                sc.name, shape(sc, "quick"), shape(sc, "bench"),
                sc.fingerprint_policy, sc.description,
            )
        print(table.render())
        return 0

    if args.scenario_command == "run":
        if args.ledger:
            from repro.ledger import Ledger

            record = record_scenario(args.name, scale=args.scale, policy=args.policy,
                                     seed=args.seed)
            ledger = Ledger(args.ledger)
            ledger.append(record)
            print(f"{args.name} [{args.scale}]: recorded")
            print(f"  workload key : {record.workload_key}")
            print(f"  fingerprint  : {record.fingerprint}")
            print(f"  wall time    : {record.wall_s:.3f}s")
            print(f"  ledger       : {ledger.path} ({len(ledger)} records)")
            return 0
        from repro.scenarios import scenario_spec
        from repro.workload import resolve_scenario

        sc = resolve_scenario(args.name)
        spec = scenario_spec(sc, args.scale, args.policy)
        sim = spec.simulation()
        res = sim.run(spec.steps)
        print(f"{sc.name} [{args.scale}]: {sc.description}")
        print(f"  policy       : {spec.policy_name}")
        print(f"  steps        : {spec.steps}")
        print(f"  sim time     : {res.final_time:.5f}")
        print(f"  wall time    : {res.elapsed_s:.2f}s (kernel {res.kernel_elapsed_s:.2f}s)")
        if sc.family == "clamr":
            print(f"  cells        : {sim.mesh.ncells}")
            print(f"  mass drift   : {res.mass_drift:.3e}")
        else:
            print(f"  w_max        : {res.max_vertical_velocity:.4f} m/s")
            print(f"  anomaly scale: {res.anomaly_scale:.3e}")
        return 0

    if args.scenario_command == "validate":
        from repro.scenarios import scenario_names

        names = list(args.names) or scenario_names()
        failed = 0
        total = 0
        for name in names:
            _run, checks = validate_scenario(name, scale=args.scale)
            for check in checks:
                print(check)
                total += 1
                failed += not check.passed
        print(f"\n{total - failed}/{total} acceptance checks passed "
              f"at scale '{args.scale}'")
        return 1 if failed else 0

    if args.scenario_command == "gate":
        baseline = _require_file(args.baseline, "baseline ledger")
        checks = gate_scenarios(baseline, names=list(args.names) or None)
        failed = [c for c in checks if not c.passed]
        for check in checks:
            print(check)
        print(f"\n{len(checks) - len(failed)}/{len(checks)} golden checks passed")
        return 1 if failed else 0

    raise ValueError(f"unknown scenario command {args.scenario_command!r}")  # pragma: no cover


def _cmd_submit(args: argparse.Namespace) -> int:
    from repro.service import JobQueue

    if args.repeat < 1:
        raise CLIError(f"--repeat must be a positive integer, got {args.repeat}")
    spec = _job_spec_from_args(args)
    queue = JobQueue(args.queue)
    for _ in range(args.repeat):
        job = queue.submit(spec)
        print(f"submitted {job.id} ({spec.describe()})")
        print(f"  workload key : {job.workload_key}")
    counts = queue.counts()
    print(f"  queue        : {args.queue} ({counts['pending']} pending)")
    return 0


def _worker_options(args: argparse.Namespace, drain: bool):
    from repro.service import RetryPolicy, WorkerOptions

    if args.max_attempts < 1:
        raise CLIError(f"--max-attempts must be a positive integer, got {args.max_attempts}")
    from pathlib import Path

    return WorkerOptions(
        queue=Path(args.queue),
        ledger=Path(args.ledger) if args.ledger else None,
        cache=Path(args.cache) if getattr(args, "cache", None) else None,
        retry=RetryPolicy(max_attempts=args.max_attempts),
        lease_ttl_s=getattr(args, "lease_ttl", 30.0),
        poll_s=args.poll,
        max_jobs=getattr(args, "max_jobs", 0),
        idle_timeout_s=getattr(args, "idle_timeout", 0.0),
        drain=drain,
    )


def _cmd_serve(args: argparse.Namespace) -> int:
    import os
    import signal

    from repro.service import run_worker

    opts = _worker_options(args, drain=False)
    stopping = {"flag": False}

    def _stop(signum, frame):  # noqa: ARG001 — signal handler signature
        stopping["flag"] = True

    # finish the current job, then exit cleanly on SIGTERM/SIGINT
    for sig in (signal.SIGTERM, signal.SIGINT):
        try:
            signal.signal(sig, _stop)
        except (ValueError, OSError):  # pragma: no cover — non-main thread
            pass
    print(f"serving queue {args.queue} (pid {os.getpid()}, "
          f"lease ttl {opts.lease_ttl_s:g}s, "
          f"max attempts {opts.retry.max_attempts})")
    report = run_worker(opts, should_stop=lambda: stopping["flag"])
    print(report.summary())
    return 0


def _cmd_queue(args: argparse.Namespace) -> int:
    import json as _json

    from repro.service import JobQueue, RetryPolicy, run_worker

    if args.queue_command == "status":
        queue = JobQueue(_require_file(args.queue, "queue directory"))
        status = queue.status()
        if args.json:
            print(_json.dumps(status, sort_keys=True, indent=2))
            return 0
        counts = status["counts"]
        print(f"queue {status['root']}")
        print("  " + "  ".join(f"{state}: {counts[state]}" for state in counts))
        print(f"  done         : {status['done_computed']} computed, "
              f"{status['done_cached']} cache hit(s)")
        for entry in status["stale"]:
            print(f"  stale lease  : {entry['id']} [{entry['state']}] {entry['reason']}")
        for job_id, reason in status["quarantine"].items():
            print(f"  quarantined  : {job_id}: {reason}")
        return 0

    if args.queue_command == "reclaim":
        queue = JobQueue(_require_file(args.queue, "queue directory"))
        actions = queue.reclaim_stale(RetryPolicy(max_attempts=args.max_attempts))
        for action in actions:
            print(action)
        print(f"{len(actions)} job(s) reclaimed or quarantined")
        return 0

    if args.queue_command == "drain":
        import time as _time

        _require_file(args.queue, "queue directory")
        opts = _worker_options(args, drain=True)
        deadline = _time.monotonic() + args.timeout if args.timeout > 0 else None
        report = run_worker(
            opts,
            should_stop=(lambda: _time.monotonic() > deadline) if deadline else None,
        )
        print(report.summary())
        queue = JobQueue(args.queue)
        counts = queue.counts()
        leftovers = queue.active_count() + counts["failed"] + counts["quarantine"]
        if leftovers:
            print(f"queue not clean: {queue.active_count()} active, "
                  f"{counts['failed']} failed, {counts['quarantine']} quarantined")
            return 1
        print("queue drained clean")
        return 0

    raise ValueError(f"unknown queue command {args.queue_command!r}")  # pragma: no cover


_COMMANDS = {
    "clamr": _cmd_clamr,
    "self": _cmd_self,
    "devices": _cmd_devices,
    "backends": _cmd_backends,
    "table": _cmd_table,
    "figure": _cmd_figure,
    "compare": _cmd_compare,
    "validate": _cmd_validate,
    "trace": _cmd_trace,
    "flight": _cmd_flight,
    "ledger": _cmd_ledger,
    "resilience": _cmd_resilience,
    "diverge": _cmd_diverge,
    "scenario": _cmd_scenario,
    "submit": _cmd_submit,
    "serve": _cmd_serve,
    "queue": _cmd_queue,
}


def _check_run_flags(args: argparse.Namespace) -> None:
    """Each run flag the command took, by JobSpec's own rule and message."""
    from repro.service.jobs import JobSpec

    for name in getattr(args, "run_flags", ()):
        JobSpec.check_field(name, getattr(args, name), getattr(args, "workload", ""))


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        _check_run_flags(args)
        return _COMMANDS[args.command](args)
    except NonFiniteStepError as exc:
        # a run that broke down numerically: its one-line diagnosis
        print(f"repro: {exc}", file=sys.stderr)
        return 1
    except (CLIError, ValueError, OSError) as exc:
        # user-facing failures (bad arguments, missing files) get one
        # line on stderr and status 2 — never a traceback
        print(f"repro: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
