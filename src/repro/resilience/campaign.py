"""Fault-injection campaigns: sweep fault sites × precision levels.

One campaign cell = one supervised run with exactly one planned fault:
(array × fault kind × precision level × trial).  The sweep answers the
question the paper's precision analysis leaves open — *which* state
arrays, under *which* precision levels, are actually vulnerable, and
does the recovery machinery bring the run home when they are hit:

* **detection rate** — did any detector fire after the injection?  An
  undetected fault that still changed the answer is *silent data
  corruption*, the scariest row of the report;
* **recovery rate** — among detected faults, did rollback + the recovery
  ladder complete the run (not abort)?
* **post-recovery drift** — the conserved-total drift of the completed
  run, the "did recovery actually preserve the physics" number the
  ledger gate bands.

Each cell can be recorded into the run ledger (its fault plan and
recovery policy are hashed into the workload identity, so campaign
records never collide with plain runs), which makes campaign fidelity
regressions gateable like any other workload.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.parallel.executor import SweepExecutor, SweepTask, derive_seed, resolve_jobs
from repro.resilience.adapters import make_adapter
from repro.resilience.faults import FAULT_KINDS, FaultPlan, FaultSpec
from repro.resilience.runner import RecoveryPolicy, ResilienceReport, ResilientRunner
from repro.telemetry import TelemetrySpec

__all__ = [
    "CampaignConfig",
    "CellOutcome",
    "CampaignResult",
    "run_cell",
    "run_campaign",
    "record_resilient_run",
    "vulnerability_table",
]

_CLAMR_ARRAYS = ("H", "U", "V")
_SELF_ARRAYS = ("rho", "rhou", "rhow", "rhoE")


@dataclass(frozen=True)
class CampaignConfig:
    """The sweep over one run: :class:`~repro.service.JobSpec` ``spec``.

    Each cell runs ``spec.at_level(level)``; ``spec.seed`` seeds the
    cells' fault plans.  By default each of the workload's campaign
    arrays (SELF's omit ``rhov``) takes every fault kind at three
    precision levels, halfway through the run.
    """

    spec: "repro.service.JobSpec"
    arrays: tuple[str, ...] = ()
    kinds: tuple[str, ...] = FAULT_KINDS
    levels: tuple[str, ...] = ("min", "mixed", "full")
    fault_step: int = 0  # 0 => mid-run
    trials: int = 1

    def resolved_arrays(self) -> tuple[str, ...]:
        if self.arrays:
            return self.arrays
        return _CLAMR_ARRAYS if self.spec.workload == "clamr" else _SELF_ARRAYS

    def resolved_fault_step(self) -> int:
        return self.fault_step if self.fault_step > 0 else max(1, self.spec.steps // 2)


@dataclass(frozen=True)
class CellOutcome:
    """One campaign cell reduced to the report numbers."""

    array: str
    kind: str
    level: str
    trial: int
    detected: bool
    recovered: bool
    completed: bool
    aborted: bool
    escalations: int
    rollbacks: int
    drift: float
    wall_s: float


@dataclass
class CampaignResult:
    """All cells plus the sweep config that produced them."""

    config: CampaignConfig
    cells: list[CellOutcome] = field(default_factory=list)

    def rate(self, predicate) -> float:
        if not self.cells:
            return 0.0
        return sum(1 for c in self.cells if predicate(c)) / len(self.cells)


def run_cell(
    config: CampaignConfig,
    array: str,
    kind: str,
    level: str,
    trial: int = 0,
    recovery: RecoveryPolicy = RecoveryPolicy(),
    telemetry=None,
) -> tuple[CellOutcome, ResilienceReport, ResilientRunner]:
    """Run one supervised cell: one fault into one array at one level."""
    adapter = make_adapter(config.spec.at_level(level), telemetry)
    # the cell seed folds the sweep coordinates in deterministically
    # (stable across processes, unlike hash()), so re-running the
    # campaign with the same seed replays every cell — and running it
    # under --jobs N replays the same cells regardless of worker count
    cell_seed = derive_seed(config.spec.seed, array, kind, level, trial)
    plan = FaultPlan(
        specs=(FaultSpec(kind=kind, array=array, step=config.resolved_fault_step()),),
        seed=cell_seed,
    )
    runner = ResilientRunner(adapter, plan=plan, policy=recovery)
    report = runner.run(config.spec.steps)
    injected_steps = {f.step for f in report.faults}
    detected = any(d.step >= min(injected_steps, default=0) for d in report.detections)
    outcome = CellOutcome(
        array=array,
        kind=kind,
        level=level,
        trial=trial,
        detected=detected,
        recovered=detected and report.completed,
        completed=report.completed,
        aborted=report.aborted,
        escalations=report.escalations,
        rollbacks=report.rollbacks,
        drift=report.post_recovery_drift,
        wall_s=report.wall_s,
    )
    return outcome, report, runner


def _campaign_cell_task(config, recovery, array, kind, level, trial, want_record,
                        telemetry=None):
    """Worker body for one campaign cell: run it, reduce it to picklables.

    Module-level so :class:`SweepExecutor` can ship it to a worker
    process.  The telemetry arrives from the task's
    :class:`TelemetrySpec` (built worker-side, shipped back as a frozen
    bundle the parent can merge into one campaign trace).  The ledger
    record is *built* here (it only needs the report and runner, which
    stay worker-side) but *appended* by the parent, which owns the
    ledger file — appends stay serialized and in sweep order.
    """
    outcome, report, runner = run_cell(
        config, array, kind, level, trial=trial, recovery=recovery, telemetry=telemetry
    )
    record = None
    if want_record and report.result is not None:
        record = record_resilient_run(report, runner, label=getattr(telemetry, "label", ""))
    return outcome, record


def run_campaign(
    config: CampaignConfig,
    recovery: RecoveryPolicy = RecoveryPolicy(),
    ledger=None,
    progress=None,
    jobs: int = 1,
    trace_out=None,
) -> CampaignResult:
    """Sweep arrays × kinds × levels × trials; optionally ledger each cell.

    ``jobs`` spreads the cells over worker processes (clamped to the
    sweep size).  Cell seeds are derived from sweep coordinates, so the
    same faults fire at any worker count; outcomes, progress callbacks
    and ledger appends happen in the parent in sweep order, making a
    parallel campaign's artifacts identical to a serial one's up to
    wall-clock fields.  ``trace_out`` merges every cell's telemetry
    bundle into one Chrome trace, one pid lane per cell in sweep order.
    """
    coords = [
        (array, kind, level, trial)
        for level in config.levels
        for array in config.resolved_arrays()
        for kind in config.kinds
        for trial in range(max(1, config.trials))
    ]
    tasks = [
        SweepTask(
            name=f"{level}/{array}/{kind}/t{trial}",
            fn=_campaign_cell_task,
            args=(config, recovery, array, kind, level, trial, ledger is not None),
            telemetry=TelemetrySpec(
                label=f"resilience/{config.spec.workload}/{level}/{array}/{kind}/t{trial}",
                watch_stride=0,
            ),
        )
        for (array, kind, level, trial) in coords
    ]
    jobs = resolve_jobs(jobs, max(1, len(tasks)))
    result = CampaignResult(config=config)
    bundles = []
    for _, traced in SweepExecutor(jobs).stream(tasks):
        outcome, record = traced.value
        bundles.append(traced.bundle)
        result.cells.append(outcome)
        if progress is not None:
            progress(outcome)
        if ledger is not None and record is not None:
            ledger.append(record)
    if trace_out is not None and bundles:
        from repro.telemetry import write_merged_chrome_trace

        write_merged_chrome_trace(bundles, trace_out)
    return result


def record_resilient_run(report: ResilienceReport, runner: ResilientRunner, label: str = ""):
    """Reduce one supervised run to a ledger :class:`RunRecord`.

    The run is the adapter's JobSpec, from the config it started at, and
    its seed is the spec's.  The fault plan and recovery policy enter the
    hashed config (so a resilience run can never share a workload key
    with an unsupervised run of the same shape), and the resilience
    counters merge into the record's fidelity dict — which is not part
    of the hash, exactly like every other measured outcome.
    """
    from repro.ledger.runner import record_job

    if report.result is None:
        raise ValueError("cannot record an aborted run that never completed a step")
    adapter = runner.adapter
    tel = getattr(adapter, "telemetry", None)
    if tel is None:
        # empty stand-in: the record builders only read spans/numerics
        tel = TelemetrySpec(watch_stride=0).build()
    record = record_job(
        adapter.spec, report.result, tel, config=adapter.config, label=label,
        extra={"resilience": {"plan": runner.plan.to_config(),
                              "recovery": runner.policy.to_config()}},
    )
    record.fidelity.update(report.fidelity())
    return record


def vulnerability_table(result: CampaignResult):
    """The campaign's headline artifact: rates per (level × array × kind)."""
    from repro.harness.report import Table

    cfg = result.config
    table = Table(
        title=(
            f"Vulnerability report: {cfg.spec.workload}, {cfg.spec.steps} steps, "
            f"fault at step {cfg.resolved_fault_step()}, {max(1, cfg.trials)} trial(s)/cell"
        ),
        headers=[
            "Level", "Array", "Fault", "Detected", "Recovered", "Aborted",
            "Escalations", "Drift",
        ],
    )
    groups: dict[tuple[str, str, str], list[CellOutcome]] = {}
    for c in result.cells:
        groups.setdefault((c.level, c.array, c.kind), []).append(c)
    for (level, array, kind), cells in groups.items():
        n = len(cells)
        table.add_row(
            level,
            array,
            kind,
            f"{sum(c.detected for c in cells)}/{n}",
            f"{sum(c.recovered for c in cells)}/{n}",
            f"{sum(c.aborted for c in cells)}/{n}",
            sum(c.escalations for c in cells),
            max(c.drift for c in cells),
        )
    detected = result.rate(lambda c: c.detected)
    recovered = result.rate(lambda c: c.completed)
    table.notes.append(
        f"overall: {100 * detected:.0f}% of faults detected, "
        f"{100 * recovered:.0f}% of runs completed; "
        "undetected cells are silent-corruption candidates"
    )
    return table
