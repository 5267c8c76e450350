"""Record driver: run a workload with the hash ladder + run metadata.

``repro diverge record`` needs more than the in-sim ladder hooks give:
it must drive the simulation step by step so it can (a) apply planned
faults *after* each completed step — the same probe model
``repro.resilience`` uses, so a recorded divergence is directly
comparable to an injection plan — (b) hash the post-step (and therefore
post-injection) state under a driver-level ``state`` site, and (c) drop
periodic on-disk checkpoints that ``repro diverge replay`` can resume
from bit-identically.

Each recorded run is a directory::

    <out>/hashes.jsonl     the hash ladder (schema-versioned, atomic)
    <out>/run.json         workload + config + knobs + fault plan
    <out>/ckpt-<step>.bin  optional checkpoints (content-hashed headers)

The run is a :class:`repro.service.JobSpec`.  ``run.json`` carries
everything :mod:`repro.diverge.rerun` needs to rebuild that JobSpec and
check it against the recorded config dataclass — plus the scatter
backend, the kernel path and the fault plan — so a run directory is a
self-contained reproduction recipe.

:func:`fault_footprint` is the resilience-campaign integration: record
a clean and a faulted twin of the same workload in memory and report
each fault's corruption footprint (first-divergence step/site/field vs
the injection site).
"""

from __future__ import annotations

import contextlib
import json
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Any

from repro import ioutil
from repro.diverge.compare import compare_ladders
from repro.diverge.ladder import StateHashLadder, ladder_digest, write_hashes

__all__ = ["RUN_SCHEMA_VERSION", "RecordedRun", "record_run", "fault_footprint"]

#: Bump when run.json changes incompatibly.
RUN_SCHEMA_VERSION = 1

#: Driver-level site name: the post-step, post-injection state probe.
STATE_SITE = "state"


@dataclass
class RecordedRun:
    """What one record pass produced."""

    out: Path | None
    ladder: StateHashLadder
    workload: str
    steps: int
    injected: list = field(default_factory=list)
    checkpoint_steps: list[int] = field(default_factory=list)
    result: Any = None

    @property
    def root(self) -> str:
        return self.ladder.root()


def _write_checkpoint(path: Path, adapter) -> None:
    if adapter.workload == "clamr":
        from repro.clamr.checkpoint import write_checkpoint

        write_checkpoint(path, adapter.sim.mesh, adapter.sim.state)
    else:
        from repro.self_.checkpoint import write_state

        write_state(path, adapter.sim.mesh, adapter.sim.U)


def _scatter_context(workload: str, scatter: str):
    if workload != "clamr" or not scatter:
        return contextlib.nullcontext()
    from repro.clamr.kernels import scatter_mode

    return scatter_mode(scatter)


def record_run(
    out: str | Path | None,
    spec,
    *,
    vectorized: bool = True,
    scatter: str = "plan",
    hash_stride: int = 1,
    hash_chunk: int = 4096,
    checkpoint_interval: int = 0,
    plan=None,
) -> RecordedRun:
    """Run :class:`~repro.service.JobSpec` ``spec`` with the ladder
    attached; persist if ``out`` is set.

    ``vectorized`` and ``scatter`` pick CLAMR kernel implementations that
    give the same bits.  The ladder is labelled ``spec.label``, else
    ``diverge/<scenario or workload>``.  ``plan`` is an optional
    :class:`repro.resilience.faults.FaultPlan`; faults are applied after
    their step completes, then the ``state`` site hashes the corrupted
    arrays — so the first divergence against a clean twin lands exactly
    at the injected step.
    """
    from repro.resilience.adapters import make_adapter
    from repro.resilience.faults import FaultInjector
    from repro.telemetry import TelemetrySpec

    if hash_stride < 1:
        raise ValueError(f"hash stride must be >= 1, got {hash_stride}")
    workload, steps = spec.workload, spec.steps
    tel = TelemetrySpec(
        label=spec.label or f"diverge/{spec.scenario or workload}",
        hash_stride=hash_stride, hash_chunk=hash_chunk,
    ).build()
    ladder = tel.ladder
    adapter = make_adapter(spec, tel, vectorized)
    injector = FaultInjector(plan) if plan is not None and plan.specs else None
    out_dir = Path(out) if out is not None else None
    if out_dir is not None:
        out_dir.mkdir(parents=True, exist_ok=True)
    injected: list = []
    checkpoint_steps: list[int] = []
    with _scatter_context(workload, scatter):
        for step in range(1, steps + 1):
            adapter.advance(1)
            if injector is not None:
                injected.extend(injector.apply(step, adapter.arrays()))
            tel.hash_site(step, STATE_SITE, adapter.arrays)
            if (
                out_dir is not None
                and checkpoint_interval
                and step % checkpoint_interval == 0
            ):
                _write_checkpoint(out_dir / f"ckpt-{step:05d}.bin", adapter)
                checkpoint_steps.append(step)

    knobs = {key: getattr(spec, key) for key in ("workload", "steps", "seed", "policy",
                                                  "precision", "scheme")}
    run_doc = {
        "schema": RUN_SCHEMA_VERSION,
        **knobs,
        "vectorized": vectorized,
        "scatter": scatter if workload == "clamr" else "",
        "scenario": spec.scenario,
        "config": json.loads(json.dumps(asdict(adapter.config))),
        "hash_stride": hash_stride,
        "hash_chunk": hash_chunk,
        "checkpoint_interval": checkpoint_interval,
        "checkpoints": checkpoint_steps,
        "faults": plan.to_config() if plan is not None else None,
        "state_hash": ladder_digest(ladder),
    }
    ladder.meta.update({key: value for key, value in knobs.items() if key != "seed"})
    if out_dir is not None:
        write_hashes(
            ladder,
            out_dir / "hashes.jsonl",
            extra_meta={**knobs, "scatter": run_doc["scatter"], "faults": run_doc["faults"]},
        )
        ioutil.atomic_write_bytes(
            out_dir / "run.json",
            [json.dumps(run_doc, indent=2, sort_keys=True).encode("utf-8"), b"\n"],
        )
    return RecordedRun(
        out=out_dir,
        ladder=ladder,
        workload=workload,
        steps=steps,
        injected=injected,
        checkpoint_steps=checkpoint_steps,
        result=adapter.last_result,
    )


def load_run_doc(run_dir: str | Path) -> dict:
    """Read and validate a run directory's ``run.json``."""
    path = Path(run_dir) / "run.json"
    doc = json.loads(path.read_text(encoding="utf-8"))
    schema = int(doc.get("schema", 0))
    if schema > RUN_SCHEMA_VERSION:
        raise ValueError(
            f"{path}: run schema v{schema} is newer than supported "
            f"v{RUN_SCHEMA_VERSION}; upgrade repro to read this file"
        )
    return doc


def fault_footprint(plan, spec) -> dict:
    """Corruption footprint of a fault plan: injection site vs first divergence.

    Runs a clean twin and a faulted twin of :class:`~repro.service.JobSpec`
    ``spec`` (in memory, stride 1) and compares their ladders.  The
    report pairs each injected fault with the localized first divergence,
    including the detection latency in steps — the campaign-facing answer
    to "how far did this fault spread before anything could see it?".
    """
    clean = record_run(None, spec)
    faulted = record_run(None, spec, plan=plan)
    report = compare_ladders(clean.ladder, faulted.ladder)
    injected = [
        {
            "kind": ev.kind,
            "array": ev.array,
            "step": ev.step,
            "index": ev.index,
            "bit": ev.bit,
        }
        for ev in faulted.injected
    ]
    footprint: dict = {
        "injected": injected,
        "diverged": report.diverged,
        "first_divergence": None,
        "latency_steps": None,
        "site_match": None,
        "summary": report.summary(),
    }
    if report.diverged and report.divergence is not None:
        d = report.divergence
        footprint["first_divergence"] = d.to_doc()
        if injected:
            first_step = min(ev["step"] for ev in injected)
            footprint["latency_steps"] = d.step - first_step
            footprint["site_match"] = any(
                ev["step"] == d.step and ev["array"] == d.field for ev in injected
            )
    return footprint
