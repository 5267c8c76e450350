"""Replay mode: re-run the divergence window at full resolution.

The recorded ladders localize a divergence to a stride window; replay
pins it to the exact step and kernel site, and quantifies it.  Given
two recorded run directories (see :mod:`repro.diverge.record`):

1. compare the recorded ladders → bracket window
   ``(last clean step, first divergent hashed step]``;
2. resume each run from its nearest on-disk checkpoint at or before
   the window start (content-hash verified on load, so the resumed
   state is *provably* bit-identical) — or from step 0 when no
   checkpoint qualifies;
3. re-run both sides in lockstep through the window with a stride-1
   ladder (every step, every kernel site) and the original fault plan
   re-fired deterministically;
4. at every replayed step, measure the elementwise ULP distance
   between the two states — the "how corrupted, where" stats the
   coarse hashes cannot give.

The refined comparison re-localizes at step resolution; the ULP curve
shows the corruption growing (or a genuine bit-exactness bug appearing
from nowhere) across the window.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field
from pathlib import Path

from repro.diverge.compare import DivergenceReport, compare_ladders, compare_paths
from repro.diverge.ladder import StateHashLadder
from repro.diverge.record import STATE_SITE, _scatter_context, load_run_doc
from repro.diverge.ulp import fields_ulp_stats

__all__ = ["ReplayReport", "replay"]


@dataclass
class ReplayReport:
    """Replay outcome: coarse bracket, refined localization, ULP curve."""

    coarse: DivergenceReport
    refined: DivergenceReport | None = None
    start_step: int = 0
    stop_step: int = 0
    ckpt_a: int | None = None
    ckpt_b: int | None = None
    #: per replayed lockstep step: {"step", "max_ulp", "fields": {...}}
    ulp_curve: list[dict] = field(default_factory=list)
    #: full stats of the offending field at the refined divergence step
    offending: dict | None = None

    @property
    def diverged(self) -> bool:
        return self.coarse.diverged

    def summary(self) -> str:
        if not self.coarse.diverged:
            return self.coarse.summary()
        refined = self.refined
        if refined is not None and refined.diverged:
            return f"{refined.summary()} (refined from {self.coarse.summary()})"
        return self.coarse.summary()

    def to_doc(self) -> dict:
        return {
            "coarse": self.coarse.to_doc(),
            "refined": None if self.refined is None else self.refined.to_doc(),
            "start_step": self.start_step,
            "stop_step": self.stop_step,
            "ckpt_a": self.ckpt_a,
            "ckpt_b": self.ckpt_b,
            "ulp_curve": list(self.ulp_curve),
            "offending": self.offending,
            "summary": self.summary(),
        }

    def to_json(self, indent: int | None = 2) -> str:
        return json.dumps(self.to_doc(), indent=indent, sort_keys=True)


def _job_spec(doc: dict, path: Path):
    """The :class:`~repro.service.JobSpec` a ``run.json`` recorded.

    Rebuilt from the recorded fields and the config's sizes; raises the
    one-line ValueError unless it reproduces the recorded config exactly.
    Pre-scenario run docs have no ``"scenario"``: the seed case.
    """
    from repro.service.jobs import JobSpec

    cfg = doc["config"]
    sizes = (dict(nx=cfg["nx"], max_level=cfg["max_level"]) if doc["workload"] == "clamr"
             else dict(elems=cfg["nex"], order=cfg["order"]))
    spec = JobSpec(
        **{key: doc[key] for key in ("workload", "steps", "seed", "policy", "precision")},
        scheme=doc.get("scheme", "rusanov"), scenario=doc.get("scenario", ""), **sizes,
    )
    rebuilt = json.loads(json.dumps(asdict(spec.config())))
    if rebuilt != cfg:
        differ = sorted(k for k in set(cfg) | set(rebuilt) if cfg.get(k) != rebuilt.get(k))
        raise ValueError(
            f"{path}: the recorded run does not rebuild its config "
            f"(differs in {', '.join(differ)})"
        )
    return spec


def _fault_plan(doc: dict | None):
    if not doc or not doc.get("specs"):
        return None
    from repro.resilience.faults import FaultPlan, FaultSpec

    specs = tuple(
        FaultSpec(
            kind=s["kind"], array=s["array"], step=int(s["step"]),
            index=s.get("index"), bit=s.get("bit"),
            sticky=bool(s.get("sticky", False)),
        )
        for s in doc["specs"]
    )
    return FaultPlan(specs=specs, seed=int(doc.get("seed", 0)))


def _best_checkpoint(run_dir: Path, doc: dict, limit: int) -> int | None:
    """Latest recorded checkpoint step at or before ``limit``."""
    candidates = [
        int(s) for s in doc.get("checkpoints", [])
        if int(s) <= limit and (run_dir / f"ckpt-{int(s):05d}.bin").exists()
    ]
    return max(candidates) if candidates else None


class _ReplaySide:
    """One run being replayed: adapter + injector + per-side context."""

    def __init__(self, run_dir: Path, doc: dict, ladder: StateHashLadder) -> None:
        from repro.resilience.adapters import make_adapter
        from repro.resilience.faults import FaultInjector
        from repro.telemetry import Telemetry

        self.run_dir = run_dir
        self.doc = doc
        self.workload = doc["workload"]
        self.scatter = doc.get("scatter", "")
        spec = _job_spec(doc, run_dir / "run.json")
        tel = Telemetry(label=f"replay/{run_dir.name}", ladder=ladder)
        self.adapter = make_adapter(spec, tel, bool(doc.get("vectorized", True)))
        plan = _fault_plan(doc.get("faults"))
        self.injector = FaultInjector(plan) if plan is not None else None

    def resume_from(self, step: int) -> None:
        """Load ``ckpt-<step>.bin`` (content-hash verified) into the sim."""
        path = self.run_dir / f"ckpt-{step:05d}.bin"
        sim = self.adapter.sim
        if self.workload == "clamr":
            from repro.clamr.checkpoint import read_checkpoint

            mesh, state = read_checkpoint(path)
            sim.mesh = mesh
            sim.state = state.with_policy(sim.policy)
        else:
            from repro.self_.checkpoint import read_state

            _mesh, U = read_state(path)
            if U.shape != sim.U.shape:
                raise ValueError(
                    f"{path}: checkpoint tensor shape {U.shape} does not match "
                    f"the reconstructed simulation ({sim.U.shape})"
                )
            sim.U = U.astype(sim.dtype, copy=False)
        sim.step_count = step

    def advance(self, step: int) -> None:
        """One step + due faults, inside this side's scatter backend."""
        with _scatter_context(self.workload, self.scatter):
            self.adapter.advance(1)
        if self.injector is not None:
            self.injector.apply(step, self.adapter.arrays())


def replay(
    dir_a: str | Path,
    dir_b: str | Path,
    *,
    pad: int = 2,
) -> ReplayReport:
    """Replay the divergence window of two recorded runs at stride 1.

    ``pad`` extra steps past the first divergent step are replayed so
    the ULP curve shows the corruption's initial growth, not just its
    first sample.
    """
    dir_a, dir_b = Path(dir_a), Path(dir_b)
    doc_a, doc_b = load_run_doc(dir_a), load_run_doc(dir_b)
    coarse = compare_paths(dir_a, dir_b)
    report = ReplayReport(coarse=coarse)
    if not coarse.diverged or coarse.divergence is None:
        return report

    lo, hi = coarse.divergence.window
    stop = min(hi + pad, int(doc_a["steps"]), int(doc_b["steps"]))
    ckpt_a = _best_checkpoint(dir_a, doc_a, lo)
    ckpt_b = _best_checkpoint(dir_b, doc_b, lo)
    report.ckpt_a, report.ckpt_b = ckpt_a, ckpt_b

    # match the recorded chunking so chunk indices line up across reports
    ladder_a = StateHashLadder(stride=1, chunk=int(doc_a.get("hash_chunk", 4096)))
    ladder_b = StateHashLadder(stride=1, chunk=int(doc_b.get("hash_chunk", 4096)))
    side_a = _ReplaySide(dir_a, doc_a, ladder_a)
    side_b = _ReplaySide(dir_b, doc_b, ladder_b)
    start_a = 0
    if ckpt_a is not None:
        side_a.resume_from(ckpt_a)
        start_a = ckpt_a
    start_b = 0
    if ckpt_b is not None:
        side_b.resume_from(ckpt_b)
        start_b = ckpt_b

    # warm the lagging side up solo so the lockstep window starts aligned
    start = max(start_a, start_b)
    for step in range(start_a + 1, start + 1):
        side_a.advance(step)
    for step in range(start_b + 1, start + 1):
        side_b.advance(step)
    report.start_step = start
    report.stop_step = stop

    for step in range(start + 1, stop + 1):
        side_a.advance(step)
        side_b.advance(step)
        arrays_a = side_a.adapter.arrays()
        arrays_b = side_b.adapter.arrays()
        ladder_a.record_site(step, STATE_SITE, arrays_a)
        ladder_b.record_site(step, STATE_SITE, arrays_b)
        stats = fields_ulp_stats(arrays_a, arrays_b)
        comparable = [s for s in stats.values() if s.get("comparable")]
        report.ulp_curve.append(
            {
                "step": step,
                "max_ulp": max((s["max_ulp"] for s in comparable), default=None),
                "fields": stats,
            }
        )

    refined = compare_ladders(ladder_a, ladder_b)
    report.refined = refined
    if refined.diverged and refined.divergence is not None:
        d = refined.divergence
        for point in report.ulp_curve:
            if point["step"] == d.step and d.field in point["fields"]:
                report.offending = {
                    "step": d.step,
                    "site": d.site,
                    "field": d.field,
                    "chunk": d.chunk,
                    "stats": point["fields"][d.field],
                }
                break
    return report
