"""Time- and parameter-sweep experiments behind the paper's snapshots.

The paper's Figs. 1-2 are snapshots at one instant; the *dynamics* — how
fast reduced-precision runs drift apart, how asymmetry accumulates, when
regrid decisions first diverge — is what a practitioner needs to pick a
precision for a longer simulation.  This module measures those curves:

* :func:`divergence_growth` — min/mixed-vs-full difference and mesh
  agreement sampled over a run (the curve whose late-time cliff
  EXPERIMENTS.md reports under Fig. 1);
* :func:`asymmetry_growth` — per-level asymmetry vs time (Fig. 2's
  y-value as a trajectory);
* :func:`resolution_sweep` — cross-precision error at several grid
  sizes (is the fidelity claim resolution-robust?).

Each returns a :class:`~repro.harness.report.Figure` plus the raw
samples, and each is exercised by a benchmark.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.harness.experiments import CLAMR_LEVELS as LEVELS
from repro.harness.report import Figure
from repro.precision.analysis import asymmetry_signature, difference_metrics
from repro.service.jobs import JobSpec

__all__ = ["GrowthSamples", "divergence_growth", "asymmetry_growth", "resolution_sweep"]


@dataclass(frozen=True)
class GrowthSamples:
    """Raw samples of a time sweep: one row per checkpointed instant."""

    steps: tuple[int, ...]
    values: dict[str, tuple[float, ...]]
    meshes_agree: tuple[bool, ...]

    def figure(self, title: str, ylabel: str) -> Figure:
        fig = Figure(
            title=title,
            x=np.asarray(self.steps, dtype=np.float64),
            xlabel="step",
            ylabel=ylabel,
        )
        for name, ys in self.values.items():
            fig.add_series(name, np.asarray(ys, dtype=np.float64))
        return fig


def _run_in_chunks(nx: int, total_steps: int, chunk: int, max_level: int = 2):
    spec = JobSpec("clamr", nx=nx, max_level=max_level, steps=total_steps)
    sims = {level: spec.at_level(level).simulation() for level in LEVELS}
    taken = 0
    while taken < total_steps:
        n = min(chunk, total_steps - taken)
        results = {level: sim.run(n, record_mass=False) for level, sim in sims.items()}
        taken += n
        yield taken, sims, results


def divergence_growth(
    nx: int = 48, total_steps: int = 400, chunk: int = 50
) -> GrowthSamples:
    """max |ΔH| of min and mixed vs full, sampled every ``chunk`` steps.

    Also records whether all three runs still share a mesh — the flip
    detector for the Fig. 1 cliff.
    """
    steps: list[int] = []
    diffs: dict[str, list[float]] = {"min": [], "mixed": []}
    agree: list[bool] = []
    for taken, sims, results in _run_in_chunks(nx, total_steps, chunk):
        steps.append(taken)
        full = results["full"].slice_precise
        for level in ("min", "mixed"):
            diffs[level].append(difference_metrics(full, results[level].slice_precise).max_abs)
        counts = {level: sim.mesh.ncells for level, sim in sims.items()}
        agree.append(len(set(counts.values())) == 1)
    return GrowthSamples(
        steps=tuple(steps),
        values={k: tuple(v) for k, v in diffs.items()},
        meshes_agree=tuple(agree),
    )


def asymmetry_growth(
    nx: int = 48, total_steps: int = 400, chunk: int = 50
) -> GrowthSamples:
    """Per-level max |asymmetry| of the line-out, sampled over the run."""
    steps: list[int] = []
    asym: dict[str, list[float]] = {level: [] for level in LEVELS}
    agree: list[bool] = []
    for taken, sims, results in _run_in_chunks(nx, total_steps, chunk):
        steps.append(taken)
        for level in LEVELS:
            asym[level].append(asymmetry_signature(results[level].slice_precise).max_abs)
        counts = {level: sim.mesh.ncells for level, sim in sims.items()}
        agree.append(len(set(counts.values())) == 1)
    return GrowthSamples(
        steps=tuple(steps),
        values={k: tuple(v) for k, v in asym.items()},
        meshes_agree=tuple(agree),
    )


def resolution_sweep(
    sizes: tuple[int, ...] = (16, 32, 48), steps_per_cell: int = 4, max_level: int = 1
) -> dict[int, float]:
    """min-vs-full orders-below-solution at several grid sizes.

    Steps scale with the grid so each run covers a comparable physical
    time (CFL dt ∝ 1/nx).  Returns {nx: orders_below_solution}.
    """
    out: dict[int, float] = {}
    for nx in sizes:
        spec = JobSpec("clamr", nx=nx, max_level=max_level, steps=steps_per_cell * nx)
        runs = {
            level: spec.at_level(level).simulation().run(spec.steps)
            for level in ("min", "full")
        }
        d = difference_metrics(runs["full"].slice_precise, runs["min"].slice_precise)
        out[nx] = d.orders_below_solution
    return out
