"""Divergence-onset curves for expectedly-inexact precision pairs.

Bit-exact hashing answers "are these runs identical?"; for a min-vs-full
precision pair the answer is trivially *no* from step 1, and the useful
question becomes *when and how fast does the reduced-precision run
depart* — the case-dependent onset quantity the OpenFOAM precision
study identifies, and the measurement a runtime-adaptive precision
scheduler would consume.

:func:`onset_curve` runs the two configurations of one workload in
lockstep (one step at a time, same grid, same physics) and measures the
per-step, per-field ULP distance in the *coarser* dtype (the wide state
is rounded down first, so 0 ULP means "as equal as float32 can
express").  The report carries:

* the per-step curve (max/mean ULP per field);
* the running maximum (``cummax``) — divergence onset is monotone by
  construction, so this is the aligned envelope to plot;
* onset steps: for each threshold in ``thresholds``, the first step
  whose max ULP meets it (1 ULP = last-bit wiggle; thousands = digits
  gone).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Sequence

from repro.diverge.record import _scatter_context
from repro.diverge.ulp import fields_ulp_stats

__all__ = ["OnsetReport", "onset_curve", "DEFAULT_THRESHOLDS"]

#: Default ULP thresholds: last bit, half-precision-ish, digits lost.
DEFAULT_THRESHOLDS = (1.0, 16.0, 256.0, 4096.0)


@dataclass
class OnsetReport:
    """Lockstep ULP-divergence measurement between two precision modes."""

    workload: str
    pair: tuple[str, str]
    steps: int
    #: one entry per step: {"step", "max_ulp", "mean_ulp", "fields": {...}}
    curve: list[dict] = field(default_factory=list)
    #: running max of the per-step max ULP — the monotone onset envelope
    cummax: list[float] = field(default_factory=list)
    #: threshold (as string key) -> first step whose max ULP >= threshold
    onset_steps: dict[str, int | None] = field(default_factory=dict)

    def summary(self) -> str:
        if not self.curve:
            return "no steps measured"
        final = self.cummax[-1] if self.cummax else 0.0
        onsets = ", ".join(
            f">={t}@{'never' if s is None else f'step {s}'}"
            for t, s in self.onset_steps.items()
        )
        return (
            f"{self.workload} {self.pair[0]} vs {self.pair[1]}: peak "
            f"{final:g} ULP over {self.steps} steps ({onsets})"
        )

    def to_doc(self) -> dict:
        return {
            "workload": self.workload,
            "pair": list(self.pair),
            "steps": self.steps,
            "curve": list(self.curve),
            "cummax": list(self.cummax),
            "onset_steps": dict(self.onset_steps),
            "summary": self.summary(),
        }

    def to_json(self, indent: int | None = 2) -> str:
        return json.dumps(self.to_doc(), indent=indent, sort_keys=True)


def onset_curve(
    spec,
    pair: Sequence[str] = ("min", "full"),
    *,
    vectorized: bool = True,
    scatter: str = "plan",
    thresholds: Sequence[float] = DEFAULT_THRESHOLDS,
) -> OnsetReport:
    """Per-step ULP divergence-onset curve for one precision pair.

    Runs :class:`~repro.service.JobSpec` ``spec`` at each level of
    ``pair`` (``spec.at_level``): CLAMR policies (``min``/``mixed``/
    ``full``) or SELF precisions (``single``/``double``).  Comparing a
    mode to itself yields an all-zero curve — the bit-exactness sanity
    check.
    """
    from repro.resilience.adapters import make_adapter

    mode_a, mode_b = pair
    workload, steps = spec.workload, spec.steps
    side_a = make_adapter(spec.at_level(mode_a), vectorized=vectorized)
    side_b = make_adapter(spec.at_level(mode_b), vectorized=vectorized)
    report = OnsetReport(workload=workload, pair=(mode_a, mode_b), steps=steps)
    running = 0.0
    for step in range(1, steps + 1):
        with _scatter_context(workload, scatter):
            side_a.advance(1)
            side_b.advance(1)
        stats = fields_ulp_stats(side_a.arrays(), side_b.arrays())
        comparable = {n: s for n, s in stats.items() if s.get("comparable")}
        max_ulp = max((s["max_ulp"] for s in comparable.values()), default=0.0)
        mean_ulp = (
            sum(s["mean_ulp"] * s["n"] for s in comparable.values())
            / max(sum(s["n"] for s in comparable.values()), 1)
        )
        running = max(running, max_ulp)
        report.curve.append(
            {
                "step": step,
                "max_ulp": max_ulp,
                "mean_ulp": mean_ulp,
                "fields": {
                    n: {k: s[k] for k in ("max_ulp", "mean_ulp", "count_diff", "n")}
                    for n, s in comparable.items()
                },
            }
        )
        report.cummax.append(running)
        for threshold in thresholds:
            key = f"{threshold:g}"
            if key not in report.onset_steps and max_ulp >= threshold:
                report.onset_steps[key] = step
    for threshold in thresholds:
        report.onset_steps.setdefault(f"{threshold:g}", None)
    return report
