#!/usr/bin/env python
"""Automatic precision tuning, CRAFT/Precimonious style (paper §III-B, §VIII).

The paper's CLAMR precision modes came from Lam & Hollingsworth's analysis
tooling.  This example shows the same search performed by
``repro.precision.tuner``: treat each CLAMR state array (H, U, V) and the
compute/accumulate classes as independently-demotable knobs, run the dam
break under each candidate assignment, and keep demotions whose solution
error (against a full-precision reference) stays under a bound.

    python examples/precision_tuning.py [--error-bound 1e-4]
"""

import argparse

import numpy as np

from repro.clamr import ClamrSimulation, DamBreakConfig
from repro.precision.analysis import difference_metrics
from repro.precision.policy import FULL_PRECISION, PrecisionLevel, PrecisionPolicy
from repro.precision.tuner import ArrayBinding, GreedyPrecisionTuner

CFG = DamBreakConfig(nx=24, ny=24, max_level=1)
STEPS = 120


def run_with(policy: PrecisionPolicy) -> np.ndarray:
    return ClamrSimulation(CFG, policy=policy).run(STEPS).slice_precise


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--error-bound", type=float, default=1e-4,
                        help="max allowed |ΔH| on the line-out vs full precision")
    args = parser.parse_args()

    print("Reference run at full precision...")
    reference = run_with(FULL_PRECISION)

    # knobs: the state class (big arrays) and the compute class (locals).
    # weights reflect footprint: state dominates memory, compute does not.
    bindings = [
        ArrayBinding("state", levels=(PrecisionLevel.MIN, PrecisionLevel.FULL), weight=100.0),
        ArrayBinding("compute", levels=(PrecisionLevel.MIN, PrecisionLevel.FULL), weight=1.0),
    ]

    def run(assignment):
        policy = FULL_PRECISION.with_overrides(
            state=np.float32 if assignment["state"] is PrecisionLevel.MIN else np.float64,
            compute=np.float32 if assignment["compute"] is PrecisionLevel.MIN else np.float64,
            accumulate=np.float64,
        )
        d = difference_metrics(reference, run_with(policy))
        print(
            f"  trying state={assignment['state'].value:>4} "
            f"compute={assignment['compute'].value:>4} -> max |ΔH| = {d.max_abs:.3e}"
        )
        return d.max_abs

    print(f"\nGreedy demotion search (error bound {args.error_bound:.1e}):")
    tuner = GreedyPrecisionTuner(bindings, run, error_bound=args.error_bound)
    result = tuner.tune()

    print("\nResult:")
    for name, level in sorted(result.assignment.items()):
        print(f"  {name:>8}: {level.value}")
    print(f"  final error : {result.error:.3e}")
    print(f"  storage cost: {result.cost:.0f} (baseline {result.baseline_cost:.0f}, "
          f"saved {result.savings_fraction:.0%})")
    print(f"  runs used   : {result.evaluations}")
    print(
        "\nWith a loose bound the search lands on CLAMR's 'mixed' shape —\n"
        "demote the heavy state arrays, keep the local arithmetic wide; with\n"
        "a tight bound it refuses to demote anything.  That is exactly the\n"
        "configuration family the paper's compile-time modes encode."
    )


if __name__ == "__main__":
    main()
