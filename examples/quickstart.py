#!/usr/bin/env python
"""Quickstart: run CLAMR at the paper's three precision levels.

Runs the cylindrical dam break on a small grid at minimum, mixed, and full
precision, then reports what the paper's Figs. 1-2 report: how far apart
the solutions are, and how symmetric each one stayed.

    python examples/quickstart.py [--nx 32] [--steps 200]
"""

import argparse

from repro.precision.analysis import asymmetry_signature, difference_metrics
from repro.service import JobSpec


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--nx", type=int, default=32, help="coarse cells per side")
    parser.add_argument("--steps", type=int, default=200, help="timesteps to run")
    parser.add_argument("--max-level", type=int, default=2, help="AMR levels")
    args = parser.parse_args()

    spec = JobSpec("clamr", nx=args.nx, max_level=args.max_level, steps=args.steps)
    print(f"Cylindrical dam break: {args.nx}x{args.nx} coarse grid, "
          f"{args.max_level} AMR levels, {args.steps} steps\n")

    results = {}
    for level in ("min", "mixed", "full"):
        sim = spec.at_level(level).simulation()
        results[level] = sim.run(spec.steps)
        r = results[level]
        print(
            f"  {level:>5}: {r.policy.describe()}\n"
            f"         {sim.mesh.ncells} cells, t={r.final_time:.4f}, "
            f"wall {r.elapsed_s:.2f}s, state {r.state_nbytes / 1e6:.1f} MB, "
            f"checkpoint {r.checkpoint_bytes / 1e6:.1f} MB, "
            f"mass drift {r.mass_drift:.2e}"
        )

    print("\nPrecision differences along the center line-out (vs full):")
    full = results["full"].slice_precise
    for level in ("min", "mixed"):
        d = difference_metrics(full, results[level].slice_precise)
        print(
            f"  full vs {level:>5}: max |ΔH| = {d.max_abs:.3e} "
            f"({d.orders_below_solution:.1f} orders below the solution)"
        )

    print("\nSolution asymmetry (ideally zero):")
    for level in ("min", "mixed", "full"):
        sig = asymmetry_signature(results[level].slice_precise)
        print(f"  {level:>5}: max {sig.max_abs:.3e} (relative {sig.relative_max:.3e})")

    print(
        "\nThe paper's story in three lines: the solutions are visually\n"
        "identical, the reduced-precision error sits orders of magnitude\n"
        "below the physics, and lower precision amplifies the asymmetry."
    )


if __name__ == "__main__":
    main()
