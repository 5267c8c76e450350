#!/usr/bin/env python
"""CLAMR scenario: the precision-for-resolution trade (paper Fig. 3).

"Gains made in performance when using lowered precision can be reinvested
in other (often more precious) resources."  This script runs:

* a full-precision run on a coarse grid (Full-LoRes), and
* a minimum-precision run on a 2x finer grid (Min-HiRes),

to (almost) the same simulation time, writes both checkpoints, and compares
cost (cells, bytes, wall time) against solution detail (total variation of
the center line-out).

    python examples/clamr_dam_break.py [--nx 32] [--outdir /tmp]
"""

import argparse
import tempfile
from pathlib import Path

import numpy as np

from repro.clamr import ClamrSimulation, DamBreakConfig, write_checkpoint


def detail(line: np.ndarray) -> float:
    """Total variation: how much structure the line-out carries."""
    return float(np.abs(np.diff(line)).sum())


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--nx", type=int, default=32, help="coarse grid of the LoRes run")
    parser.add_argument("--steps", type=int, default=300, help="steps for the LoRes run")
    parser.add_argument("--outdir", type=Path, default=None, help="checkpoint directory")
    args = parser.parse_args()
    outdir = args.outdir or Path(tempfile.mkdtemp(prefix="clamr_"))
    outdir.mkdir(parents=True, exist_ok=True)

    lo_cfg = DamBreakConfig(nx=args.nx, ny=args.nx, max_level=1)
    hi_cfg = DamBreakConfig(nx=args.nx * 2, ny=args.nx * 2, max_level=1)

    print(f"Full-LoRes: full precision on {args.nx}^2")
    lo_sim = ClamrSimulation(lo_cfg, policy="full")
    lo = lo_sim.run(args.steps)
    print(f"  t={lo.final_time:.4f}  cells={lo_sim.mesh.ncells}  wall={lo.elapsed_s:.2f}s")

    print(f"Min-HiRes: minimum precision on {args.nx * 2}^2, run to the same time")
    hi_sim = ClamrSimulation(hi_cfg, policy="min")
    hi = hi_sim.run_to_time(lo.final_time)
    print(f"  t={hi_sim.time:.4f}  cells={hi_sim.mesh.ncells}  wall={hi.elapsed_s:.2f}s (last chunk)")

    lo_ck = outdir / "full_lores.clmr"
    hi_ck = outdir / "min_hires.clmr"
    lo_bytes = write_checkpoint(lo_ck, lo_sim.mesh, lo_sim.state)
    hi_bytes = write_checkpoint(hi_ck, hi_sim.mesh, hi_sim.state)
    print(f"\nCheckpoints: {lo_ck} ({lo_bytes / 1e6:.2f} MB), {hi_ck} ({hi_bytes / 1e6:.2f} MB)")

    tv_lo = detail(lo.slice_precise)
    tv_hi = detail(hi.slice_precise)
    print("\nSolution detail (total variation of the center line-out):")
    print(f"  Full-LoRes: {tv_lo:.4f}")
    print(f"  Min-HiRes : {tv_hi:.4f}  ({tv_hi / tv_lo:.2f}x the structure)")

    bytes_per_cell_lo = lo_bytes / lo_sim.mesh.ncells
    bytes_per_cell_hi = hi_bytes / hi_sim.mesh.ncells
    print("\nStorage cost per cell:")
    print(f"  Full-LoRes: {bytes_per_cell_lo:.1f} B/cell (float64 state)")
    print(f"  Min-HiRes : {bytes_per_cell_hi:.1f} B/cell (float32 state)")
    print(
        "\nMin-HiRes resolves visibly more structure at the same simulated\n"
        "time — the paper's Fig. 3: 'combine lower precision with higher\n"
        "degrees of freedom, resulting in a better solution.'"
    )


if __name__ == "__main__":
    main()
