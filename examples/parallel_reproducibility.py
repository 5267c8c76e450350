#!/usr/bin/env python
"""Parallel reproducibility, end to end (paper §III-C).

Three demonstrations on one CLAMR state:

1. the *sum* problem: the same global mass reduced over different
   simulated MPI decompositions wobbles for naive summation and is
   bitwise identical for the binned reproducible sum;
2. the *solution* problem: distributed timestepping is bitwise
   reproducible across rank counts when per-cell accumulation order is
   preserved — and drifts the moment the evaluation order reassociates;
3. the precision coupling: the same reassociation costs ~9 more digits
   at float32 — why §III-C says fix the sums *first*, then reduce
   precision everywhere else.

    python examples/parallel_reproducibility.py
"""

import numpy as np

from repro.clamr import ClamrSimulation, DamBreakConfig
from repro.clamr.mesh import AmrMesh
from repro.clamr.state import ShallowWaterState
from repro.harness.report import Table
from repro.parallel.decomposition import block_partition, morton_partition, stripe_partition
from repro.parallel.halo import DistributedClamr
from repro.parallel.reduction import ALGORITHMS, reduction_spread
from repro.precision.policy import FULL_PRECISION, MIN_PRECISION


def main() -> None:
    print("Part 1 — the global sum across decompositions")
    sim = ClamrSimulation(DamBreakConfig(nx=48, ny=48, max_level=2), policy="full")
    sim.run(120, record_mass=False)
    values = sim.state.H.astype(np.float64) * sim.mesh.cell_area()
    decs = [
        stripe_partition(values.size, 1),
        stripe_partition(values.size, 64),
        block_partition(sim.mesh, 8),
        morton_partition(sim.mesh, 32),
    ]
    table = Table(
        title=f"Mass of {values.size} cells over {len(decs)} decompositions",
        headers=["Algorithm", "stable digits", "bitwise reproducible"],
    )
    for algo in ALGORITHMS:
        study = reduction_spread(values, decs, algorithm=algo)
        table.add_row(algo, study.digits_stable, study.reproducible)
    print(table.render())

    print("\nPart 2 — the distributed solution across rank counts")

    def run_distributed(nranks: int, axis_order=("x", "y"), policy=FULL_PRECISION):
        mesh = AmrMesh.uniform(32, 32, coarse_size=1 / 32)
        x, y = mesh.cell_centers()
        H = 1.0 + 0.4 * np.exp(-((x - 0.5) ** 2 + (y - 0.5) ** 2) * 40.0)
        state = ShallowWaterState(H=H, U=np.zeros_like(H), V=np.zeros_like(H), policy=policy)
        DistributedClamr(
            mesh, state, stripe_partition(mesh.ncells, nranks), axis_order=axis_order
        ).run(60)
        return state.H.astype(np.float64)

    base = run_distributed(1)
    for nranks in (4, 16, 64):
        drift = float(np.abs(run_distributed(nranks) - base).max())
        print(f"  {nranks:>3} ranks, order-preserving halo scheme: max drift {drift:.1e}")
    reassoc = float(np.abs(run_distributed(4, axis_order=("y", "x")) - base).max())
    print(f"  4 ranks with reassociated accumulation:   max drift {reassoc:.1e}")

    print("\nPart 3 — reassociation cost vs precision")
    for policy, name in ((FULL_PRECISION, "float64"), (MIN_PRECISION, "float32")):
        a = run_distributed(4, policy=policy)
        b = run_distributed(4, axis_order=("y", "x"), policy=policy)
        print(f"  {name}: reassociation drift {float(np.abs(a - b).max()):.1e}")

    print(
        "\nFix the accumulation order (or the sum algorithm) and parallel "
        "runs are bitwise\nreproducible at any precision — which is what "
        "licenses reducing precision everywhere else."
    )


if __name__ == "__main__":
    main()
