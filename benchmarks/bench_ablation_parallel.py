"""Ablation — parallel-reduction reproducibility (paper §III-C).

Reproduces the cited result (Robey [23], Demmel-Nguyen [24]): "the typical
error in global sums can be reduced from about 7 digits of precision to 15
digits, within a few bits of perfect reproducibility."  We sum the mass of
a real CLAMR state across many simulated MPI decompositions and measure
how many digits survive per algorithm.
"""

import numpy as np

from repro.clamr import ClamrSimulation, DamBreakConfig
from repro.harness.report import Table
from repro.parallel.decomposition import block_partition, morton_partition, stripe_partition
from repro.parallel.reduction import ALGORITHMS, reduction_spread


def mass_contributions():
    cfg = DamBreakConfig(nx=48, ny=48, max_level=2)
    sim = ClamrSimulation(cfg, policy="full")
    sim.run(120, record_mass=False)
    return sim.mesh, sim.state.H.astype(np.float64) * sim.mesh.cell_area()


def test_reduction_reproducibility_ladder(benchmark):
    mesh, values = benchmark.pedantic(mass_contributions, rounds=1, iterations=1)
    decompositions = [
        stripe_partition(values.size, 1),
        stripe_partition(values.size, 16),
        stripe_partition(values.size, 128),
        block_partition(mesh, 8),
        morton_partition(mesh, 32),
    ]
    table = Table(
        title="Ablation — digits stable across 5 MPI decompositions",
        headers=["Algorithm", "float64 digits", "bitwise reproducible"],
    )
    studies = {}
    for algo in ALGORITHMS:
        study = reduction_spread(values, decompositions, algorithm=algo)
        studies[algo] = study
        table.add_row(algo, study.digits_stable, study.reproducible)
    print()
    print(table.render())

    # the §III-C ladder: naive wobbles, compensated mostly holds,
    # binned is bitwise identical across every decomposition
    assert studies["binned"].reproducible
    assert studies["binned"].digits_stable == 17.0
    assert studies["naive"].digits_stable < 17.0
    assert studies["dd"].digits_stable >= 15.0
    assert studies["kahan"].digits_stable >= studies["naive"].digits_stable
    # the headline numbers: ~ "7 digits to 15 digits"
    assert studies["binned"].digits_stable - studies["naive"].digits_stable >= 2.0
