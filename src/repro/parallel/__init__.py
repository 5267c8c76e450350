"""Simulated SPMD domain decomposition for reproducibility studies.

The §III-C literature (Robey [23], Demmel–Nguyen [24], Chapp [25]) is
about *parallel* reproducibility: the same physical sum, reduced over a
different number of MPI ranks, returns different bits — and at reduced
precision the wobble is large enough to flip regrid decisions and
convergence tests.  This subpackage simulates that setting without MPI:

* :mod:`repro.parallel.decomposition` — partition a CLAMR cell soup into
  ranks (striped or space-filling-curve blocks) the way an MPI code would;
* :mod:`repro.parallel.reduction` — per-rank partial reductions combined
  through each of the sum algorithms in :mod:`repro.sums`, exposing the
  decomposition-(in)dependence of every rung of the ladder.

The driver is sequential — ranks are just index sets — which is exactly
what is needed to study the *numerical* consequences of decomposition in
isolation from transport effects.

Orthogonally, :mod:`repro.parallel.executor` provides *real* process
parallelism for the repo's sweeps (experiment grids, resilience
campaigns, tradespace enumeration) with deterministic ordering and
seeding, so ``--jobs N`` speeds sweeps up without perturbing a single
recorded bit.
"""

from repro.parallel.decomposition import Decomposition, stripe_partition, block_partition, morton_partition
from repro.parallel.reduction import parallel_sum, reduction_spread, ReductionStudy
from repro.parallel.halo import DistributedClamr, reorder_faces
from repro.parallel.executor import (
    SweepExecutor,
    SweepTask,
    SweepWorkerError,
    derive_seed,
    resolve_jobs,
)

__all__ = [
    "Decomposition",
    "stripe_partition",
    "block_partition",
    "morton_partition",
    "parallel_sum",
    "reduction_spread",
    "ReductionStudy",
    "DistributedClamr",
    "reorder_faces",
    "SweepExecutor",
    "SweepTask",
    "SweepWorkerError",
    "derive_seed",
    "resolve_jobs",
]
