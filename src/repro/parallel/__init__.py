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

The package itself imports nothing: callers import the submodule they
use, so a sweep that only needs the executor's ``derive_seed`` (the
service's retry ladder) does not load the decomposition and halo
modules, and with them all of CLAMR.
"""
