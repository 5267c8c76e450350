"""Reproducible and compensated global sums (paper §III-C).

The paper identifies global sums across the computational domain as "the
most sensitive parts of numerical calculations" and cites work (Robey,
Demmel-Nguyen, Chapp, Iakymchuk) showing that the typical error in global
sums can be brought from ~7 digits to ~15 digits, "within a few bits of
perfect reproducibility."  Raising the precision of just these
sub-calculations is what *enables* the rest of the computation to run at
reduced precision — the central co-design move of the paper's methodology.

This subpackage provides the algorithm ladder those studies compare:

========================  =============================================
:func:`naive_sum`          left-to-right recursive summation (baseline)
:func:`kahan_sum`          Kahan compensated summation
:func:`neumaier_sum`       Neumaier's improved compensation
:func:`pairwise_sum`       pairwise (tree) reduction
:class:`DoubleDouble`      Knuth TwoSum-based double-double accumulator
:func:`reproducible_sum`   pre-rounded/binned order-independent sum
========================  =============================================

All functions accept any float dtype and carry the accumulation in the
input dtype unless stated otherwise, so the error *of the algorithm itself*
at each precision level can be measured (see ``benchmarks/bench_ablation_sums``).
"""

from repro.lazy import lazy_exports

__getattr__, __all__ = lazy_exports(__name__, {
    "naive_sum": "repro.sums.kahan",
    "kahan_sum": "repro.sums.kahan",
    "neumaier_sum": "repro.sums.kahan",
    "pairwise_sum": "repro.sums.pairwise",
    "DoubleDouble": "repro.sums.doubledouble",
    "two_sum": "repro.sums.doubledouble",
    "two_prod": "repro.sums.doubledouble",
    "split": "repro.sums.doubledouble",
    "dd_sum": "repro.sums.doubledouble",
    "reproducible_sum": "repro.sums.reproducible",
    "BinnedAccumulator": "repro.sums.reproducible",
})
