"""Tests for simulated-SPMD decompositions and parallel reductions."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.clamr.mesh import AmrMesh
from repro.parallel.decomposition import (
    Decomposition,
    block_partition,
    morton_partition,
    stripe_partition,
)
from repro.parallel.reduction import ALGORITHMS, parallel_sum, reduction_spread


def amr_mesh():
    mesh = AmrMesh.uniform(8, 8, max_level=1)
    # refine a quadrant to make the partition problem non-trivial
    from repro.clamr.amr import regrid
    from repro.clamr.state import ShallowWaterState

    flags = np.zeros(64, dtype=np.int8)
    flags[:16] = 1
    state = ShallowWaterState.zeros(64)
    mesh, _ = regrid(mesh, state, flags)
    return mesh


class TestPartitions:
    def test_stripe_covers_and_balances(self):
        d = stripe_partition(100, 7)
        assert d.ncells == 100
        assert d.nranks == 7
        assert d.imbalance() < 1.1

    def test_single_rank(self):
        d = stripe_partition(10, 1)
        np.testing.assert_array_equal(d.ranks[0], np.arange(10))

    def test_too_many_ranks_rejected(self):
        with pytest.raises(ValueError):
            stripe_partition(3, 5)
        with pytest.raises(ValueError):
            stripe_partition(3, 0)

    def test_block_partition_is_spatial(self):
        mesh = AmrMesh.uniform(8, 8)
        d = block_partition(mesh, 4)
        x, _ = mesh.cell_centers()
        # every cell in rank 0 lies left of every cell in rank 3
        assert x[d.ranks[0]].max() <= x[d.ranks[3]].min()

    def test_morton_partition_valid_on_amr(self):
        mesh = amr_mesh()
        d = morton_partition(mesh, 5)
        assert d.ncells == mesh.ncells
        assert d.imbalance() < 1.2

    def test_morton_locality(self):
        """Z-order chunks are spatially compact: the average intra-rank
        spread is far below the domain size."""
        mesh = AmrMesh.uniform(16, 16)
        d = morton_partition(mesh, 16)
        x, y = mesh.cell_centers()
        spreads = [
            np.hypot(np.ptp(x[r]), np.ptp(y[r])) for r in d.ranks
        ]
        assert np.mean(spreads) < 8.0  # domain diagonal is ~22.6

    def test_decomposition_validation(self):
        with pytest.raises(ValueError, match="exactly once"):
            Decomposition("bad", (np.array([0, 1]), np.array([1, 2])))
        with pytest.raises(ValueError, match="exactly once"):
            Decomposition("gap", (np.array([0]), np.array([2])))
        with pytest.raises(ValueError):
            Decomposition("empty", ())


class TestParallelSum:
    def setup_method(self):
        rng = np.random.default_rng(0)
        self.values = (rng.random(5000) * 10.0 ** rng.integers(-3, 4, 5000)).astype(np.float64)
        self.exact = float(np.sum(self.values.astype(np.longdouble)))

    def test_all_algorithms_close(self):
        d = stripe_partition(self.values.size, 8)
        for algo in ALGORITHMS:
            result = parallel_sum(self.values, d, algorithm=algo)
            assert result == pytest.approx(self.exact, rel=1e-5)

    def test_binned_bitwise_decomposition_independent(self):
        mesh = AmrMesh.uniform(8, 8)
        values = np.random.default_rng(1).random(64) * 1e6
        decs = [
            stripe_partition(64, 1),
            stripe_partition(64, 7),
            block_partition(mesh, 4),
            morton_partition(mesh, 9),
        ]
        results = {parallel_sum(values, d, algorithm="binned") for d in decs}
        assert len(results) == 1

    def test_dd_decomposition_independent_in_practice(self):
        values = np.random.default_rng(2).random(1000)
        decs = [stripe_partition(1000, n) for n in (1, 3, 10, 31)]
        study = reduction_spread(values, decs, algorithm="dd")
        assert study.digits_stable >= 15.0

    def test_naive_float32_wobbles(self):
        rng = np.random.default_rng(3)
        values = (rng.random(20000) * 1e3).astype(np.float32)
        decs = [stripe_partition(values.size, n) for n in (1, 2, 5, 16, 64)]
        study = reduction_spread(values, decs, algorithm="naive", dtype=np.float32)
        assert not study.reproducible
        assert study.digits_stable < 8.0

    def test_reproducible_beats_naive(self):
        rng = np.random.default_rng(4)
        values = rng.normal(size=30000) * 10.0 ** rng.integers(-5, 6, 30000)
        decs = [stripe_partition(values.size, n) for n in (1, 4, 13, 64)]
        naive = reduction_spread(values, decs, algorithm="naive")
        binned = reduction_spread(values, decs, algorithm="binned")
        assert binned.digits_stable == 17.0
        assert binned.digits_stable > naive.digits_stable

    def test_validation(self):
        d = stripe_partition(10, 2)
        with pytest.raises(ValueError, match="unknown algorithm"):
            parallel_sum(np.ones(10), d, algorithm="magic")
        with pytest.raises(ValueError, match="cell count"):
            parallel_sum(np.ones(5), d)
        with pytest.raises(ValueError, match="1-D"):
            parallel_sum(np.ones((2, 5)), d)

    @given(st.integers(1, 12), st.integers(0, 2**31))
    @settings(max_examples=40, deadline=None)
    def test_binned_property_any_rank_count(self, nranks, seed):
        rng = np.random.default_rng(seed)
        values = rng.normal(size=200) * 1e8
        base = parallel_sum(values, stripe_partition(200, 1), algorithm="binned")
        other = parallel_sum(values, stripe_partition(200, nranks), algorithm="binned")
        assert base == other


class TestReductionStudy:
    def test_spread_fields(self):
        values = np.ones(100)
        decs = [stripe_partition(100, n) for n in (1, 4)]
        study = reduction_spread(values, decs, algorithm="kahan")
        assert study.algorithm == "kahan"
        assert len(study.results) == 2
        assert study.reproducible  # summing ones is exact

    def test_empty_decomposition_list_rejected(self):
        with pytest.raises(ValueError):
            reduction_spread(np.ones(4), [], algorithm="naive")
