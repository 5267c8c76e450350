"""Unit tests for AMR flagging, balance, and regrid."""

import numpy as np
import pytest

from repro.clamr.amr import _sibling_groups, enforce_balance, refinement_flags, regrid
from repro.clamr.mesh import AmrMesh
from repro.clamr.state import ShallowWaterState
from repro.precision.policy import FULL_PRECISION, HALF_PRECISION, MIN_PRECISION, MIXED_PRECISION
from tests.reference_impls import sibling_groups_unique
from tests.test_clamr_fuzz import random_mesh_and_state


def state_with_H(mesh, H, policy=FULL_PRECISION):
    H = np.asarray(H, dtype=np.float64)
    return ShallowWaterState(H=H, U=np.zeros_like(H), V=np.zeros_like(H), policy=policy)


class TestFlags:
    def test_flat_field_coarsens(self):
        m = AmrMesh.uniform(4, 4, max_level=1, level=1)
        s = state_with_H(m, np.ones(m.ncells))
        flags = refinement_flags(m, s)
        assert (flags == -1).all()

    def test_flat_field_at_level_zero_keeps(self):
        m = AmrMesh.uniform(4, 4, max_level=1)
        s = state_with_H(m, np.ones(m.ncells))
        assert (refinement_flags(m, s) == 0).all()

    def test_jump_refines_both_sides(self):
        m = AmrMesh.uniform(8, 1, max_level=1)
        H = np.ones(8)
        H[4:] = 2.0
        s = state_with_H(m, H)
        flags = refinement_flags(m, s)
        assert flags[3] == 1 and flags[4] == 1

    def test_max_level_cells_never_flagged_up(self):
        m = AmrMesh.uniform(4, 1, max_level=1, level=1)
        H = np.ones(m.ncells)
        H[::2] = 5.0
        flags = refinement_flags(m, state_with_H(m, H))
        assert (flags <= 0).all()

    def test_threshold_ordering_validated(self):
        m = AmrMesh.uniform(2, 2)
        s = state_with_H(m, np.ones(4))
        with pytest.raises(ValueError):
            refinement_flags(m, s, refine_threshold=0.01, coarsen_threshold=0.02)

    def test_decisions_quantized_against_noise(self):
        """Rounding-level H differences must not change the flags."""
        m = AmrMesh.uniform(8, 8, max_level=1)
        rng = np.random.default_rng(0)
        H = 1.0 + 0.1 * rng.random(m.ncells)
        a = refinement_flags(m, state_with_H(m, H))
        noisy = H * (1.0 + rng.uniform(-1e-7, 1e-7, m.ncells))
        b = refinement_flags(m, state_with_H(m, noisy))
        np.testing.assert_array_equal(a, b)

    def test_flags_mirror_symmetric(self):
        m = AmrMesh.uniform(8, 8, max_level=1)
        x, y = m.cell_centers()
        H = 1.0 + np.exp(-((x - 4.0) ** 2 + (y - 4.0) ** 2))
        flags = refinement_flags(m, state_with_H(m, H))
        grid = flags.reshape(8, 8)  # row-major j, i for uniform construction
        np.testing.assert_array_equal(grid, grid[::-1, :])
        np.testing.assert_array_equal(grid, grid[:, ::-1])


class TestBalance:
    def test_refinement_propagates(self):
        # 4x1: refine only cell 0 twice would violate 2:1 against cell 1
        m = AmrMesh.uniform(4, 1, max_level=2)
        flags = np.array([1, 0, 0, 0], dtype=np.int8)
        out = enforce_balance(m, flags)
        np.testing.assert_array_equal(out, flags)  # one level apart: fine
        # now from a mesh where cell 0 is already level 1 and others level 0:
        m2 = AmrMesh(
            nx=4, ny=1, max_level=2,
            i=[0, 1, 0, 1, 1, 2, 3], j=[0, 0, 1, 1, 0, 0, 0],
            level=[1, 1, 1, 1, 0, 0, 0],
        )
        flags2 = np.zeros(7, dtype=np.int8)
        flags2[1] = 1  # refine fine cell touching the coarse neighbor
        out2 = enforce_balance(m2, flags2)
        # the coarse right neighbor (index 4) must be forced to refine
        assert out2[4] == 1

    def test_coarsen_cancelled_near_refinement(self):
        m2 = AmrMesh(
            nx=4, ny=1, max_level=2,
            i=[0, 1, 0, 1, 1, 2, 3], j=[0, 0, 1, 1, 0, 0, 0],
            level=[1, 1, 1, 1, 0, 0, 0],
        )
        flags = np.zeros(7, dtype=np.int8)
        flags[1] = 1   # level-1 cell refines to level 2
        flags[4] = -1  # adjacent level-0 cell wants to coarsen: illegal
        out = enforce_balance(m2, flags)
        assert out[4] != -1

    def test_wrong_shape_rejected(self):
        m = AmrMesh.uniform(2, 2)
        with pytest.raises(ValueError):
            enforce_balance(m, np.zeros(3, dtype=np.int8))

    def test_balanced_output_property(self):
        rng = np.random.default_rng(42)
        m = AmrMesh.uniform(6, 6, max_level=2)
        s = state_with_H(m, 1.0 + rng.random(m.ncells))
        for _ in range(4):
            flags = rng.integers(-1, 2, m.ncells).astype(np.int8)
            m, s = regrid(m, s, flags)
            assert m.check_balance()


class TestRegrid:
    def test_refine_all(self):
        m = AmrMesh.uniform(2, 2, max_level=1)
        s = state_with_H(m, [1.0, 2.0, 3.0, 4.0])
        m2, s2 = regrid(m, s, np.ones(4, dtype=np.int8))
        assert m2.ncells == 16
        # children inherit parent values: 4 cells of each value
        assert sorted(np.unique(s2.H).tolist()) == [1.0, 2.0, 3.0, 4.0]
        for v in (1.0, 2.0, 3.0, 4.0):
            assert (s2.H == v).sum() == 4

    def test_refine_conserves_mass(self):
        m = AmrMesh.uniform(4, 4, max_level=2)
        rng = np.random.default_rng(1)
        s = state_with_H(m, 1.0 + rng.random(16))
        mass0 = s.total_mass(m.cell_area())
        m2, s2 = regrid(m, s, np.ones(16, dtype=np.int8))
        assert s2.total_mass(m2.cell_area()) == pytest.approx(mass0, rel=1e-15)

    def test_coarsen_complete_quads(self):
        m = AmrMesh.uniform(2, 2, max_level=1, level=1)  # 16 fine cells
        s = state_with_H(m, np.arange(16.0) + 1.0)
        m2, s2 = regrid(m, s, -np.ones(16, dtype=np.int8))
        assert m2.ncells == 4
        assert s2.total_mass(m2.cell_area()) == pytest.approx(
            s.total_mass(m.cell_area()), rel=1e-15
        )

    def test_coarsen_partial_quad_blocked(self):
        m = AmrMesh.uniform(2, 2, max_level=1, level=1)
        flags = -np.ones(16, dtype=np.int8)
        flags[0] = 0  # one sibling refuses
        m2, _ = regrid(m, state_with_H(m, np.ones(16)), flags)
        # only quads with all four siblings flagged coarsen: 3 quads coarsen
        assert m2.ncells == 4 + 3

    def test_coarsen_averages_at_state_dtype(self):
        m = AmrMesh.uniform(2, 2, max_level=1, level=1)
        H = np.full(16, 1.0, dtype=np.float64)
        H[:4] = 1.0 + 2**-30  # below float32 resolution of the mean
        s = state_with_H(m, H, policy=MIN_PRECISION)
        m2, s2 = regrid(m, s, -np.ones(16, dtype=np.int8))
        # the float32 average rounds the 2^-30 away entirely or keeps an ulp
        assert s2.H.dtype == np.float32

    def test_roundtrip_refine_then_coarsen(self):
        m = AmrMesh.uniform(4, 4, max_level=1)
        s = state_with_H(m, np.full(16, 2.5))
        m2, s2 = regrid(m, s, np.ones(16, dtype=np.int8))
        m3, s3 = regrid(m2, s2, -np.ones(m2.ncells, dtype=np.int8))
        assert m3.ncells == 16
        np.testing.assert_allclose(np.sort(s3.H), np.full(16, 2.5))

    @pytest.mark.parametrize("seed", range(8))
    def test_sibling_groups_match_unique_scan(self, seed):
        """Same groups, same row order, same member order as the np.unique
        implementation — the coarsened parents' cell order depends on it."""
        mesh, _ = random_mesh_and_state(seed, rounds=3, nx=5)
        rng = np.random.default_rng(seed)
        for share in (0.3, 0.8, 1.0):
            candidates = rng.random(mesh.ncells) < share
            groups = _sibling_groups(mesh, candidates)
            expected = sibling_groups_unique(mesh, candidates)
            assert groups.shape == (len(expected), 4)
            np.testing.assert_array_equal(groups, np.array(expected).reshape(-1, 4))

    def test_sibling_groups_empty(self):
        m = AmrMesh.uniform(2, 2, max_level=1, level=1)
        assert _sibling_groups(m, np.zeros(16, dtype=bool)).shape == (0, 4)
        three_of_each_quad = (m.i % 2 == 1) | (m.j % 2 == 1)
        assert _sibling_groups(m, three_of_each_quad).shape == (0, 4)

    @pytest.mark.parametrize(
        "policy", [HALF_PRECISION, MIN_PRECISION, MIXED_PRECISION, FULL_PRECISION],
        ids=lambda p: p.level.value,
    )
    @pytest.mark.parametrize("seed", range(4))
    def test_parent_is_state_dtype_sum_times_quarter(self, policy, seed):
        """A coarsened parent holds numpy's ``X[g].sum(dtype=sdtype) * 0.25``
        over its four children, bit for bit, at every precision level."""
        mesh, full = random_mesh_and_state(seed, rounds=2, nx=5)
        rng = np.random.default_rng(seed)
        state = ShallowWaterState(
            H=full.H, U=rng.normal(size=mesh.ncells), V=rng.normal(size=mesh.ncells), policy=policy
        )
        flags = np.where(rng.random(mesh.ncells) < 0.7, -1, 0).astype(np.int8)
        groups = sibling_groups_unique(mesh, enforce_balance(mesh, flags) == -1)
        assert groups, "the seed must coarsen at least one quad"
        _, out = regrid(mesh, state, flags)
        sdtype = policy.state_dtype
        quarter = sdtype.type(0.25)
        for name in ("H", "U", "V"):
            X = getattr(state, name)
            expected = np.array([X[g].sum(dtype=sdtype) * quarter for g in groups], dtype=sdtype)
            parents = getattr(out, name)[-len(groups):]
            assert parents.dtype == sdtype
            np.testing.assert_array_equal(parents.view(np.uint8), expected.view(np.uint8))

    def test_mixed_flags(self):
        m = AmrMesh.uniform(4, 4, max_level=1)
        flags = np.zeros(16, dtype=np.int8)
        flags[5] = 1
        m2, s2 = regrid(m, state_with_H(m, np.ones(16)), flags)
        assert m2.ncells == 15 + 4
        assert m2.check_balance()
