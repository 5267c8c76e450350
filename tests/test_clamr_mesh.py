"""Unit + property tests for the CLAMR cell-soup mesh."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.clamr.mesh import AmrMesh


def refined_mesh() -> AmrMesh:
    """A 2x2 coarse mesh with the (0,0) coarse cell split into 4 children."""
    i = np.array([1, 0, 1, 0, 1, 0, 1])
    j = np.array([0, 1, 1, 0, 0, 1, 1])
    level = np.array([0, 0, 0, 1, 1, 1, 1])
    return AmrMesh(nx=2, ny=2, max_level=1, i=i, j=j, level=level)


class TestConstruction:
    def test_uniform_coarse(self):
        m = AmrMesh.uniform(4, 3)
        assert m.ncells == 12
        assert m.check_balance()

    def test_uniform_at_level(self):
        m = AmrMesh.uniform(2, 2, max_level=2, level=2)
        assert m.ncells == 64

    def test_level_exceeding_max_rejected(self):
        with pytest.raises(ValueError):
            AmrMesh.uniform(2, 2, max_level=1, level=2)

    def test_cells_outside_domain_rejected(self):
        with pytest.raises(ValueError):
            AmrMesh(nx=2, ny=2, max_level=0, i=[0, 5], j=[0, 0], level=[0, 0])

    def test_overlap_rejected(self):
        # a refined cell overlapping its parent
        with pytest.raises(ValueError, match="overlap"):
            AmrMesh(
                nx=1, ny=1, max_level=1,
                i=[0, 0, 1, 0, 1], j=[0, 0, 0, 1, 1], level=[0, 1, 1, 1, 1],
            )

    def test_gap_rejected(self):
        with pytest.raises(ValueError, match="gap|cover"):
            AmrMesh(nx=2, ny=1, max_level=0, i=[0], j=[0], level=[0])

    def test_overlap_reported_before_gap(self):
        # a fine cell inside coarse cell (0, 0), and coarse cell (1, 0) missing
        with pytest.raises(ValueError, match="overlap"):
            AmrMesh(nx=2, ny=1, max_level=1, i=[0, 0], j=[0, 0], level=[0, 1])

    def test_duplicate_cell_is_overlap(self):
        with pytest.raises(ValueError, match="overlap"):
            AmrMesh(nx=2, ny=1, max_level=0, i=[0, 1, 1], j=[0, 0, 0], level=[0, 0, 0])

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            AmrMesh(nx=1, ny=1, max_level=0, i=[], j=[], level=[])


class TestGeometry:
    def test_cell_sizes_by_level(self):
        m = refined_mesh()
        sizes = m.cell_size()
        np.testing.assert_allclose(sizes[m.level == 0], 1.0)
        np.testing.assert_allclose(sizes[m.level == 1], 0.5)

    def test_areas_sum_to_domain(self):
        m = refined_mesh()
        assert m.cell_area().sum() == pytest.approx(4.0)

    def test_coarse_size_scaling(self):
        m = AmrMesh.uniform(4, 4, coarse_size=0.25)
        assert m.cell_size()[0] == 0.25
        assert m.cell_area().sum() == pytest.approx(1.0)

    def test_centers_inside_domain(self):
        m = refined_mesh()
        x, y = m.cell_centers()
        assert (x > 0).all() and (x < 2).all()
        assert (y > 0).all() and (y < 2).all()


class TestNeighbors:
    def test_uniform_interior_neighbors(self):
        m = AmrMesh.uniform(3, 3)
        # center cell is index 4 (row-major j*3+i)
        c = 4
        assert m.nlft[c] == 3 and m.nrht[c] == 5
        assert m.nbot[c] == 1 and m.ntop[c] == 7

    def test_boundary_self_reference(self):
        m = AmrMesh.uniform(3, 3)
        assert m.nlft[0] == 0 and m.nbot[0] == 0  # lower-left corner
        assert m.nrht[8] == 8 and m.ntop[8] == 8  # upper-right corner

    def test_coarse_fine_convention(self):
        m = refined_mesh()
        # the coarse cell to the right of the refined quad is (1,0,0)=index 0;
        # its left neighbor must be the *bottom* fine cell (1,0,1)=index 4
        coarse_right = 0
        assert m.level[m.nlft[coarse_right]] == 1
        fine = m.nlft[coarse_right]
        assert m.i[fine] == 1 and m.j[fine] == 0
        # the second fine neighbor is reachable as ntop of the first
        second = m.ntop[fine]
        assert m.level[second] == 1 and m.j[second] == 1

    def test_fine_sees_coarse(self):
        m = refined_mesh()
        # fine cell (1,0,1)=index 4 has the coarse (1,0,0)=index 0 on its right
        assert m.nrht[4] == 0

    def test_balance_check_detects_violation(self):
        # 4x1 coarse with one cell refined twice -> neighbor 2 levels apart
        i = [1, 2, 3] + [0, 1, 0] + [2, 3, 2, 3]
        j = [0, 0, 0] + [1, 1, 0] + [0, 0, 1, 1]
        lvl = [0, 0, 0] + [1, 1, 1] + [2, 2, 2, 2]
        m = AmrMesh(nx=4, ny=1, max_level=2, i=i, j=j, level=lvl)
        assert not m.check_balance()

    @given(st.integers(1, 6), st.integers(1, 6))
    @settings(max_examples=30, deadline=None)
    def test_neighbor_symmetry_uniform(self, nx, ny):
        """On a uniform mesh, neighbor links are mutual."""
        m = AmrMesh.uniform(nx, ny)
        cells = np.arange(m.ncells)
        interior_r = m.nrht != cells
        assert (m.nlft[m.nrht[interior_r]] == cells[interior_r]).all()
        interior_t = m.ntop != cells
        assert (m.nbot[m.ntop[interior_t]] == cells[interior_t]).all()


class TestHashAndSampling:
    def test_hash_covers_domain(self):
        m = refined_mesh()
        image = m.build_hash()
        assert image.shape == (4, 4)
        assert (image >= 0).all()

    def test_sample_to_uniform_piecewise_constant(self):
        m = refined_mesh()
        values = np.arange(m.ncells, dtype=np.float64)
        img = m.sample_to_uniform(values)
        # coarse cell index 0 covers a 2x2 fine block at i in [2,4), j in [0,2)
        block = img[0:2, 2:4]
        assert (block == 0.0).all()

    def test_sample_wrong_length_raises(self):
        m = refined_mesh()
        with pytest.raises(ValueError):
            m.sample_to_uniform(np.zeros(3))

    def test_memory_nbytes_positive(self):
        assert refined_mesh().memory_nbytes() > 0
