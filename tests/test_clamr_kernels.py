"""Unit + property tests for the CLAMR finite_diff kernels."""

import numpy as np
import pytest

from repro.clamr import ClamrSimulation, DamBreakConfig
from repro.clamr.backends import kernel_backend
from repro.clamr.kernels import FaceLists, compute_timestep, finite_diff_vectorized
from repro.clamr.mesh import AmrMesh
from repro.clamr.state import ShallowWaterState
from repro.machine.counters import KernelCounters
from repro.precision.policy import FULL_PRECISION, MIN_PRECISION, MIXED_PRECISION


def lake_at_rest(mesh, policy=FULL_PRECISION, depth=1.0):
    n = mesh.ncells
    return ShallowWaterState(
        H=np.full(n, depth), U=np.zeros(n), V=np.zeros(n), policy=policy
    )


def refined_mesh() -> AmrMesh:
    i = np.array([1, 0, 1, 0, 1, 0, 1])
    j = np.array([0, 1, 1, 0, 0, 1, 1])
    level = np.array([0, 0, 0, 1, 1, 1, 1])
    return AmrMesh(nx=2, ny=2, max_level=1, i=i, j=j, level=level)


def bump_state(mesh, policy=FULL_PRECISION):
    x, y = mesh.cell_centers()
    lx = mesh.nx * mesh.coarse_size
    ly = mesh.ny * mesh.coarse_size
    H = 1.0 + 0.3 * np.exp(-(((x - lx / 2) ** 2 + (y - ly / 2) ** 2) / (0.05 * lx * ly)))
    return ShallowWaterState(H=H, U=np.zeros_like(H), V=np.zeros_like(H), policy=policy)


class TestFaceLists:
    def test_uniform_counts(self):
        m = AmrMesh.uniform(4, 4)
        f = FaceLists.from_mesh(m)
        assert f.xl.size == 3 * 4  # interior x-faces
        assert f.yb.size == 3 * 4
        assert f.bnd_left.size == f.bnd_right.size == 4
        assert f.bnd_bottom.size == f.bnd_top.size == 4
        assert f.nfaces == 12 + 12 + 16

    def test_refined_face_uniqueness(self):
        m = refined_mesh()
        f = FaceLists.from_mesh(m)
        # every interior face appears exactly once: count by unordered pair
        pairs = set()
        for a, b in zip(f.xl.tolist(), f.xr.tolist()):
            assert (a, b) not in pairs
            pairs.add((a, b))
        for a, b in zip(f.yb.tolist(), f.yt.tolist()):
            assert (a, b, "y") not in pairs
            pairs.add((a, b, "y"))

    def test_coarse_fine_face_sized_by_finer(self):
        m = refined_mesh()
        f = FaceLists.from_mesh(m)
        # faces between level-1 and level-0 cells must have the fine size 0.5
        lvl = m.level
        for a, b, s in zip(f.xl, f.xr, f.xsize):
            if lvl[a] != lvl[b]:
                assert s == 0.5

    def test_total_face_length_matches_geometry(self):
        # sum of interior x-face sizes = total vertical interior interface length
        m = refined_mesh()
        f = FaceLists.from_mesh(m)
        # domain 2x2 with one refined quadrant: vertical interior length is 2
        # (the x=1 line) plus 1 (the internal x=0.5 line inside the quad)
        assert f.xsize.sum() == pytest.approx(3.0)


class TestWellBalance:
    @pytest.mark.parametrize("policy", [MIN_PRECISION, MIXED_PRECISION, FULL_PRECISION])
    def test_lake_at_rest_is_steady(self, policy):
        m = refined_mesh()
        s = lake_at_rest(m, policy)
        H0 = s.H.copy()
        for _ in range(5):
            finite_diff_vectorized(m, s, 0.01)
        np.testing.assert_array_equal(s.H, H0)
        assert (s.U == 0).all() and (s.V == 0).all()


class TestConservation:
    @pytest.mark.parametrize("mesh", [AmrMesh.uniform(8, 8), refined_mesh()])
    def test_mass_conserved_to_roundoff(self, mesh):
        s = bump_state(mesh)
        area = mesh.cell_area()
        m0 = s.total_mass(area)
        for _ in range(20):
            dt = compute_timestep(mesh, s, 0.2)
            finite_diff_vectorized(mesh, s, dt)
        assert s.total_mass(area) == pytest.approx(m0, rel=1e-13)

    def test_momentum_conserved_until_walls(self):
        # large domain, short run: momentum only changes via walls; with a
        # centered symmetric bump the net momentum stays ~0 regardless
        mesh = AmrMesh.uniform(16, 16, coarse_size=1 / 16)
        s = bump_state(mesh)
        for _ in range(10):
            dt = compute_timestep(mesh, s, 0.2)
            finite_diff_vectorized(mesh, s, dt)
        px, py = s.total_momentum(mesh.cell_area())
        assert abs(px) < 1e-12 and abs(py) < 1e-12


class TestScalarVsVectorized:
    """Table III's two rows: the ``python`` backend's per-face loop is the
    unvectorized kernel, and it reproduces the NumPy kernel bit for bit."""

    @pytest.mark.parametrize("policy", [MIN_PRECISION, MIXED_PRECISION, FULL_PRECISION])
    def test_agreement_within_accumulation_order(self, policy):
        # the loop replays the vectorized accumulation order exactly, so
        # the agreement is bitwise, not within a few ulp
        mesh = refined_mesh()
        a = bump_state(mesh, policy)
        b = a.copy()
        dt = compute_timestep(mesh, a, 0.2)
        finite_diff_vectorized(mesh, a, dt)
        with kernel_backend("python"):
            finite_diff_vectorized(mesh, b, dt)
        for x, y in ((a.H, b.H), (a.U, b.U), (a.V, b.V)):
            assert np.array_equal(x, y)

    @pytest.mark.parametrize("level", ["half", "min", "mixed", "full"])
    @pytest.mark.parametrize("bottom", ["flat", "lake"])
    def test_runs_bit_identical(self, level, bottom):
        bathymetry = None
        if bottom == "lake":
            from repro.scenarios import get_scenario

            bathymetry = get_scenario("clamr/lake-at-rest").bathymetry
        cfg = DamBreakConfig(nx=16, ny=16, max_level=1)
        sims = {}
        for vectorized in (True, False):
            sims[vectorized] = ClamrSimulation(
                cfg, policy=level, vectorized=vectorized, bathymetry=bathymetry
            )
            sims[vectorized].run(10)
        a, b = sims[True].state, sims[False].state
        for x, y in ((a.H, b.H), (a.U, b.U), (a.V, b.V)):
            assert np.array_equal(x, y), f"{level}/{bottom}: scalar row diverged"

    def test_scalar_conserves_mass_too(self):
        mesh = AmrMesh.uniform(6, 6)
        s = bump_state(mesh)
        area = mesh.cell_area()
        m0 = s.total_mass(area)
        with kernel_backend("python"):
            for _ in range(5):
                dt = compute_timestep(mesh, s, 0.2)
                finite_diff_vectorized(mesh, s, dt)
        assert s.total_mass(area) == pytest.approx(m0, rel=1e-13)


class TestSymmetry:
    def test_symmetric_problem_asymmetry_stays_at_rounding_level(self):
        # coarse_size must be a power of two so mirrored cell centers are
        # exact negations about the domain center.  Scatter-accumulation
        # order injects one-ulp asymmetries (the very effect the paper's
        # Fig. 2 measures), so we assert rounding-level, not bitwise,
        # symmetry: no *structural* asymmetry.
        mesh = AmrMesh.uniform(16, 16, coarse_size=1 / 16)
        s = bump_state(mesh)
        for _ in range(30):
            dt = compute_timestep(mesh, s, 0.2)
            finite_diff_vectorized(mesh, s, dt)
        img = mesh.sample_to_uniform(s.H)
        np.testing.assert_allclose(img, img[::-1, :], rtol=0, atol=1e-12)
        np.testing.assert_allclose(img, img[:, ::-1], rtol=0, atol=1e-12)
        np.testing.assert_allclose(img, img.T, rtol=0, atol=1e-12)


class TestTimestep:
    def test_cfl_scales_with_courant(self):
        mesh = AmrMesh.uniform(8, 8)
        s = lake_at_rest(mesh)
        assert compute_timestep(mesh, s, 0.4) == pytest.approx(
            2 * compute_timestep(mesh, s, 0.2)
        )

    def test_finer_cells_reduce_dt(self):
        coarse = AmrMesh.uniform(4, 4)
        fine = AmrMesh.uniform(4, 4, max_level=1, level=1)
        dt_c = compute_timestep(coarse, lake_at_rest(coarse), 0.25)
        dt_f = compute_timestep(fine, lake_at_rest(fine), 0.25)
        assert dt_f == pytest.approx(dt_c / 2)

    def test_velocity_reduces_dt(self):
        mesh = AmrMesh.uniform(4, 4)
        still = lake_at_rest(mesh)
        moving = ShallowWaterState(
            H=np.ones(16), U=np.full(16, 5.0), V=np.zeros(16), policy=FULL_PRECISION
        )
        assert compute_timestep(mesh, moving, 0.25) < compute_timestep(mesh, still, 0.25)

    def test_dry_guard(self):
        mesh = AmrMesh.uniform(2, 2)
        s = ShallowWaterState(
            H=np.zeros(4), U=np.zeros(4), V=np.zeros(4), policy=FULL_PRECISION
        )
        dt = compute_timestep(mesh, s, 0.25)
        assert np.isfinite(dt) and dt > 0

    def test_invalid_courant(self):
        mesh = AmrMesh.uniform(2, 2)
        with pytest.raises(ValueError):
            compute_timestep(mesh, lake_at_rest(mesh), 1.5)


class TestCounters:
    def test_kernel_counts_work(self):
        mesh = AmrMesh.uniform(4, 4)
        s = bump_state(mesh)
        c = KernelCounters()
        finite_diff_vectorized(mesh, s, 0.001, counters=c)
        f = FaceLists.from_mesh(mesh)
        assert c.flops == f.nfaces * 38 + mesh.ncells * 12
        assert c.state_bytes > 0

    def test_mixed_mode_compute_bytes_are_double_width(self):
        mesh = AmrMesh.uniform(4, 4)
        c_min = KernelCounters()
        c_mix = KernelCounters()
        finite_diff_vectorized(mesh, bump_state(mesh, MIN_PRECISION), 0.001, counters=c_min)
        finite_diff_vectorized(mesh, bump_state(mesh, MIXED_PRECISION), 0.001, counters=c_mix)
        assert c_mix.compute_bytes == 2 * c_min.compute_bytes
        assert c_mix.state_bytes == c_min.state_bytes  # both float32 state
