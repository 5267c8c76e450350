"""Tests for the second-order MUSCL kernel."""

import dataclasses

import numpy as np
import pytest

from repro.clamr import ClamrSimulation, DamBreakConfig
from repro.clamr.backends.loops import _slopes
from repro.clamr.kernels import FaceLists, compute_timestep, finite_diff_vectorized
from repro.clamr.mesh import AmrMesh
from repro.clamr.muscl import finite_diff_muscl, limited_slopes, minmod
from repro.clamr.state import ShallowWaterState
from repro.precision.policy import FULL_PRECISION, MIN_PRECISION
from repro.workload import make_config, make_simulation


def bump_state(mesh, policy=FULL_PRECISION):
    x, y = mesh.cell_centers()
    lx = mesh.nx * mesh.coarse_size
    H = 1.0 + 0.3 * np.exp(-(((x - lx / 2) ** 2 + (y - lx / 2) ** 2) / (0.05 * lx * lx)))
    return ShallowWaterState(H=H, U=np.zeros_like(H), V=np.zeros_like(H), policy=policy)


class TestMinmod:
    def test_same_sign_picks_smaller(self):
        a = np.array([1.0, -2.0, 3.0])
        b = np.array([2.0, -1.0, 3.0])
        np.testing.assert_array_equal(minmod(a, b), [1.0, -1.0, 3.0])

    def test_opposite_signs_zero(self):
        np.testing.assert_array_equal(minmod(np.array([1.0]), np.array([-1.0])), [0.0])

    def test_zero_argument_zero(self):
        np.testing.assert_array_equal(minmod(np.array([0.0]), np.array([5.0])), [0.0])

    def test_dtype_preserved(self):
        out = minmod(np.ones(2, dtype=np.float32), np.ones(2, dtype=np.float32))
        assert out.dtype == np.float32


class TestSlopes:
    def test_linear_field_exact_slope(self):
        mesh = AmrMesh.uniform(8, 8, coarse_size=1 / 8)
        x, y = mesh.cell_centers()
        q = 2.0 * x + 3.0 * y
        size = mesh.cell_size()
        sx, sy = limited_slopes(mesh, q, size)
        interior = (mesh.nlft != np.arange(64)) & (mesh.nrht != np.arange(64))
        np.testing.assert_allclose(sx[interior], 2.0, atol=1e-12)
        interior_y = (mesh.nbot != np.arange(64)) & (mesh.ntop != np.arange(64))
        np.testing.assert_allclose(sy[interior_y], 3.0, atol=1e-12)

    def test_boundary_slopes_zero(self):
        mesh = AmrMesh.uniform(4, 4)
        q = mesh.cell_centers()[0] * 5.0
        sx, _ = limited_slopes(mesh, q, mesh.cell_size())
        # cells on the x-walls clip to zero (one-sided difference is zero)
        left_wall = mesh.nlft == np.arange(16)
        np.testing.assert_array_equal(sx[left_wall], 0.0)

    def test_extremum_slopes_zero(self):
        mesh = AmrMesh.uniform(8, 1)
        q = np.zeros(8)
        q[4] = 1.0  # isolated peak
        sx, _ = limited_slopes(mesh, q, mesh.cell_size())
        assert sx[4] == 0.0


def amr_l2_mesh():
    """A dam-break mesh after a few steps: three refinement levels."""
    cfg = dataclasses.replace(make_config("clamr", nx=12), max_level=2)
    sim = make_simulation("clamr", cfg, policy="full")
    sim.run(5, record_mass=False)
    assert np.unique(sim.mesh.level).size == 3
    return sim.mesh


class TestStackedSlopes:
    """One stacked pass gives every row the bits of its own one-row call
    and of the scalar loop (``backends.loops._slopes``)."""

    @pytest.mark.parametrize("dtype", [np.float16, np.float32, np.float64])
    def test_rows_match_one_row_calls_and_the_loop(self, dtype):
        mesh = amr_l2_mesh()
        n = mesh.ncells
        cells = np.arange(n)
        walls = (mesh.nlft == cells) | (mesh.nrht == cells) | (mesh.nbot == cells) | (mesh.ntop == cells)
        rng = np.random.default_rng(7)
        q = rng.standard_normal((3, n))
        q[0] += 2.0
        q[1, ::5] = 0.0
        q[1, 2::5] = -0.0
        q[2, ::3] = -0.0
        q[:, walls] *= 40.0  # steep against the walls: only the wall side clips
        nan_cell = np.flatnonzero(~walls)[n // 3]
        q[2, nan_cell] = np.nan
        q = q.astype(dtype)
        size = mesh.cell_size().astype(dtype)

        half, zero = np.dtype(dtype).type(0.5), np.dtype(dtype).type(0.0)
        with np.errstate(over="ignore"):  # float16 products of steep slopes
            sx, sy = limited_slopes(mesh, q, size)
            assert sx.shape == sy.shape == (3, n) and sx.dtype == dtype
            for k in range(3):
                one_x, one_y = limited_slopes(mesh, q[k], size)
                loop_x, loop_y = np.empty(n, dtype), np.empty(n, dtype)
                _slopes(q[k], mesh.nlft, mesh.nrht, mesh.nbot, mesh.ntop, size, half, zero, loop_x, loop_y)
                for got, one, loop in ((sx[k], one_x, loop_x), (sy[k], one_y, loop_y)):
                    assert got.tobytes() == one.tobytes() == loop.tobytes()

        # the inputs reach every branch: walls and the NaN clip to +0,
        # signed-zero inputs, nonzero limited slopes
        x_wall = (mesh.nlft == cells) | (mesh.nrht == cells)
        assert not sx[:, x_wall].any() and not np.signbit(sx[:, x_wall]).any()
        for s in (sx, sy):
            assert s[2, nan_cell] == 0 and not np.signbit(s[2, nan_cell])
        assert not np.isnan(sx).any() and not np.isnan(sy).any()
        assert np.signbit(q[1][q[1] == 0]).any() and np.count_nonzero(sx[0]) > n // 4

    def test_one_row_and_stacked_calls_share_no_result_buffer(self):
        mesh = amr_l2_mesh()
        q = np.stack([c.astype(np.float64) for c in mesh.cell_centers()])
        size = mesh.cell_size()
        sx, _ = limited_slopes(mesh, q, size)
        kept = sx.copy()
        limited_slopes(mesh, q[::-1].copy(), size)
        assert sx.tobytes() == kept.tobytes()


class TestKernel:
    def test_lake_at_rest_steady(self):
        mesh = AmrMesh.uniform(6, 6)
        s = ShallowWaterState(H=np.full(36, 2.0), U=np.zeros(36), V=np.zeros(36))
        H0 = s.H.copy()
        for _ in range(5):
            finite_diff_muscl(mesh, s, 0.01)
        np.testing.assert_array_equal(s.H, H0)

    def test_mass_conserved(self):
        mesh = AmrMesh.uniform(10, 10, coarse_size=0.1)
        s = bump_state(mesh)
        area = mesh.cell_area()
        m0 = s.total_mass(area)
        for _ in range(20):
            dt = compute_timestep(mesh, s, 0.2)
            finite_diff_muscl(mesh, s, dt)
        assert s.total_mass(area) == pytest.approx(m0, rel=1e-13)

    def test_mass_conserved_on_amr_mesh(self):
        i = np.array([1, 0, 1, 0, 1, 0, 1])
        j = np.array([0, 1, 1, 0, 0, 1, 1])
        level = np.array([0, 0, 0, 1, 1, 1, 1])
        mesh = AmrMesh(nx=2, ny=2, max_level=1, i=i, j=j, level=level)
        s = bump_state(mesh)
        area = mesh.cell_area()
        m0 = s.total_mass(area)
        for _ in range(10):
            dt = compute_timestep(mesh, s, 0.15)
            finite_diff_muscl(mesh, s, dt)
        assert s.total_mass(area) == pytest.approx(m0, rel=1e-13)

    def test_less_diffusive_than_first_order(self):
        """Second order keeps more of the peak after smooth transport."""
        mesh = AmrMesh.uniform(32, 32, coarse_size=1 / 32)
        a = bump_state(mesh)
        b = a.copy()
        for _ in range(60):
            dt = compute_timestep(mesh, a, 0.2)
            finite_diff_muscl(mesh, a, dt)
            finite_diff_vectorized(mesh, b, dt)
        peak_muscl = float(a.H.max())
        peak_rusanov = float(b.H.max())
        assert peak_muscl > peak_rusanov

    def test_positivity_guard(self):
        """Near-dry cells must not go negative through reconstruction."""
        mesh = AmrMesh.uniform(16, 1, coarse_size=1 / 16)
        H = np.full(16, 1e-6)
        H[:8] = 1.0
        s = ShallowWaterState(H=H, U=np.zeros(16), V=np.zeros(16))
        for _ in range(30):
            dt = compute_timestep(mesh, s, 0.1)
            finite_diff_muscl(mesh, s, dt)
        assert (s.H > 0).all()
        assert np.isfinite(s.H).all()

    def test_float32_path(self):
        mesh = AmrMesh.uniform(8, 8)
        s = bump_state(mesh, MIN_PRECISION)
        dt = compute_timestep(mesh, s, 0.2)
        finite_diff_muscl(mesh, s, dt)
        assert s.H.dtype == np.float32
        assert np.isfinite(s.H).all()

    def test_counters(self):
        from repro.machine.counters import KernelCounters

        mesh = AmrMesh.uniform(4, 4)
        s = bump_state(mesh)
        c = KernelCounters()
        finite_diff_muscl(mesh, s, 1e-4, counters=c)
        assert c.flops > 0 and c.state_bytes > 0


class TestConvergenceOrder:
    def _error_at(self, nx: int, scheme: str) -> float:
        """Error vs a fine-grid reference for a smooth short-time problem."""
        cfg = DamBreakConfig(
            nx=nx, ny=nx, max_level=0, start_refined=False,
            column_radius_fraction=0.25, column_height=1.1,
        )
        sim = ClamrSimulation(cfg, policy="full", scheme=scheme)
        sim.run_to_time(0.02)
        field = sim.mesh.sample_to_uniform(sim.state.H.astype(np.float64))
        # reference on 4x the cells
        ref_cfg = DamBreakConfig(
            nx=nx * 4, ny=nx * 4, max_level=0, start_refined=False,
            column_radius_fraction=0.25, column_height=1.1,
        )
        ref = ClamrSimulation(ref_cfg, policy="full", scheme="muscl")
        ref.run_to_time(0.02)
        ref_field = ref.mesh.sample_to_uniform(ref.state.H.astype(np.float64))
        # block-average reference down to the coarse grid
        k = ref_field.shape[0] // field.shape[0]
        coarse_ref = ref_field.reshape(field.shape[0], k, field.shape[1], k).mean(axis=(1, 3))
        return float(np.abs(field - coarse_ref).mean())

    @pytest.mark.slow
    def test_muscl_converges_faster(self):
        e_muscl = [self._error_at(n, "muscl") for n in (16, 32)]
        e_rusanov = [self._error_at(n, "rusanov") for n in (16, 32)]
        rate_muscl = np.log2(e_muscl[0] / e_muscl[1])
        rate_rusanov = np.log2(e_rusanov[0] / e_rusanov[1])
        assert rate_muscl > rate_rusanov
        assert rate_muscl > 1.2  # clearly above first order


class TestSimulationIntegration:
    def test_scheme_flag(self):
        cfg = DamBreakConfig(nx=16, ny=16, max_level=1)
        sim = ClamrSimulation(cfg, policy="full", scheme="muscl")
        res = sim.run(30)
        assert res.mass_drift < 1e-13
        assert np.isfinite(res.field).all()

    def test_invalid_scheme(self):
        with pytest.raises(ValueError, match="unknown scheme"):
            ClamrSimulation(DamBreakConfig(nx=16, ny=16), scheme="weno")

    def test_muscl_scalar_not_available(self):
        with pytest.raises(ValueError, match="scalar"):
            ClamrSimulation(DamBreakConfig(nx=16, ny=16), scheme="muscl", vectorized=False)
