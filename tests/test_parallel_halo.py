"""Tests for distributed (halo-exchange) CLAMR stepping."""

import numpy as np
import pytest

from repro.clamr import ClamrSimulation, DamBreakConfig
from repro.clamr.kernels import FaceLists, compute_timestep, finite_diff_vectorized
from repro.clamr.mesh import AmrMesh
from repro.clamr.state import ShallowWaterState
from repro.parallel.decomposition import block_partition, morton_partition, stripe_partition
from repro.parallel.halo import DistributedClamr
from repro.precision.policy import FULL_PRECISION, MIN_PRECISION


def setup(nx=16, policy=FULL_PRECISION):
    mesh = AmrMesh.uniform(nx, nx, coarse_size=1.0 / nx)
    x, y = mesh.cell_centers()
    H = 1.0 + 0.4 * np.exp(-((x - 0.5) ** 2 + (y - 0.5) ** 2) * 40.0)
    state = ShallowWaterState(H=H, U=np.zeros_like(H), V=np.zeros_like(H), policy=policy)
    return mesh, state


def setup_amr(policy=FULL_PRECISION):
    """A 16² level-2 dam-break mesh, frozen: the halo driver never regrids."""
    sim = ClamrSimulation(DamBreakConfig(nx=16, ny=16, max_level=2), policy=policy)
    assert sim.mesh.level.max() == 2
    return sim.mesh, sim.state


PARTITIONS = {
    "stripe": lambda mesh, n: stripe_partition(mesh.ncells, n),
    "block": block_partition,
    "morton": morton_partition,
}


class TestCorrectness:
    def test_single_rank_runs(self):
        mesh, state = setup()
        d = DistributedClamr(mesh, state, stripe_partition(mesh.ncells, 1))
        d.run(10)
        assert np.isfinite(state.H).all()

    @pytest.mark.parametrize("nranks", [1, 4, 16])
    @pytest.mark.parametrize("partition", sorted(PARTITIONS))
    @pytest.mark.parametrize("policy", [MIN_PRECISION, FULL_PRECISION], ids=["min", "full"])
    @pytest.mark.parametrize("build", [setup, setup_amr], ids=["uniform", "amr"])
    def test_bitwise_equals_serial_step(self, build, policy, partition, nranks):
        """Every rank runs the production kernel on its masked faces, so
        each step is the serial compute_timestep + finite_diff_vectorized
        step, bit for bit, on a uniform and on an AMR mesh."""
        mesh, state = build(policy=policy)
        serial = state.copy()
        faces = FaceLists.from_mesh(mesh)
        dist = DistributedClamr(mesh, state, PARTITIONS[partition](mesh, nranks))
        for _ in range(20):
            dt = compute_timestep(mesh, serial)
            finite_diff_vectorized(mesh, serial, dt, faces=faces)
            assert dist.step() == dt  # the Allreduce(min) is the serial CFL
        for a, b in ((state.H, serial.H), (state.U, serial.U), (state.V, serial.V)):
            assert a.dtype == b.dtype
            assert np.array_equal(a, b)

    @pytest.mark.parametrize("partition", ["stripe", "block", "morton"])
    def test_mass_conserved_any_partition(self, partition):
        mesh, state = setup()
        d = DistributedClamr(mesh, state, PARTITIONS[partition](mesh, 5))
        m0 = state.total_mass(mesh.cell_area())
        d.run(30)
        assert state.total_mass(mesh.cell_area()) == pytest.approx(m0, rel=1e-13)

    def test_decomposition_size_mismatch_rejected(self):
        mesh, state = setup()
        with pytest.raises(ValueError, match="covers"):
            DistributedClamr(mesh, state, stripe_partition(10, 2))


class TestReproducibility:
    def test_bitwise_identical_across_rank_counts(self):
        """Order-preserving face masking makes the distributed run
        bitwise reproducible for ANY rank count — the fixed-accumulation-
        order remedy from the §III-C literature, demonstrated."""
        results = {}
        for nranks in (1, 4, 16):
            mesh, state = setup()
            DistributedClamr(mesh, state, stripe_partition(mesh.ncells, nranks)).run(40)
            results[nranks] = state.H.copy()
        np.testing.assert_array_equal(results[1], results[4])
        np.testing.assert_array_equal(results[1], results[16])

    def test_face_permutation_alone_cannot_break_bits(self):
        """On a uniform mesh a cell has at most one face per side per axis,
        so permuting the face lists reorders no cell's accumulation."""
        mesh_a, state_a = setup()
        DistributedClamr(mesh_a, state_a, stripe_partition(mesh_a.ncells, 4)).run(40)
        mesh_b, state_b = setup()
        DistributedClamr(
            mesh_b, state_b, stripe_partition(mesh_b.ncells, 4), face_order=7
        ).run(40)
        np.testing.assert_array_equal(state_a.H, state_b.H)

    @pytest.mark.parametrize("policy", [MIN_PRECISION, FULL_PRECISION], ids=["min", "full"])
    def test_face_permutation_moves_amr_bits(self, policy):
        """On an AMR mesh a coarse cell takes two faces from a finer side,
        and their order is the permutation's: the bits drift."""
        mesh_a, state_a = setup_amr(policy)
        DistributedClamr(mesh_a, state_a, stripe_partition(mesh_a.ncells, 4)).run(40)
        mesh_b, state_b = setup_amr(policy)
        DistributedClamr(
            mesh_b, state_b, stripe_partition(mesh_b.ncells, 4), face_order=7
        ).run(40)
        drift = float(np.abs(state_a.H.astype(np.float64) - state_b.H).max())
        assert drift > 0.0

    def test_axis_phase_order_breaks_bits(self):
        """Reassociating (x then y) vs (y then x) per cell drifts at
        rounding level — the degree of freedom that makes real MPI runs
        irreproducible."""
        mesh_a, state_a = setup()
        DistributedClamr(mesh_a, state_a, stripe_partition(mesh_a.ncells, 4)).run(40)
        mesh_b, state_b = setup()
        DistributedClamr(
            mesh_b, state_b, stripe_partition(mesh_b.ncells, 4), axis_order=("y", "x")
        ).run(40)
        drift = float(np.abs(state_a.H - state_b.H).max())
        assert drift > 0.0  # the bits really change...
        assert drift < 1e-11  # ...but only at rounding level

    def test_bad_axis_order_rejected(self):
        mesh, state = setup()
        with pytest.raises(ValueError, match="axis_order"):
            DistributedClamr(mesh, state, stripe_partition(mesh.ncells, 2), axis_order=("x", "x"))

    def test_float32_reassociation_noise_larger(self):
        """At reduced precision the same reorder costs ~9 more digits —
        decomposition noise and precision noise compound."""

        def drift(policy):
            fields = []
            for axes in (("x", "y"), ("y", "x")):
                mesh, state = setup(policy=policy)
                DistributedClamr(
                    mesh, state, stripe_partition(mesh.ncells, 4), axis_order=axes
                ).run(40)
                fields.append(state.H.astype(np.float64).copy())
            return float(np.abs(fields[0] - fields[1]).max())

        d64 = drift(FULL_PRECISION)
        d32 = drift(MIN_PRECISION)
        assert d64 > 0.0
        assert d32 > 100 * d64
