"""Property-based fuzzing of the AMR mesh/regrid machinery.

Random refinement/coarsening sequences must preserve every structural
invariant: domain coverage without overlap (checked by the hash builder),
2:1 face balance, neighbor-link consistency, conservation of mass through
state transfer, and kernel stability on whatever mesh comes out.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.clamr.amr import regrid
from repro.clamr.kernels import FaceLists, compute_timestep, finite_diff_vectorized
from repro.clamr.mesh import AmrMesh
from repro.clamr.state import ShallowWaterState
from repro.precision.policy import FULL_PRECISION
from tests.reference_impls import paint_hash_add_at


def random_mesh_and_state(seed: int, rounds: int, nx: int = 4, max_level: int = 2):
    """Evolve a uniform mesh through `rounds` random regrids."""
    rng = np.random.default_rng(seed)
    mesh = AmrMesh.uniform(nx, nx, max_level=max_level, coarse_size=1.0 / nx)
    x, y = mesh.cell_centers()
    H = 1.0 + 0.5 * np.exp(-((x - 0.5) ** 2 + (y - 0.5) ** 2) * 8.0)
    state = ShallowWaterState(H=H, U=np.zeros_like(H), V=np.zeros_like(H), policy=FULL_PRECISION)
    for _ in range(rounds):
        flags = rng.integers(-1, 2, mesh.ncells).astype(np.int8)
        mesh, state = regrid(mesh, state, flags)
    return mesh, state


class TestRegridFuzz:
    @given(st.integers(0, 10_000), st.integers(1, 5))
    @settings(max_examples=60, deadline=None)
    def test_invariants_after_random_regrids(self, seed, rounds):
        mesh, state = random_mesh_and_state(seed, rounds)
        # hash build doubles as cover/overlap validation — must not raise
        image = mesh.build_hash()
        assert (image >= 0).all()
        assert mesh.check_balance()
        # total area preserved
        assert mesh.cell_area().sum() == pytest.approx(1.0, rel=1e-12)

    @given(st.integers(0, 10_000), st.integers(0, 5), st.sampled_from([1, 2, 3]))
    @settings(max_examples=60, deadline=None)
    def test_hash_image_matches_add_at_painter(self, seed, rounds, max_level):
        """The block-view painter yields the same image as the index-cube
        painter validated with np.add.at."""
        mesh, _ = random_mesh_and_state(seed, rounds, nx=3, max_level=max_level)
        np.testing.assert_array_equal(mesh.build_hash(), paint_hash_add_at(mesh))

    @given(st.integers(0, 10_000), st.integers(1, 4))
    @settings(max_examples=40, deadline=None)
    def test_mass_conserved_through_random_regrids(self, seed, rounds):
        rng = np.random.default_rng(seed)
        mesh = AmrMesh.uniform(4, 4, max_level=2, coarse_size=0.25)
        H = 1.0 + rng.random(mesh.ncells)
        state = ShallowWaterState(
            H=H, U=rng.normal(size=mesh.ncells), V=rng.normal(size=mesh.ncells),
            policy=FULL_PRECISION,
        )
        mass0 = state.total_mass(mesh.cell_area())
        for _ in range(rounds):
            flags = rng.integers(-1, 2, mesh.ncells).astype(np.int8)
            mesh, state = regrid(mesh, state, flags)
        assert state.total_mass(mesh.cell_area()) == pytest.approx(mass0, rel=1e-13)

    @given(st.integers(0, 10_000))
    @settings(max_examples=25, deadline=None)
    def test_kernel_stable_on_fuzzed_mesh(self, seed):
        mesh, state = random_mesh_and_state(seed, rounds=3)
        faces = FaceLists.from_mesh(mesh)
        for _ in range(5):
            dt = compute_timestep(mesh, state, 0.2)
            finite_diff_vectorized(mesh, state, dt, faces=faces)
        assert np.isfinite(state.H).all()
        assert state.H.min() > 0.0

    @given(st.integers(0, 10_000))
    @settings(max_examples=30, deadline=None)
    def test_neighbor_links_consistent(self, seed):
        """Every stored link points to a face-adjacent cell of level
        within one, and boundary sides self-reference."""
        mesh, _ = random_mesh_and_state(seed, rounds=2)
        span = mesh.cell_span_fine().astype(np.int64)
        i0 = mesh.i.astype(np.int64) * span
        j0 = mesh.j.astype(np.int64) * span
        for c in range(mesh.ncells):
            for nbr, is_boundary in (
                (int(mesh.nlft[c]), i0[c] == 0),
                (int(mesh.nrht[c]), i0[c] + span[c] == mesh.nxf),
                (int(mesh.nbot[c]), j0[c] == 0),
                (int(mesh.ntop[c]), j0[c] + span[c] == mesh.nyf),
            ):
                if is_boundary:
                    assert nbr == c
                else:
                    assert nbr != c
                    assert abs(int(mesh.level[nbr]) - int(mesh.level[c])) <= 1

    @given(st.integers(0, 10_000), st.integers(1, 3))
    @settings(max_examples=30, deadline=None)
    def test_face_lists_cover_every_interior_adjacency(self, seed, rounds):
        """Total interior x-face length equals the measured interface
        length computed directly from the hash image."""
        mesh, _ = random_mesh_and_state(seed, rounds)
        faces = FaceLists.from_mesh(mesh)
        image = mesh.build_hash()
        fine = mesh.coarse_size / (1 << mesh.max_level)
        # count fine-pixel column boundaries where the owner changes
        changes = int((image[:, 1:] != image[:, :-1]).sum())
        assert faces.xsize.sum() == pytest.approx(changes * fine, rel=1e-12)


class TestGuardedLoopFuzz:
    """The resilient supervisor's core promise, fuzzed: a checkpoint is
    only ever taken after a full detector scan passes, so whatever fault
    lands mid-run, non-finite state is never committed as a rollback
    target — and a run that completes ends on fully finite state."""

    @given(
        st.integers(0, 10_000),
        st.sampled_from(["bitflip", "nan", "inf", "overflow"]),
        st.sampled_from(["H", "U", "V"]),
        st.integers(1, 12),
    )
    @settings(max_examples=25, deadline=None)
    def test_float32_loop_never_commits_nonfinite_state(self, seed, kind, array, step):
        from repro.resilience import (
            ClamrAdapter,
            FaultPlan,
            FaultSpec,
            RecoveryPolicy,
            ResilientRunner,
        )
        from repro.service import JobSpec

        adapter = ClamrAdapter(JobSpec("clamr", nx=8, max_level=1, policy="min"))
        assert adapter.state_dtype == np.float32

        committed = []
        take_snapshot = adapter.snapshot

        def checked_snapshot():
            snap = take_snapshot()
            s = snap["state"]
            assert np.isfinite(s.H).all() and np.isfinite(s.U).all() and np.isfinite(s.V).all()
            committed.append(snap)
            return snap

        adapter.snapshot = checked_snapshot
        plan = FaultPlan(specs=(FaultSpec(kind=kind, array=array, step=step),), seed=seed)
        runner = ResilientRunner(
            adapter, plan=plan, policy=RecoveryPolicy(checkpoint_interval=4)
        )
        report = runner.run(12)
        assert committed, "at least the initial checkpoint must have been taken"
        if report.completed:
            for arr in adapter.arrays().values():
                assert np.isfinite(arr).all()
