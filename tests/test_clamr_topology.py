"""Bit-identity of the regrid topology builders.

Everything that turns a regridded cell soup into kernel-ready topology —
the hash-driven neighbor rebuild, the face lists, the CSR scatter plans,
the refinement flags, balance enforcement and the regrid assembly — is
integer work or order-free max/compare work.  Its outputs must therefore
match the boolean-mask / int64-gather / argsort forms kept in
``tests/reference_impls.py`` byte for byte, dtype included, on any valid
mesh: random balanced meshes at levels 1-3 and the edge cases a 1x1
domain, a mesh with no interior faces and a mesh missing a middle level.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.clamr.amr import enforce_balance, refinement_flags, regrid
from repro.clamr.kernels import FaceLists, ScatterPlan
from repro.clamr.mesh import AmrMesh
from repro.clamr.state import ShallowWaterState
from repro.precision.policy import FULL_PRECISION, MIN_PRECISION, MIXED_PRECISION
from tests.reference_impls import (
    enforce_balance_int64,
    face_lists_masked,
    neighbors_masked_gather,
    refinement_flags_gather,
    regrid_masked_assemble,
    scatter_plan_argsort,
)

POLICIES = (MIN_PRECISION, MIXED_PRECISION, FULL_PRECISION)


def assert_same_bytes(got: np.ndarray, want: np.ndarray, what: str) -> None:
    assert got.dtype == want.dtype, f"{what}: dtype {got.dtype} != {want.dtype}"
    assert got.shape == want.shape, f"{what}: shape {got.shape} != {want.shape}"
    assert got.tobytes() == want.tobytes(), f"{what}: bytes differ"


def random_state(mesh: AmrMesh, rng, policy, spread: float = 0.01) -> ShallowWaterState:
    # log-normal depths: at spreads of 0.3-3% the relative H jumps land on
    # both sides of both default thresholds (2% / 0.4%)
    H = np.exp(rng.normal(0.0, spread, mesh.ncells))
    U = rng.standard_normal(mesh.ncells)
    V = rng.standard_normal(mesh.ncells)
    return ShallowWaterState(H=H, U=U, V=V, policy=policy)


def random_balanced_mesh(rng, nx: int, ny: int, max_level: int, rounds: int) -> AmrMesh:
    """A uniform mesh evolved through ``rounds`` random (balanced) regrids."""
    mesh = AmrMesh.uniform(nx, ny, max_level=max_level)
    state = random_state(mesh, rng, FULL_PRECISION)
    for _ in range(rounds):
        flags = rng.integers(-1, 2, mesh.ncells).astype(np.int8)
        mesh, state = regrid(mesh, state, flags)
    return mesh


def gap_level_mesh() -> AmrMesh:
    """2x1 coarse cells: one at level 0, the other refined twice (no level 1)."""
    fine = np.arange(4, 8)
    i = np.concatenate([[0], np.tile(fine, 4)])
    j = np.concatenate([[0], np.repeat(np.arange(4), 4)])
    level = np.concatenate([[0], np.full(16, 2)])
    return AmrMesh(nx=2, ny=1, max_level=2, i=i, j=j, level=level)


def assert_topology_matches(mesh: AmrMesh, rng, policy=FULL_PRECISION) -> None:
    for name, got, want in zip(
        ("nlft", "nrht", "nbot", "ntop"),
        (mesh.nlft, mesh.nrht, mesh.nbot, mesh.ntop),
        neighbors_masked_gather(mesh),
    ):
        assert_same_bytes(got, want, name)

    faces = FaceLists.from_mesh(mesh)
    ref_faces = face_lists_masked(mesh)
    for field in ("xl", "xr", "xsize", "yb", "yt", "ysize",
                  "bnd_left", "bnd_right", "bnd_bottom", "bnd_top"):
        assert_same_bytes(getattr(faces, field), getattr(ref_faces, field), field)

    for axis, plan, args in zip(
        "xy",
        faces.scatter_plans(mesh.ncells),
        ((faces.xl, faces.xr, faces.xsize), (faces.yb, faces.yt, faces.ysize)),
    ):
        indptr, cols, signed64 = scatter_plan_argsort(*args, mesh.ncells)
        assert_same_bytes(plan.indptr, indptr, f"{axis}-plan indptr")
        assert_same_bytes(plan.cols, cols, f"{axis}-plan cols")
        assert_same_bytes(plan.signed64, signed64, f"{axis}-plan signed64")

    for spread in (0.003, 0.01, 0.03):
        state = random_state(mesh, rng, policy, spread)
        assert_same_bytes(
            refinement_flags(mesh, state), refinement_flags_gather(mesh, state), "refinement flags"
        )

    raw = rng.integers(-1, 2, mesh.ncells).astype(np.int8)
    assert_same_bytes(enforce_balance(mesh, raw), enforce_balance_int64(mesh, raw), "balanced flags")

    new_mesh, new_state = regrid(mesh, state, raw)
    ref_mesh, ref_state = regrid_masked_assemble(mesh, state, raw)
    for name in ("i", "j", "level"):
        assert_same_bytes(getattr(new_mesh, name), getattr(ref_mesh, name), f"regridded {name}")
    for name in ("H", "U", "V"):
        assert_same_bytes(getattr(new_state, name), getattr(ref_state, name), f"regridded {name}")
    for name, got, want in zip(
        ("nlft", "nrht", "nbot", "ntop"),
        (new_mesh.nlft, new_mesh.nrht, new_mesh.nbot, new_mesh.ntop),
        neighbors_masked_gather(new_mesh),
    ):
        assert_same_bytes(got, want, f"regridded {name}")


class TestTopologyBitIdentity:
    @given(
        st.integers(0, 10_000),
        st.integers(1, 5),
        st.integers(1, 5),
        st.integers(1, 3),
        st.integers(0, 4),
        st.sampled_from(POLICIES),
    )
    @settings(max_examples=60, deadline=None)
    def test_random_balanced_meshes(self, seed, nx, ny, max_level, rounds, policy):
        rng = np.random.default_rng(seed)
        mesh = random_balanced_mesh(rng, nx, ny, max_level, rounds)
        assert mesh.check_balance()
        assert_topology_matches(mesh, rng, policy)

    @pytest.mark.parametrize("max_level", [0, 1, 2, 3])
    def test_one_by_one_mesh_has_no_interior_faces(self, max_level):
        mesh = AmrMesh.uniform(1, 1, max_level=max_level)
        faces = FaceLists.from_mesh(mesh)
        assert faces.xl.size == faces.yb.size == 0
        assert_topology_matches(mesh, np.random.default_rng(max_level))

    @pytest.mark.parametrize("level", [1, 2, 3])
    def test_refined_one_by_one_mesh(self, level):
        mesh = AmrMesh.uniform(1, 1, max_level=3, level=level)
        assert_topology_matches(mesh, np.random.default_rng(level))

    def test_strip_without_y_faces(self):
        # a 1-cell-high strip at level 0: x-faces only, the y-plan is empty
        mesh = AmrMesh.uniform(5, 1, max_level=2)
        assert FaceLists.from_mesh(mesh).yb.size == 0
        assert_topology_matches(mesh, np.random.default_rng(5))

    def test_levels_zero_and_two_without_level_one(self):
        mesh = gap_level_mesh()
        assert np.array_equal(np.bincount(mesh.level), [1, 0, 16])
        assert_topology_matches(mesh, np.random.default_rng(2))

    def test_empty_plan(self):
        empty = np.empty(0, dtype=np.int64)
        plan = ScatterPlan(empty, empty, np.empty(0), 3)
        indptr, cols, signed64 = scatter_plan_argsort(empty, empty, np.empty(0), 3)
        assert_same_bytes(plan.indptr, indptr, "indptr")
        assert_same_bytes(plan.cols, cols, "cols")
        assert_same_bytes(plan.signed64, signed64, "signed64")
