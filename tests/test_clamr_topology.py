"""Bit-identity of the regrid topology builders.

Everything that turns a regridded cell soup into kernel-ready topology —
the hash-driven neighbor rebuild, the face lists, the CSR scatter plans,
the refinement flags, balance enforcement and the regrid assembly — is
integer work or order-free max/compare work.  Its outputs must therefore
match the boolean-mask / int64-gather / argsort forms kept in
``tests/reference_impls.py`` byte for byte, dtype included, on any valid
mesh: random balanced meshes at levels 1-3 and the edge cases a 1x1
domain, a mesh with no interior faces and a mesh missing a middle level.

The loop backends (``python`` loops and compiled ``cext``) build the same
neighbors, face lists, flags and balance, plus MUSCL's Heun stage
updates, in their own loops; on the same meshes every output (scatter
plans included) must equal the NumPy oracle's byte for byte, invalid
soups must raise the same errors, and ``scatter_mode("add_at")`` must
keep every builder on NumPy.
"""

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.clamr import ClamrSimulation, DamBreakConfig, backends
from repro.clamr.amr import enforce_balance, refinement_flags, regrid
from repro.clamr.backends import kernel_backend
from repro.clamr.kernels import FaceLists, ScatterPlan, compute_timestep, scatter_mode
from repro.clamr.mesh import AmrMesh
from repro.clamr.muscl import finite_diff_muscl
from repro.clamr.state import ShallowWaterState
from repro.precision.policy import (
    FULL_PRECISION,
    HALF_PRECISION,
    MIN_PRECISION,
    MIXED_PRECISION,
)
from tests.reference_impls import (
    enforce_balance_int64,
    face_lists_masked,
    neighbors_masked_gather,
    refinement_flags_gather,
    regrid_masked_assemble,
    scatter_plan_argsort,
)

POLICIES = (MIN_PRECISION, MIXED_PRECISION, FULL_PRECISION)

HAVE_CEXT = backends.cext.availability()[0]
#: the loop backends compared against the NumPy oracle
LOOP_BACKENDS = [
    "python",
    pytest.param("cext", marks=pytest.mark.skipif(not HAVE_CEXT, reason="no C compiler")),
]
FACE_FIELDS = ("xl", "xr", "xsize", "yb", "yt", "ysize",
               "bnd_left", "bnd_right", "bnd_bottom", "bnd_top")


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
    for field in FACE_FIELDS:
        assert_same_bytes(getattr(faces, field), getattr(ref_faces, field), field)

    for axis, plan, args in zip(
        "xy",
        faces.scatter_plans(mesh.ncells),
        ((faces.xl, faces.xr, faces.xsize), (faces.yb, faces.yt, faces.ysize)),
    ):
        indptr, cols, signed64 = scatter_plan_argsort(*args, mesh.ncells)
        assert_same_bytes(plan.indptr, indptr, f"{axis}-plan indptr")
        assert_same_bytes(plan.cols, cols, f"{axis}-plan cols")
        assert_same_bytes(plan.signed(np.float64), signed64, f"{axis}-plan signed64")

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
        assert_same_bytes(plan.signed(np.float64), signed64, "signed64")


def builder_outputs(mesh: AmrMesh, state: ShallowWaterState, raw: np.ndarray) -> dict:
    """Every builder's output for ``mesh`` under the active backend.

    The mesh is rebuilt from its cell soup so its neighbors come from the
    active backend too; a MUSCL step (Heun stages) and the CFL timestep
    run on a copy of ``state``.
    """
    fresh = AmrMesh(nx=mesh.nx, ny=mesh.ny, max_level=mesh.max_level,
                    i=mesh.i, j=mesh.j, level=mesh.level, coarse_size=mesh.coarse_size)
    out = {name: getattr(fresh, name) for name in ("nlft", "nrht", "nbot", "ntop")}
    faces = FaceLists.from_mesh(fresh)
    out.update((field, getattr(faces, field)) for field in FACE_FIELDS)
    out["walls"] = faces.boundary_concat()[0]
    for axis, plan in zip("xy", faces.scatter_plans(fresh.ncells)):
        out[f"{axis}-indptr"] = plan.indptr
        out[f"{axis}-cols"] = plan.cols
        out[f"{axis}-signed64"] = plan.signed(np.float64)
        out[f"{axis}-sided"] = plan._sided_cols()
    out["flags"] = refinement_flags(fresh, state)
    out["balanced"] = enforce_balance(fresh, raw)
    stepped = state.copy()
    dt = compute_timestep(fresh, stepped, 0.25)
    out["dt"] = np.float64(dt)
    finite_diff_muscl(fresh, stepped, dt, faces=faces)
    out.update(H=stepped.H, U=stepped.U, V=stepped.V)
    return out


def assert_backends_match(mesh: AmrMesh, rng, policy=FULL_PRECISION, backends_=("python", "cext")) -> None:
    state = random_state(mesh, rng, policy, 0.01)
    raw = rng.integers(-1, 2, mesh.ncells).astype(np.int8)
    want = builder_outputs(mesh, state, raw)
    for backend in backends_:
        if backend == "cext" and not HAVE_CEXT:
            continue
        with kernel_backend(backend):
            got = builder_outputs(mesh, state, raw)
        assert got.keys() == want.keys()
        for name in want:
            assert_same_bytes(got[name], want[name], f"{backend} {name}")


def overlap_mesh() -> AmrMesh:
    # a level-1 quadrant painted over a level-0 cell, the rest left empty
    return AmrMesh(nx=2, ny=1, max_level=1, i=[0, 0], j=[0, 0], level=[0, 1])


def gapped_mesh() -> AmrMesh:
    return AmrMesh(nx=2, ny=1, max_level=1, i=[0, 2, 3], j=[0, 0, 1], level=[0, 1, 1])


class TestLoopBackendsMatchNumpy:
    @given(
        st.integers(0, 10_000),
        st.integers(1, 5),
        st.integers(1, 5),
        st.integers(1, 3),
        st.integers(0, 4),
        st.sampled_from(POLICIES + (HALF_PRECISION,)),
    )
    @settings(max_examples=25, deadline=None)
    def test_random_balanced_meshes(self, seed, nx, ny, max_level, rounds, policy):
        rng = np.random.default_rng(seed)
        mesh = random_balanced_mesh(rng, nx, ny, max_level, rounds)
        assert_backends_match(mesh, rng, policy)

    @pytest.mark.parametrize("max_level", [0, 1, 3])
    def test_one_by_one_mesh(self, max_level):
        assert_backends_match(AmrMesh.uniform(1, 1, max_level=max_level),
                              np.random.default_rng(max_level))

    @pytest.mark.parametrize("level", [1, 3])
    def test_refined_one_by_one_mesh(self, level):
        assert_backends_match(AmrMesh.uniform(1, 1, max_level=3, level=level),
                              np.random.default_rng(level))

    def test_strip_without_y_faces(self):
        assert_backends_match(AmrMesh.uniform(5, 1, max_level=2), np.random.default_rng(5))

    def test_levels_zero_and_two_without_level_one(self):
        assert_backends_match(gap_level_mesh(), np.random.default_rng(2), MIN_PRECISION)

    @pytest.mark.parametrize("backend", ["numpy", *LOOP_BACKENDS])
    @pytest.mark.parametrize("build,message", [
        (overlap_mesh, "mesh cells overlap"),
        (gapped_mesh, r"mesh does not cover the domain \(gaps present\)"),
    ], ids=["overlap", "gap"])
    def test_invalid_soup_raises_the_numpy_error(self, backend, build, message):
        with kernel_backend(backend), pytest.raises(ValueError, match=f"^{message}$"):
            build()

    @pytest.mark.parametrize("backend", LOOP_BACKENDS)
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
    @pytest.mark.parametrize("depths", ["unit", "below-floor", "deep-and-shallow"])
    def test_flags_on_nonfinite_depths(self, backend, bad, depths):
        # a NaN or infinite depth must flag (and cancel) exactly as
        # np.maximum's NaN propagation does.  "below-floor" depths sit
        # under the 1e-12 floor; with "deep-and-shallow" the floor
        # max|H| * 1e-12 would hide the shallow cells' jumps, but np.max
        # is NaN once a depth is, so the floor stays 1e-12
        rng = np.random.default_rng(11)
        mesh = random_balanced_mesh(rng, 4, 4, 2, 2)
        x, _ = mesh.cell_centers()
        shallow = x < 2.0  # the left half of the 4x4 domain
        deep = np.flatnonzero(~shallow)
        for spread in (0.003, 0.03):
            state = random_state(mesh, rng, FULL_PRECISION, spread)
            if depths == "below-floor":
                state.H *= 1e-13
            elif depths == "deep-and-shallow":
                state.H[shallow] *= 1e-8
                state.H[deep[-1]] = 1e6
            state.H[rng.choice(deep[:-1], 3, replace=False)] = bad
            want = refinement_flags(mesh, state)
            with kernel_backend(backend):
                got = refinement_flags(mesh, state)
            assert_same_bytes(got, want, f"{backend} flags")

    def test_add_at_keeps_every_builder_on_numpy(self, monkeypatch):
        # scatter_mode("add_at") is the full-oracle request: no loop body
        # may run under it, topology builders included
        calls = []
        for name in backends.loops.__all__:
            original = getattr(backends.loops, name)
            monkeypatch.setattr(
                backends.loops, name,
                lambda *args, _f=original, _n=name: (calls.append(_n), _f(*args))[1],
            )
        backends._OPS_CACHE.clear()
        try:
            mesh = random_balanced_mesh(np.random.default_rng(4), 3, 3, 2, 2)
            state = random_state(mesh, np.random.default_rng(4), FULL_PRECISION)
            raw = np.zeros(mesh.ncells, dtype=np.int8)
            with kernel_backend("python"):
                with scatter_mode("add_at"):
                    want = builder_outputs(mesh, state, raw)
                assert calls == []
                got = builder_outputs(mesh, state, raw)
            assert set(calls) == set(backends.loops.__all__)
            for name in want:
                assert_same_bytes(got[name], want[name], name)
        finally:
            backends._OPS_CACHE.clear()

    @pytest.mark.skipif(not HAVE_CEXT, reason="no C compiler")
    def test_half_policy_builds_topology_compiled(self):
        # float16 arithmetic stays on NumPy, the dtype-free builders do not
        with kernel_backend("cext"):
            assert backends.resolved_backend(np.float16) == "numpy"
            assert backends.topology_ops().name == "cext"


def _state_sha256(sim) -> str:
    h = hashlib.sha256()
    for q in (sim.state.H, sim.state.U, sim.state.V):
        h.update(q.tobytes())
    return h.hexdigest()


@pytest.mark.skipif(not HAVE_CEXT, reason="no C compiler")
@pytest.mark.parametrize("policy,scheme,steps", [
    ("min", "rusanov", 40),
    ("half", "rusanov", 40),
    ("full", "muscl", 12),
], ids=["dambreak-min", "dambreak-half", "muscl-full"])
def test_cext_run_ends_on_the_numpy_state_hash(policy, scheme, steps):
    # 16x16 coarse cells, 2 AMR levels: every regrid builds its topology
    # in C; the final state and mass must not differ by a bit
    runs = {}
    for backend in ("numpy", "cext"):
        with kernel_backend(backend):
            sim = ClamrSimulation(DamBreakConfig(nx=16, ny=16, max_level=2),
                                  policy=policy, scheme=scheme)
            result = sim.run(steps)
        runs[backend] = (_state_sha256(sim), float(result.mass_history[-1]).hex(),
                         result.ncells_history)
    assert runs["cext"] == runs["numpy"]
