"""Bit-identity and cache behavior of the ScatterPlan fast path.

The scatter optimization's entire contract is *bitwise* equivalence with
the original ``np.add.at`` kernel (kept in ``tests/reference_impls.py``)
— not closeness, identity.  These tests
drive full simulations (all precision levels x both schemes, with and
without AMR regrids) under both scatter modes and compare every state
bit, plus unit-level checks of the plan structure and the geometry
cache.
"""

import weakref

import numpy as np
import pytest

from repro.clamr import ClamrSimulation, DamBreakConfig
from repro.clamr.kernels import (
    FaceLists,
    GeometryCache,
    ScatterPlan,
    compute_timestep,
    finite_diff_vectorized,
    scatter_mode,
)
from repro.clamr.mesh import AmrMesh
from repro.clamr.muscl import finite_diff_muscl
from repro.service import JobSpec
from tests.reference_impls import finite_diff_add_at


def _run_states(policy, scheme, nx=16, steps=20, max_level=2, scenario=None):
    """Final (H, U, V) under each scatter mode, same config."""
    out = {}
    for mode in ("plan", "add_at"):
        spec = JobSpec("clamr", nx=nx, max_level=max_level, policy=policy, scheme=scheme,
                       scenario=scenario or "")
        with scatter_mode(mode):
            sim = spec.simulation()
            sim.run(steps)
        out[mode] = (sim.state.H.copy(), sim.state.U.copy(), sim.state.V.copy())
    return out


# the seed dam break keeps its original ids; the two moving-bathymetry
# scenarios drive the sided plan through both well-balanced kernels
_FULL_SIM_CASES = [
    pytest.param(None, policy, scheme, id=f"{scheme}-{policy}")
    for scheme in ("muscl", "rusanov")
    for policy in ("full", "min", "mixed")
] + [
    pytest.param(scenario, policy, scheme, id=f"{scenario.split('/')[1]}-{scheme}-{policy}")
    for scenario in ("clamr/partial-breach", "clamr/obstacle-field")
    for scheme in ("muscl", "rusanov")
    for policy in ("full", "min", "mixed")
]


class TestBitIdentity:
    @pytest.mark.parametrize("scenario,policy,scheme", _FULL_SIM_CASES)
    def test_full_simulation_bit_identical(self, scenario, policy, scheme):
        # max_level=2 regrids as the wave spreads, so this exercises plan
        # rebuilds across topology generations too
        states = _run_states(policy, scheme, scenario=scenario)
        for a, b in zip(states["plan"], states["add_at"]):
            assert a.dtype == b.dtype
            assert np.array_equal(a, b), f"{scenario}/{policy}/{scheme}: state bits diverged"

    def test_uniform_mesh_no_regrid(self):
        # the no-AMR case keeps one topology for the whole run
        states = _run_states("mixed", "rusanov", max_level=0, steps=30)
        for a, b in zip(states["plan"], states["add_at"]):
            assert np.array_equal(a, b)

    def test_single_step_identity_from_developed_state(self):
        cfg = DamBreakConfig(nx=24, ny=24, max_level=2)
        sim = ClamrSimulation(cfg, policy="full")
        sim.run(10)
        faces = FaceLists.from_mesh(sim.mesh)
        results = {}
        for mode in ("plan", "add_at"):
            s = sim.state.copy()
            with scatter_mode(mode):
                dt = compute_timestep(sim.mesh, s, cfg.courant)
                finite_diff_vectorized(sim.mesh, s, dt, faces=faces)
            results[mode] = s
        assert np.array_equal(results["plan"].H, results["add_at"].H)
        assert np.array_equal(results["plan"].U, results["add_at"].U)
        assert np.array_equal(results["plan"].V, results["add_at"].V)


    @pytest.mark.parametrize("policy", ["min", "mixed", "full"])
    def test_matches_original_add_at_kernel(self, policy):
        # the pre-ScatterPlan kernel body (tests/reference_impls.py) is the
        # oracle both scatter modes of the production kernel must replay
        cfg = DamBreakConfig(nx=24, ny=24, max_level=2)
        sim = ClamrSimulation(cfg, policy=policy)
        sim.run(10)
        faces = FaceLists.from_mesh(sim.mesh)
        ref = sim.state.copy()
        got = {mode: sim.state.copy() for mode in ("plan", "add_at")}
        for _ in range(4):
            dt = compute_timestep(sim.mesh, ref, cfg.courant)
            finite_diff_add_at(sim.mesh, ref, dt, faces)
            for mode, s in got.items():
                with scatter_mode(mode):
                    finite_diff_vectorized(sim.mesh, s, dt, faces=faces)
        for mode, s in got.items():
            for a, b in ((s.H, ref.H), (s.U, ref.U), (s.V, ref.V)):
                assert np.array_equal(a, b), f"{policy}/{mode}: diverged from add.at body"


class TestScatterPlan:
    def _plan(self, ncells=6):
        low = np.array([0, 1, 2, 0], dtype=np.int64)
        high = np.array([1, 2, 3, 5], dtype=np.int64)
        sizes = np.array([1.0, 0.5, 0.5, 0.25])
        return ScatterPlan(low, high, sizes, ncells), low, high, sizes

    def test_structure(self):
        plan, low, high, sizes = self._plan()
        assert plan.nfaces == 4
        # every face contributes twice: one low entry, one high entry
        assert plan.indptr[-1] == 2 * plan.nfaces
        counts = np.bincount(np.concatenate([low, high]), minlength=plan.ncells)
        assert np.array_equal(np.diff(plan.indptr), counts)

    def test_apply_matches_add_at(self):
        # float16 has no compiled matvec, so it always takes the add.at pair
        plan, low, high, sizes = self._plan()
        rng = np.random.default_rng(7)
        for dtype in (np.float16, np.float32, np.float64):
            flux = rng.standard_normal(4).astype(dtype)
            high_flux = rng.standard_normal(4).astype(dtype)
            fsz = sizes.astype(dtype)
            for sided in (None, high_flux):
                a = rng.standard_normal(plan.ncells).astype(dtype)
                b = a.copy()
                plan.apply(a, flux, sided)
                np.add.at(b, low, -flux * fsz)
                np.add.at(b, high, (flux if sided is None else sided) * fsz)
                assert np.array_equal(a, b), (dtype, sided is not None)

    def test_face_lists_memoize_plans(self):
        mesh = AmrMesh.uniform(8, 8)
        faces = FaceLists.from_mesh(mesh)
        p1 = faces.scatter_plans(mesh.ncells)
        p2 = faces.scatter_plans(mesh.ncells)
        assert p1[0] is p2[0] and p1[1] is p2[1]

class TestPlansBuiltWithFaces:
    def test_kernel_after_faces_for_builds_no_plan(self, monkeypatch):
        sim = ClamrSimulation(DamBreakConfig(nx=16, ny=16, max_level=2))
        built = []
        init = ScatterPlan.__init__

        def counting_init(self, *args, **kwargs):
            built.append(args)
            init(self, *args, **kwargs)

        monkeypatch.setattr(ScatterPlan, "__init__", counting_init)
        faces = sim._faces_for(sim.mesh)
        assert len(built) == 2  # the x-plan and the y-plan
        assert faces._plans[0] == sim.mesh.ncells
        built.clear()
        dt = compute_timestep(sim.mesh, sim.state, sim.config.courant)
        finite_diff_vectorized(sim.mesh, sim.state, dt, faces=faces)
        assert built == []

    def test_run_builds_plans_only_in_faces_for(self, monkeypatch):
        # every plan of a regridding run is built by _faces_for: two per
        # topology, none from inside a kernel call
        sim = ClamrSimulation(DamBreakConfig(nx=16, ny=16, max_level=2, regrid_interval=2))
        built = []
        in_faces_for = []
        init = ScatterPlan.__init__
        faces_for = sim._faces_for

        def counting_init(self, *args, **kwargs):
            built.append(bool(in_faces_for))
            init(self, *args, **kwargs)

        def tracking_faces_for(mesh):
            in_faces_for.append(mesh.generation)
            try:
                return faces_for(mesh)
            finally:
                in_faces_for.pop()

        monkeypatch.setattr(ScatterPlan, "__init__", counting_init)
        monkeypatch.setattr(sim, "_faces_for", tracking_faces_for)
        sim.run(8)  # four regrids
        assert len(built) == 2 * 5  # the initial topology + four regrids
        assert all(built)


class TestGeometryCache:
    def test_keyed_by_generation(self):
        geom = GeometryCache()
        m1 = AmrMesh.uniform(4, 4)
        m2 = AmrMesh.uniform(4, 4)
        assert m1.generation != m2.generation
        s1, a1 = geom.geometry(m1, np.dtype(np.float64))
        s1b, a1b = geom.geometry(m1, np.dtype(np.float64))
        assert s1 is s1b and a1 is a1b  # cache hit on same mesh
        s2, _ = geom.geometry(m2, np.dtype(np.float64))
        assert s2 is not s1  # different mesh object, different entry

    def test_workspace_zeroed_buffer_not(self):
        geom = GeometryCache()
        mesh = AmrMesh.uniform(4, 4)
        w = geom.workspace3(mesh, np.dtype(np.float64), slot="t")
        for arr in w:
            arr += 1.0
        w2 = geom.workspace3(mesh, np.dtype(np.float64), slot="t")
        assert all(np.all(arr == 0.0) for arr in w2)  # re-zeroed each call
        buf = geom.buffer(mesh, np.dtype(np.float64), "scratch", (2, 5))
        assert buf.shape == (2, 5) and buf.flags.c_contiguous
        buf2 = geom.buffer(mesh, np.dtype(np.float64), "scratch", (2, 5))
        assert np.shares_memory(buf2, buf)  # reused, contents undefined by contract
        buf3 = geom.buffer(mesh, np.dtype(np.float64), "scratch", (3, 5))
        assert buf3.shape == (3, 5) and buf3.flags.c_contiguous
        assert not np.shares_memory(buf3, buf)  # buf is still alive

    def test_geometry_and_terms_held_for_one_generation(self):
        # cast geometry and derived terms belong to the generation last
        # asked for; asking for another drops them, asking again rebuilds
        geom = GeometryCache()
        f64 = np.dtype(np.float64)
        old, new = AmrMesh.uniform(4, 4), AmrMesh.uniform(4, 4, max_level=1, level=1)
        size_old, _ = geom.geometry(old, f64)
        builds = []
        owner = object()

        def term(mesh):
            return geom.derived(mesh, ("t",), owner, lambda: builds.append(mesh.generation) or mesh.ncells)

        assert term(old) == 16 and term(old) == 16 and builds == [old.generation]
        assert term(new) == 64 and builds == [old.generation, new.generation]
        size_again, _ = geom.geometry(old, f64)
        assert size_again is not size_old and size_again.tobytes() == size_old.tobytes()
        assert term(old) == 16 and builds[-1] == old.generation and len(builds) == 3
        # a release drops them too; the scratch arenas stay
        buf = geom.buffer(old, f64, "scratch", (2, 5))
        base = buf.base
        del buf
        geom.release()
        assert geom.geometry(old, f64)[0] is not size_again
        assert term(old) == 16 and len(builds) == 4
        assert geom.buffer(old, f64, "scratch", (2, 5)).base is base

    def test_scratch_outlives_a_generation(self):
        # one arena per (dtype, name) across generations: exact size on
        # first use, an eighth of headroom on growth, never shrunk; a
        # workspace handed to a rollback's older mesh is zeroed
        geom = GeometryCache()
        f64 = np.dtype(np.float64)
        old, new = AmrMesh.uniform(4, 4), AmrMesh.uniform(4, 4, max_level=1, level=1)
        # weak references: a strong one would be a live view of the arena
        w = geom.workspace3(old, f64, slot="t")
        assert w.base.size == 3 * 16
        arena = weakref.ref(w.base)
        del w
        w = geom.workspace3(new, f64, slot="t")
        assert w.base is not arena() and w.base.size == 3 * 64 + (3 * 64) // 8
        grown = weakref.ref(w.base)
        w.fill(7.0)
        del w
        back = geom.workspace3(old, f64, slot="t")
        assert back.base is grown() and back.shape == (3, 16)
        assert np.all(back == 0.0)

    @pytest.mark.parametrize("scheme", ["rusanov", "muscl"])
    @pytest.mark.parametrize("backend", ["numpy", "cext"])
    def test_stepping_an_older_mesh_again_same_bits(self, scheme, backend):
        # the rollback path: step a regridded mesh, then step the mesh it
        # replaced again on the same cache, larger -> smaller -> larger, so
        # the smaller mesh steps in prefixes of the larger one's arenas and
        # the larger one comes back to arenas the smaller one wrote; every
        # segment's bits must equal a run on a cache that saw nothing else
        from repro.clamr.backends import kernel_backend

        with kernel_backend(backend):
            sim = ClamrSimulation(DamBreakConfig(nx=12, ny=12, max_level=2), policy="mixed",
                                  scheme=scheme)
            sim.run(3)
            first = (sim.mesh, sim.state.copy())
            for _ in range(5):  # a regrid every 4 steps, until the cell count moves
                sim.run(4)
                if sim.mesh.ncells != first[0].ncells:
                    break
            second = (sim.mesh, sim.state.copy())
            assert second[0].ncells != first[0].ncells
            small, large = sorted((first, second), key=lambda ms: ms[0].ncells)
            kernel = finite_diff_muscl if scheme == "muscl" else finite_diff_vectorized

            def segment(geom, mesh, state):
                faces = FaceLists.from_mesh(mesh)
                state = state.copy()
                for _ in range(3):
                    dt = compute_timestep(mesh, state, 0.25, geom=geom)
                    kernel(mesh, state, dt, faces=faces, geom=geom)
                return state

            got = [segment(sim._geom, *ms) for ms in (large, small, large)]
            want = [segment(GeometryCache(), *ms) for ms in (large, small, large)]
        for g, w in zip(got, want):
            for name in ("H", "U", "V"):
                assert getattr(g, name).tobytes() == getattr(w, name).tobytes()

    def test_dtype_casts_distinct(self):
        geom = GeometryCache()
        mesh = AmrMesh.uniform(4, 4)
        s32, _ = geom.geometry(mesh, np.dtype(np.float32))
        s64, _ = geom.geometry(mesh, np.dtype(np.float64))
        assert s32.dtype == np.float32 and s64.dtype == np.float64
        assert np.array_equal(s64, mesh.cell_size())


class TestMassContributions:
    def test_total_mass_uses_shared_contributions(self):
        from repro.clamr.state import ShallowWaterState
        from repro.sums.doubledouble import dd_sum

        rng = np.random.default_rng(3)
        state = ShallowWaterState(
            H=rng.uniform(0.5, 2.0, 32),
            U=np.zeros(32),
            V=np.zeros(32),
        )
        area = rng.uniform(0.1, 1.0, 32)
        contrib = state.mass_contributions(area)
        assert contrib.dtype == np.float64
        assert state.total_mass(area) == float(dd_sum(contrib))

    def test_scatter_mode_rejects_unknown(self):
        with pytest.raises(ValueError):
            with scatter_mode("fancy"):
                pass
