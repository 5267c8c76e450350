"""CLAMR scratch that outlives a regrid, and a regrid that borrows it.

``GeometryCache`` hands out every scratch buffer as a view of one flat
arena per (dtype, name) that survives regrids and only grows, and the
neighbor rebuild paints one padded int32 image reused across meshes.
These tests pin what that must keep: a run allocates a name's arena
again only when its mesh outgrows it, two live views of one name never
alias, and the neighbor build from the reused image is byte-equal to the
masked-gather reference with the same error messages.

They also pin the run's footprint: the face buffer's row count per flux
routine, a regrid that takes its temporaries from the idle face buffer
(``GeometryCache.borrow``) and creates no arena, what each regrid stage
allocates beyond what it keeps, and one signed-size array per scatter
plan.
"""

import tracemalloc
import weakref

import numpy as np
import pytest

import repro.clamr.simulation as simulation
from repro.clamr import ClamrSimulation, DamBreakConfig, backends
from repro.clamr.backends import kernel_backend
from repro.clamr.kernels import (
    FaceLists,
    GeometryCache,
    ScatterPlan,
    compute_timestep,
    finite_diff_vectorized,
)
from repro.clamr.mesh import AmrMesh
from repro.clamr.muscl import finite_diff_muscl
from repro.clamr.state import ShallowWaterState
from repro.precision.policy import FULL_PRECISION, PrecisionPolicy
from tests.reference_impls import neighbors_masked_gather
from tests.test_clamr_topology import gap_level_mesh, random_balanced_mesh

HAVE_CEXT = backends.cext.availability()[0]
BACKENDS = [
    "numpy",
    "python",
    pytest.param("cext", marks=pytest.mark.skipif(not HAVE_CEXT, reason="no C compiler")),
]


def _record_handouts(monkeypatch) -> dict:
    """Wrap the cache's two scratch doors; per (door, dtype, name), one
    ``(new memory?, bytes asked for)`` per call.  The memory is new when
    its owner is not the one the name's previous call handed out."""
    seen: dict = {}
    last: dict = {}

    def wrap(door, name_of):
        original = getattr(GeometryCache, door)

        def recorded(self, mesh, cdtype, *args, **kwargs):
            buf = original(self, mesh, cdtype, *args, **kwargs)
            owner = buf if buf.base is None else buf.base
            key = (door, np.dtype(cdtype).str, name_of(*args, **kwargs))
            previous = last.get(key)
            seen.setdefault(key, []).append((previous is None or previous() is not owner, buf.nbytes))
            # a weak reference: a strong one would be a live view
            last[key] = weakref.ref(owner)
            return buf

        monkeypatch.setattr(GeometryCache, door, recorded)

    wrap("buffer", lambda name, shape: name)
    wrap("workspace3", lambda slot="fd": slot)
    return seen


@pytest.mark.parametrize("scheme", ["rusanov", "muscl"])
@pytest.mark.parametrize("policy", ["min", "mixed"])
def test_a_name_is_allocated_only_when_it_must_grow(monkeypatch, scheme, policy):
    # a 100-step 16^2 L2 dam break regrids 25 times; a scratch name gets
    # new memory only when a request is larger than every earlier one
    seen = _record_handouts(monkeypatch)
    sim = ClamrSimulation(DamBreakConfig(nx=16, ny=16, max_level=2), policy=policy, scheme=scheme)
    with kernel_backend("numpy"):
        result = sim.run(100)
    assert len(result.ncells_history) - 1 == 25
    assert len(set(result.ncells_history)) > 5  # the mesh did change size
    assert seen
    for key, calls in seen.items():
        largest = 0
        for new, nbytes in calls:
            if new:
                assert nbytes > largest, f"{key}: new memory for {nbytes} B, had {largest} B"
            largest = max(largest, nbytes)
        # ten allocations per name here, over 26 generations
        assert sum(new for new, _ in calls) <= len(result.ncells_history) // 2, key


def test_two_live_shapes_never_alias():
    geom = GeometryCache()
    f64 = np.dtype(np.float64)
    mesh = AmrMesh.uniform(4, 4)
    a = geom.buffer(mesh, f64, "s", (2, 8))
    b = geom.buffer(mesh, f64, "s", (3, 8))  # grows
    c = geom.buffer(mesh, f64, "s", (1, 8))  # fits, but a and b are alive
    d = geom.buffer(mesh, f64, "s", (2, 4))
    views = (a, b, c, d)
    for k, v in enumerate(views):
        assert v.flags.c_contiguous
        for w in views[k + 1:]:
            assert not np.shares_memory(v, w)
    # a new generation is another hand-out: same rule for a live view
    other = AmrMesh.uniform(4, 4)
    e = geom.buffer(other, f64, "s", (2, 4))
    assert not any(np.shares_memory(e, v) for v in views)
    # with nothing alive, a smaller shape reuses the arena
    owner = weakref.ref(e.base)
    del a, b, c, d, e, views
    assert geom.buffer(mesh, f64, "s", (1, 3)).base is owner()


def test_derived_terms_are_rebuilt_in_a_reused_arena():
    # the wall sizes live in the last row of the reused "fd_bnd" arena,
    # which the other generation overwrites: a hop there and back, on the
    # same face-list objects (as a rollback steps them), must rewrite them
    small = AmrMesh.uniform(6, 6, max_level=1)
    large = AmrMesh.uniform(6, 6, max_level=1, level=1)
    faces = {m.generation: FaceLists.from_mesh(m) for m in (small, large)}
    hop = GeometryCache()

    def segment(geom, mesh):
        x, y = mesh.cell_centers()
        H = 1.0 + 0.1 * np.exp(-40.0 * ((x - 3.0) ** 2 + (y - 2.5) ** 2))
        state = ShallowWaterState(H=H, U=0.1 * x, V=-0.05 * y, policy=FULL_PRECISION)
        for _ in range(2):
            finite_diff_vectorized(mesh, state, compute_timestep(mesh, state, geom=geom),
                                   faces=faces[mesh.generation], geom=geom)
        return state.H.tobytes() + state.U.tobytes() + state.V.tobytes()

    got = [segment(hop, m) for m in (large, small, large, small)]
    want = [segment(GeometryCache(), m) for m in (large, small, large, small)]
    assert got == want


def _meshes():
    rng = np.random.default_rng(11)
    yield AmrMesh.uniform(16, 12, max_level=2, level=1)  # the largest image first
    yield AmrMesh.uniform(1, 1)
    yield gap_level_mesh()
    for nx, ny, lvl in ((5, 4, 1), (6, 6, 2), (3, 7, 3)):
        yield random_balanced_mesh(rng, nx, ny, lvl, rounds=3)


@pytest.mark.parametrize("backend", BACKENDS)
def test_neighbors_from_the_reused_image_match_the_reference(backend):
    with kernel_backend(backend):
        for mesh in _meshes():
            mesh.rebuild_neighbors()  # a stale image from the previous mesh
            for name, want in zip(("nlft", "nrht", "nbot", "ntop"), neighbors_masked_gather(mesh)):
                got = getattr(mesh, name)
                assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), name


@pytest.mark.parametrize("backend", BACKENDS)
def test_invalid_soups_keep_the_hash_messages(backend):
    overlap = dict(nx=2, ny=1, max_level=1, i=[0, 1, 0], j=[0, 0, 0], level=[0, 0, 1])
    gaps = dict(nx=2, ny=1, max_level=0, i=[0], j=[0], level=[0])
    with kernel_backend(backend):
        AmrMesh.uniform(8, 8, max_level=1, level=1)  # paint the image first
        with pytest.raises(ValueError, match=r"^mesh cells overlap$"):
            AmrMesh(**overlap)
        with pytest.raises(ValueError, match=r"^mesh does not cover the domain \(gaps present\)$"):
            AmrMesh(**gaps)


# -- the footprint ------------------------------------------------------------

#: what one regrid stage may allocate beyond what it keeps: the fixed-size
#: buffers NumPy stages casts through.  Measured on the 32^2 L2 dam break
#: (7,060 cells at step 120, numpy backend): at most 52 KiB in the flags,
#: 75 KiB in the face lists and plans and 74 KiB in the mass sum (its
#: first call, before any kernel has made the face buffer), against 422,
#: 313 and 332 KiB when each stage allocated its own temporaries.
STAGE_SLACK = 96 * 1024


@pytest.mark.parametrize("kernel", [finite_diff_vectorized, finite_diff_muscl])
@pytest.mark.parametrize("bottom, rows", [("flat", 11), ("bathy", 12)])
@pytest.mark.parametrize("policy", ["min", "full"])
def test_face_buffer_rows(kernel, bottom, rows, policy):
    # _rusanov_into consumes 11 rows, _wellbalanced_into 12 (the states,
    # the bottoms and their scratch), and MUSCL reconstructs into them
    mesh = AmrMesh.uniform(6, 5, max_level=1, coarse_size=0.2)
    x, y = mesh.cell_centers()
    H = 1.0 + 0.2 * np.exp(-8.0 * ((x - 0.6) ** 2 + (y - 0.5) ** 2))
    policy = PrecisionPolicy.from_level(policy)
    state = ShallowWaterState(H=H, U=0.1 * H, V=-0.05 * H, policy=policy)
    bathy = None if bottom == "flat" else 0.1 * x
    faces = FaceLists.from_mesh(mesh)
    geom = GeometryCache()
    with kernel_backend("numpy"):
        kernel(mesh, state, compute_timestep(mesh, state, geom=geom), faces=faces, geom=geom, bathy=bathy)
    key = (policy.compute_dtype, "fd_faces")
    nfaces = faces.xl.size + faces.yb.size
    assert geom._handed[key][1] == (rows, nfaces)
    assert geom._arenas[key].size == rows * nfaces


def _regrid_stages(monkeypatch, sim) -> list:
    """Wrap the simulation's four regrid stages; per regrid, one dict of
    ``stage: (entry, peak, exit)`` traced bytes, plus ``"new_arenas"``:
    the cache's arenas when its mass sum ends that were not there, as the
    same objects, when its flags began."""
    regrids: list = []

    def arenas():
        # weakly: a strong reference would be a live view
        return {key: weakref.ref(arena) for key, arena in sim._geom._arenas.items()}

    def wrap(owner, attr, stage):
        original = getattr(owner, attr)

        def traced(*args, **kwargs):
            if stage == "flags":
                regrids.append({"arenas_before": arenas()})
            entry = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            out = original(*args, **kwargs)
            exit_, peak = tracemalloc.get_traced_memory()
            if regrids and "done" not in regrids[-1]:
                regrids[-1][stage] = (entry, peak, exit_)
                if stage == "mass":
                    before = regrids[-1].pop("arenas_before")
                    regrids[-1]["new_arenas"] = [
                        key for key, arena in sim._geom._arenas.items()
                        if key not in before or before[key]() is not arena
                    ]
                    regrids[-1]["done"] = True
                    regrids[-1]["mesh"] = sim.mesh
            return out

        monkeypatch.setattr(owner, attr, traced)

    wrap(simulation, "refinement_flags", "flags")
    wrap(simulation, "regrid", "regrid")
    wrap(ClamrSimulation, "_faces_for", "faces")
    wrap(ClamrSimulation, "_measured_mass", "mass")
    return regrids


def _topology_bytes(sim) -> int:
    """The new generation's own bytes: mesh, state, face lists, both
    plans and the float64 cast geometry (size and area)."""
    mesh = sim.mesh
    faces = sim._faces_for(mesh)
    lists = sum(getattr(faces, f).nbytes for f in ("xl", "xr", "xsize", "yb", "yt", "ysize"))
    lists += faces.boundary_concat()[0].nbytes
    plans = sum(p.indptr.nbytes + p.cols.nbytes + p.signed(p._kept.dtype).nbytes
                for p in faces.scatter_plans(mesh.ncells))
    return mesh.memory_nbytes() + sim.state.nbytes() + lists + plans + 16 * mesh.ncells


@pytest.mark.parametrize("backend", [
    "numpy",
    pytest.param("cext", marks=pytest.mark.skipif(not HAVE_CEXT, reason="no C compiler")),
])
@pytest.mark.parametrize("policy", ["half", "min", "mixed", "full"])
def test_a_regrid_borrows_the_idle_face_buffer(monkeypatch, policy, backend):
    # a 32^2 L2 dam break regrids every 4 steps; each regrid's flags,
    # regrid, face lists, plans and mass sum create no arena (the face
    # buffer's bytes serve their temporaries) and keep no view of it
    sim = ClamrSimulation(DamBreakConfig(nx=32, ny=32, max_level=2), policy=policy)
    with kernel_backend(backend):
        sim.run(4)  # the kernels make their arenas
        regrids = _regrid_stages(monkeypatch, sim)
        tracemalloc.start()
        try:
            sim.run(40)
            last_topology = _topology_bytes(sim)
        finally:
            tracemalloc.stop()
    assert len(regrids) == 10
    for k, rec in enumerate(regrids):
        assert rec["new_arenas"] == [], k
        if backend != "numpy":
            continue
        # what each borrowing stage allocates beyond what it keeps
        for stage in ("flags", "faces", "mass"):
            entry, peak, exit_ = rec[stage]
            assert peak - max(entry, exit_) <= STAGE_SLACK, (k, stage, peak - max(entry, exit_))
    # no view of a borrowed arena outlives the regrid: the next kernel
    # call reuses the face buffer (test_a_name_is_allocated_only_when_it_must_grow
    # pins that over a whole run)
    if backend == "numpy":
        rec = regrids[-1]
        base = rec["flags"][0]
        peak = max(rec[stage][1] for stage in ("flags", "regrid", "faces", "mass"))
        assert rec["mesh"] is sim.mesh
        assert peak - base <= last_topology + STAGE_SLACK


@pytest.mark.parametrize("policy", ["min", "mixed", "full"])
def test_each_plan_holds_one_signed_array(policy):
    sim = ClamrSimulation(DamBreakConfig(nx=16, ny=16, max_level=2), policy=policy)
    with kernel_backend("numpy"):
        sim.run(6)
    cdtype = sim.policy.compute_dtype
    for plan in sim._faces_for(sim.mesh).scatter_plans(sim.mesh.ncells):
        signed = [v for v in vars(plan).values()
                  if isinstance(v, np.ndarray) and v.dtype.kind == "f" and v.size == 2 * plan.nfaces]
        assert [a.dtype for a in signed] == [cdtype]


def test_another_dtype_is_rebuilt_from_the_sizes_and_signs():
    mesh = AmrMesh.uniform(5, 4, max_level=2, level=1)
    faces = FaceLists.from_mesh(mesh)
    args = (faces.xl, faces.xr, faces.xsize, mesh.ncells)
    f32, f64 = np.dtype(np.float32), np.dtype(np.float64)
    want = {dt: ScatterPlan(*args, dt).signed(dt).copy() for dt in (f32, f64)}
    assert want[f32].tobytes() == want[f64].astype(f32).tobytes()
    plan = ScatterPlan(*args, f32)
    for dt in (f64, f32, f64):
        got = plan.signed(dt)
        assert got.dtype == dt and got.tobytes() == want[dt].tobytes()
        assert plan._kept is got  # the one array the plan holds
