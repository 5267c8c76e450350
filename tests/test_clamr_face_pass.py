"""The fused CLAMR face pass against its allocating forms, byte for byte.

Both NumPy CLAMR kernels gather (``finite_diff_vectorized``) or
reconstruct (``muscl_rhs``) the face states of every interior face into
one cached ``[x faces | y faces]`` buffer, evaluate them with one flux
routine that consumes the buffer's rows — ``_rusanov_into`` (11 rows) on a
flat bottom, ``_wellbalanced_into`` (12 rows) over bathymetry — and
scatter the x plan before the y plan.  These tests pin both consuming
fluxes to their expression forms, pin whole
steps to the per-group allocating bodies kept in
``tests/reference_impls.py``, bound what one warm step may allocate, and
check that the topology terms cached per mesh generation are never read
for another generation.
"""

import dataclasses
import tracemalloc

import numpy as np
import pytest

from repro.clamr.backends import kernel_backend
from repro.clamr.kernels import (
    FaceLists,
    GeometryCache,
    _rusanov_into,
    _wellbalanced_into,
    compute_timestep,
    finite_diff_vectorized,
    scatter_mode,
)
from repro.clamr.mesh import AmrMesh
from repro.clamr.muscl import finite_diff_muscl
from repro.clamr.state import GRAVITY, ShallowWaterState
from repro.precision.policy import PrecisionPolicy, level_from_name
from repro.service import JobSpec
from tests.reference_impls import (
    _rusanov_x,
    _wellbalanced_x,
    finite_diff_allocating,
    finite_diff_muscl_allocating,
)

DTYPES = [np.float32, np.float64]
LEVELS = ["half", "min", "mixed", "full"]


def face_states(dtype, n=3000, seed=0):
    """(hL, nL, tL, hR, nR, tR, bL, bR) covering the flux's edge cases.

    The first third are lakes at rest (equal free surfaces, exactly
    representable, zero momenta); the second third have one side's bottom
    above the other side's free surface (``h*`` clamps to 0); momenta and
    bottoms carry runs of +0.0 and -0.0.
    """
    rng = np.random.default_rng(seed)
    h = rng.uniform(0.05, 2.0, (2, n))
    q = rng.standard_normal((4, n)) * 0.5
    b = rng.uniform(-0.5, 0.5, (2, n))
    q[:, ::7] = 0.0
    q[:, 3::7] = -0.0
    b[:, 1::9] = 0.0
    b[:, 5::9] = -0.0
    lake = slice(0, n // 3)
    m = n // 3
    b[:, lake] = rng.integers(-32, 33, (2, m)) / 64.0
    h[:, lake] = 1.0 - b[:, lake]
    q[:, lake] = 0.0
    q[1, lake][::2] = -0.0
    dry = slice(n // 3, 2 * n // 3)
    b[1, dry] = h[0, dry] + b[0, dry] + rng.uniform(0.0, 0.5, n // 3)
    hL, hR = h
    nL, tL, nR, tR = q
    bL, bR = b
    return tuple(np.ascontiguousarray(a, dtype=dtype) for a in (hL, nL, tL, hR, nR, tR, bL, bR))


@pytest.mark.parametrize("dtype", DTYPES)
class TestFluxOracles:
    def test_wellbalanced_into_matches_expression_form(self, dtype):
        states = face_states(dtype)
        g = np.dtype(dtype).type(GRAVITY)
        want = _wellbalanced_x(*states, g)
        rows = np.full((12, states[0].size), np.nan, dtype=dtype)
        rows[:8] = states
        got = _wellbalanced_into(rows, g)
        for row, ref in zip(got, want):
            assert row.tobytes() == ref.tobytes()
        # every output is one of the rows: the states were consumed in place
        assert all(np.shares_memory(row, rows) for row in got)

    def test_edge_cases_are_exercised(self, dtype):
        hL, nL, tL, hR, nR, tR, bL, bR = face_states(dtype)
        g = np.dtype(dtype).type(GRAVITY)
        fh, phiL, phiR, ft = _wellbalanced_x(hL, nL, tL, hR, nR, tR, bL, bR, g)
        lake = slice(0, hL.size // 3)
        assert np.array_equal(hL[lake] + bL[lake], hR[lake] + bR[lake])
        assert not fh[lake].any() and not ft[lake].any()  # exact zeros at rest
        dry = slice(hL.size // 3, 2 * hL.size // 3)
        assert np.all(np.maximum((hL[dry] + bL[dry]) - np.maximum(bL[dry], bR[dry]), 0) == 0)
        assert np.signbit(nL[nL == 0]).any() and not np.signbit(nL[nL == 0]).all()

    def test_rusanov_into_matches_expression_form(self, dtype):
        hL, nL, tL, hR, nR, tR, _, _ = face_states(dtype, seed=1)
        g = np.dtype(dtype).type(GRAVITY)
        want = _rusanov_x(hL, nL, tL, hR, nR, tR, g)
        rows = np.full((11, hL.size), np.nan, dtype=dtype)
        rows[:6] = hL, nL, tL, hR, nR, tR
        got = _rusanov_into(rows, g)
        for row, ref in zip(got, want):
            assert row.tobytes() == ref.tobytes()
        assert all(np.shares_memory(row, rows) for row in got)

    def test_rusanov_into_mirror_states(self, dtype):
        # the reflective-wall call: both sides share h and t, the normal
        # momenta are exact negations (rows copied, never aliased)
        h, n, t, _, _, _, _, _ = face_states(dtype, seed=2)
        g = np.dtype(dtype).type(GRAVITY)
        want = _rusanov_x(h, n, t, h, -n, t, g)
        rows = np.empty((11, h.size), dtype=dtype)
        rows[:6] = h, n, t, h, -n, t
        for row, ref in zip(_rusanov_into(rows, g), want):
            assert row.tobytes() == ref.tobytes()


def evolved(scenario, level, max_level=2, nx=12, steps=6):
    """(mesh, state, faces, bathy) of a scenario after a few steps at ``max_level``."""
    spec = JobSpec("clamr", nx=nx, policy=level, scenario=scenario)
    sim = spec.simulation(config=dataclasses.replace(spec.config(), max_level=max_level))
    sim.run(steps, record_mass=False)
    return sim.mesh, sim.state, sim._faces_for(sim.mesh), sim._bathy_for(sim.mesh)


def beach(level):
    """A 16^2 beach whose free-surface reconstruction drives some face
    depths non-positive, so MUSCL's positivity fallback runs."""
    mesh = AmrMesh.uniform(16, 16, coarse_size=1 / 16)
    x, _ = mesh.cell_centers()
    bathy = 0.5 * x
    H = np.maximum(0.3 - bathy, 1e-3)
    policy = PrecisionPolicy.from_level(level_from_name(level))
    state = ShallowWaterState(H=H, U=0.05 * H, V=np.zeros_like(H), policy=policy)
    return mesh, state, FaceLists.from_mesh(mesh), bathy


def assert_bytes_equal(a, b):
    for name in ("H", "U", "V"):
        assert getattr(a, name).tobytes() == getattr(b, name).tobytes(), name


KERNELS = {
    "fd": (finite_diff_vectorized, finite_diff_allocating),
    "muscl": (finite_diff_muscl, finite_diff_muscl_allocating),
}


@pytest.mark.parametrize("mode", ["plan", "add_at"])
@pytest.mark.parametrize("level", LEVELS)
@pytest.mark.parametrize("bottom", ["flat", "bathy"])
@pytest.mark.parametrize("kernel", sorted(KERNELS))
@pytest.mark.parametrize("scenario", ["clamr/partial-breach", "clamr/obstacle-field", "beach"])
def test_steps_match_allocating_bodies(scenario, kernel, bottom, level, mode):
    if scenario == "beach":
        mesh, state, faces, bathy = beach(level)
    else:
        mesh, state, faces, bathy = evolved(scenario, level)
        assert np.unique(mesh.level).size == 3  # a real L2 AMR mesh
    if bottom == "flat":
        bathy = None
    fused, allocating = KERNELS[kernel]
    got, want = state.copy(), state.copy()
    with kernel_backend("numpy"), scatter_mode(mode):
        for _ in range(3):
            dt = compute_timestep(mesh, got, 0.25)
            fused(mesh, got, dt, faces=faces, bathy=bathy)
            allocating(mesh, want, dt, faces, bathy=bathy)
            assert_bytes_equal(got, want)
    assert np.isfinite(got.H).all() and not np.array_equal(got.H, state.H)


@pytest.mark.parametrize(
    "scenario, nx, max_level, level",
    [
        ("clamr/lake-at-rest", 128, 0, "mixed"),
        ("clamr/partial-breach", 12, 2, "min"),
        ("clamr/partial-breach", 12, 2, "full"),
    ],
)
def test_warm_bathymetry_step_allocates_little(scenario, nx, max_level, level):
    mesh, state, faces, bathy = evolved(scenario, level, max_level=max_level, nx=nx, steps=2)
    assert_warm_step_allocates_little(finite_diff_vectorized, mesh, state, faces, bathy)


def assert_warm_step_allocates_little(kernel, mesh, state, faces, bathy):
    """One warm ``kernel`` step's tracemalloc peak is at most 8 x ncells x itemsize."""
    with kernel_backend("numpy"):
        dt = compute_timestep(mesh, state, 0.25)
        for _ in range(2):  # warm-up: the cached buffers and terms are built
            kernel(mesh, state, dt, faces=faces, bathy=bathy)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            kernel(mesh, state, dt, faces=faces, bathy=bathy)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    budget = 8 * mesh.ncells * state.policy.compute_dtype.itemsize
    assert peak - base <= budget, f"{(peak - base) / budget * 8:.1f}x ncells*itemsize"


@pytest.mark.parametrize(
    "scenario, nx, max_level, bottom, level",
    [
        ("clamr/dam-break", 32, 1, "flat", "half"),
        ("clamr/partial-breach", 12, 2, "flat", "min"),
        ("clamr/partial-breach", 12, 2, "bathy", "full"),
        ("clamr/obstacle-field", 12, 2, "bathy", "mixed"),
    ],
)
def test_warm_muscl_step_allocates_little(scenario, nx, max_level, bottom, level):
    # the stacked slopes, the face gathers and both Heun stages write into
    # cached buffers; what is left is the promoted state, the dt/area
    # scale and O(walls) (the positivity fallback, which allocates its
    # gathers, does not fire here)
    mesh, state, faces, bathy = evolved(scenario, level, max_level=max_level, nx=nx, steps=2)
    if bottom == "flat":
        bathy = None
    assert_warm_step_allocates_little(finite_diff_muscl, mesh, state, faces, bathy)


@pytest.mark.parametrize("kernel", sorted(KERNELS))
@pytest.mark.parametrize(
    "scenario, nx, max_level, level",
    [
        ("clamr/lake-at-rest", 128, 0, "mixed"),
        ("clamr/partial-breach", 12, 2, "min"),
        ("clamr/partial-breach", 12, 2, "full"),
    ],
)
def test_warm_step_stays_under_64_kib(scenario, nx, max_level, level, kernel):
    # the CFL reduction, the mixed-policy promotion, the dt/area scale and
    # the sided scatter's stacked vector all write into cached buffers, so
    # a whole warm step allocates a fixed few KiB whatever the mesh size
    mesh, state, faces, bathy = evolved(scenario, level, max_level=max_level, nx=nx, steps=2)
    fused = KERNELS[kernel][0]

    def step():
        dt = compute_timestep(mesh, state, 0.25)
        fused(mesh, state, dt, faces=faces, bathy=bathy)

    with kernel_backend("numpy"):
        for _ in range(2):  # warm-up: the cached buffers and terms are built
            step()
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            step()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peak - base < 64 * 1024, f"{(peak - base) / 1024:.1f} KiB"


@pytest.mark.parametrize("bottom", ["flat", "bathy"])
@pytest.mark.parametrize("level", ["min", "full"])
def test_generation_hop_reads_no_stale_terms(bottom, level):
    # mesh A, then its regrid B, then A again, as a resilience rollback
    # steps them, all on one cache: every segment must have the bits of
    # the same steps on a fresh cache, so no term cached for one
    # generation is ever read for another
    spec = JobSpec("clamr", nx=12, policy=level, scenario="clamr/obstacle-field")
    sim = spec.simulation(config=dataclasses.replace(spec.config(), max_level=2))
    sim.run(2, record_mass=False)
    a = (sim.mesh, sim.state.copy(), sim._faces_for(sim.mesh), sim._bathy_for(sim.mesh))
    for _ in range(5):  # a regrid every 4 steps, until the cell count moves
        sim.run(4, record_mass=False)
        if sim.mesh.ncells != a[0].ncells:
            break
    b = (sim.mesh, sim.state.copy(), sim._faces_for(sim.mesh), sim._bathy_for(sim.mesh))
    assert b[0].generation != a[0].generation and b[0].ncells != a[0].ncells

    def segment(geom, mesh, state, faces, bathy):
        state = state.copy()
        for _ in range(2):
            dt = compute_timestep(mesh, state, 0.25, geom=geom)
            finite_diff_muscl(mesh, state, dt, faces=faces, geom=geom,
                              bathy=None if bottom == "flat" else bathy)
        return state

    with kernel_backend("numpy"):
        hop = GeometryCache()
        got = [segment(hop, *a), segment(hop, *b), segment(hop, *a)]
        # a face-list object of the same topology is a new owner: rebuilt
        a_faces = FaceLists.from_mesh(a[0])
        got.append(segment(hop, a[0], a[1], a_faces, a[3]))
        want = [segment(GeometryCache(), *a), segment(GeometryCache(), *b)]
    for g, w in zip(got, (want[0], want[1], want[0], want[0])):
        assert_bytes_equal(g, w)
    # the derived terms are held for the stepped generation only: the
    # last segment's terms are hits, and b's went when a was stepped again
    cdtype = a[1].compute_dtype
    size = hop.geometry(a[0], cdtype)[0]
    keys = ((("slopes", size.dtype, 3), size), (("muscl_faces", cdtype), a_faces),
            (("walls", cdtype), a_faces))
    built = []
    for key, owner in keys:
        hop.derived(a[0], key, owner, lambda: built.append(key))
    assert built == []
    for key, owner in keys:
        hop.derived(b[0], key, owner if owner is not a_faces else b[2], lambda: built.append(key))
    assert built == [key for key, _ in keys]
