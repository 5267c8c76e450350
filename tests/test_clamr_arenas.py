"""CLAMR scratch that outlives a regrid.

``GeometryCache`` hands out every scratch buffer as a view of one flat
arena per (dtype, name) that survives regrids and only grows, and the
neighbor rebuild paints one padded int32 image reused across meshes.
These tests pin what that must keep: a run allocates a name's arena
again only when its mesh outgrows it, two live views of one name never
alias, and the neighbor build from the reused image is byte-equal to the
masked-gather reference with the same error messages.
"""

import weakref

import numpy as np
import pytest

from repro.clamr import ClamrSimulation, DamBreakConfig, backends
from repro.clamr.backends import kernel_backend
from repro.clamr.kernels import FaceLists, GeometryCache, compute_timestep, finite_diff_vectorized
from repro.clamr.mesh import AmrMesh
from repro.clamr.state import ShallowWaterState
from repro.precision.policy import FULL_PRECISION
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
