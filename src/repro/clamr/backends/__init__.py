"""Kernel backends behind the differential oracle.

This package generalizes the ``scatter_mode`` pattern one level up: the
NumPy kernels in :mod:`repro.clamr.kernels` / :mod:`repro.clamr.muscl`
and the regrid topology builders in :mod:`repro.clamr.mesh` /
:mod:`repro.clamr.amr` stay exactly as they are — the *oracle* — and a
process-wide :func:`kernel_backend` switch can route the hot loops
through a loop implementation that is **bit-identical by contract**:

``numpy``
    The default.  No dispatch happens at all; the oracle path runs.
``python``
    The loop kernels in :mod:`.loops` interpreted by CPython over NumPy
    scalars.  Orders of magnitude slower.  It is the unvectorized row of
    the paper's Table III (``ClamrSimulation(vectorized=False)`` runs the
    Rusanov step here), and it lets the logic the C backend executes be
    bit-verified everywhere, including float16, which ``cext`` does not
    instantiate, and on machines without a C compiler.
``cext``
    The same kernels as C (``_kernels.c``), compiled by the system C
    compiler at first use and loaded via ctypes (see :mod:`.cext`).

Selection: explicit (:func:`set_kernel_backend` / the
:func:`kernel_backend` context manager / ``--backend`` on the CLI) wins;
otherwise the ``REPRO_KERNEL_BACKEND`` environment variable; otherwise
``numpy``.  The env var is how sweep workers inherit the parent's choice
under the spawn start method.

Fallback semantics (the *graceful* part): requesting ``cext`` when it
can't be built silently runs the oracle — by the bit-identity contract
the numbers cannot differ, so a missing compiler degrades performance,
never results.  The same applies per-dtype: ``cext`` instantiates
float32/float64 only, so the ``half`` policy's float16 arithmetic
always runs on the NumPy path (mirroring the CSR ScatterPlan dtype
restriction).  The topology builders (neighbors, face lists,
refinement flags, balance) carry no compute dtype — they work on
the int32 mesh arrays and float64 depths — so they dispatch for every
policy, ``half`` included (:func:`topology_ops`).  Because backend
choice can't change bits, it is deliberately **excluded** from hashed
run identity — ``RunRecord.backend`` is recorded for provenance but is
not part of the workload key or fingerprint.

Two dispatch guards keep the oracle reachable: ``scatter_mode("add_at")``
(the explicit oracle request) disables backend dispatch entirely through
:func:`oracle_only`, and an unknown backend name raises
:class:`UnknownBackendError` (the CLI maps it to exit 2).
"""

from __future__ import annotations

import contextlib
import os
from types import SimpleNamespace

import numpy as np

from repro.lazy import lazy_exports

# the kernel modules load on the first dispatch, warm-up or availability
# report that needs them: a NumPy-backend run loads neither (nor ctypes)
__getattr__ = lazy_exports(__name__, {
    "cext": "repro.clamr.backends.cext",
    "loops": "repro.clamr.backends.loops",
})[0]

__all__ = [
    "BACKENDS",
    "ENV_VAR",
    "UnknownBackendError",
    "active_backend",
    "available_backends",
    "dispatch_ops",
    "kernel_backend",
    "normalize_backend",
    "oracle_only",
    "resolved_backend",
    "set_kernel_backend",
    "topology_ops",
    "warmup",
]

BACKENDS = ("numpy", "python", "cext")
ENV_VAR = "REPRO_KERNEL_BACKEND"

#: explicit process-level selection; None defers to the env var / default
_ACTIVE: str | None = None
#: set while scatter_mode("add_at") is active: every dispatch runs the oracle
_ORACLE_ONLY = False
_OPS_CACHE: dict = {}
_WARMED: set = set()
_COMPILED_DTYPES = (np.dtype(np.float32), np.dtype(np.float64))


class UnknownBackendError(ValueError):
    """Raised for a backend name outside :data:`BACKENDS`."""


def normalize_backend(name: str) -> str:
    """Validate and canonicalize a backend name."""
    canon = str(name).strip().lower()
    if canon not in BACKENDS:
        raise UnknownBackendError(
            f"unknown kernel backend {name!r}; choose from {', '.join(BACKENDS)}"
        )
    return canon


def set_kernel_backend(name: str | None) -> None:
    """Select the process-wide backend (None → env var / default)."""
    global _ACTIVE
    _ACTIVE = None if name is None else normalize_backend(name)


def active_backend() -> str:
    """The requested backend: explicit > ``$REPRO_KERNEL_BACKEND`` > numpy."""
    if _ACTIVE is not None:
        return _ACTIVE
    env = os.environ.get(ENV_VAR)
    if env:
        return normalize_backend(env)
    return "numpy"


@contextlib.contextmanager
def kernel_backend(name: str):
    """Temporarily select the kernel backend (mirrors ``scatter_mode``)."""
    global _ACTIVE
    previous = _ACTIVE
    _ACTIVE = normalize_backend(name)
    try:
        yield
    finally:
        _ACTIVE = previous


@contextlib.contextmanager
def oracle_only(enabled: bool):
    """Temporarily turn all backend dispatch off (``scatter_mode("add_at")``)."""
    global _ORACLE_ONLY
    previous = _ORACLE_ONLY
    _ORACLE_ONLY = bool(enabled)
    try:
        yield
    finally:
        _ORACLE_ONLY = previous


def _build_ops(name: str, dt: np.dtype) -> SimpleNamespace | None:
    from . import cext, loops

    if name == "python":
        module = loops
    elif dt not in _COMPILED_DTYPES or not cext.availability()[0]:
        return None  # float16 (half policy) or no compiler: the NumPy oracle
    else:
        module = cext
    return SimpleNamespace(name=name, **{k: getattr(module, k) for k in loops.__all__})


def dispatch_ops(cdtype) -> SimpleNamespace | None:
    """The kernel namespace for the active backend, or None → run the oracle."""
    name = active_backend()
    if name == "numpy" or _ORACLE_ONLY:
        return None
    dt = np.dtype(cdtype)
    key = (name, dt)
    if key not in _OPS_CACHE:
        _OPS_CACHE[key] = _build_ops(name, dt)
    return _OPS_CACHE[key]


def topology_ops() -> SimpleNamespace | None:
    """The namespace for the regrid topology builders, or None → NumPy.

    The builders have no compute dtype (int32 mesh arrays, float64
    depths), so this ignores the policy: under ``cext`` they run compiled
    for ``half`` too.
    """
    return dispatch_ops(np.float64)


def resolved_backend(cdtype=np.float64) -> str:
    """The concrete backend a run at ``cdtype`` would actually execute."""
    if active_backend() == "numpy":
        return "numpy"
    ops = dispatch_ops(cdtype)
    return ops.name if ops is not None else "numpy"


def available_backends() -> list[dict]:
    """Availability report for every registered backend (CLI surface)."""
    rows = [
        {"name": "numpy", "available": True,
         "detail": f"numpy {np.__version__} (oracle; default)"},
        {"name": "python", "available": True,
         "detail": "pure-Python loop kernels (bit-reference; slow)"},
    ]
    from . import cext

    ok, detail = cext.availability()
    rows.append({"name": "cext", "available": ok, "detail": detail})
    return rows


def _reset_for_tests() -> None:
    """Clear selection, dispatch caches, and probe state (test isolation)."""
    global _ACTIVE
    _ACTIVE = None
    _OPS_CACHE.clear()
    _WARMED.clear()
    from . import cext

    cext._reset_for_tests()


# -- marshalling: mesh/state objects -> the flat loops.py convention ------

def _links(mesh) -> tuple | None:
    """(nlft, nrht, nbot, ntop, level) when all are contiguous int32 per cell.

    Anything else (a hand-assigned neighbor array, say) runs the NumPy
    form, which raises or computes on its own terms.
    """
    arrays = (mesh.nlft, mesh.nrht, mesh.nbot, mesh.ntop, mesh.level)
    n = mesh.ncells
    for a in arrays:
        if a.dtype != np.int32 or a.shape != (n,) or not a.flags.c_contiguous:
            return None
    return arrays


def try_mesh_neighbors(mesh, img: np.ndarray) -> tuple | None:
    """(nlft, nrht, nbot, ntop) int32 from the active backend; None → NumPy.

    ``img`` is the flat ``(nyf+2)*(nxf+2)`` int32 image to paint, reused
    across rebuilds (the builder fills it first).  An overlapping or
    gapped cell soup (or a block outside the domain) also returns None,
    so the NumPy form raises its own error.
    """
    ops = topology_ops()
    if ops is None:
        return None
    arrays = (mesh.i, mesh.j, mesh.level)
    if any(a.dtype != np.int32 or not a.flags.c_contiguous for a in arrays):
        return None
    n = mesh.ncells
    nbrs = tuple(np.empty(n, dtype=np.int32) for _ in range(4))
    if ops.mesh_neighbors(*arrays, mesh.nx, mesh.ny, mesh.max_level, img, *nbrs):
        return None
    return nbrs


def try_face_lists(mesh) -> tuple[dict, np.ndarray, tuple] | None:
    """FaceLists fields from the active backend; None → NumPy.

    Returns ``(fields, bcells, slices)``: the ten dataclass fields (the
    wall lists are views into ``bcells``, all four sides concatenated) and
    the ``boundary_concat`` pair, so the walls are never concatenated
    again.
    """
    ops = topology_ops()
    links = None if ops is None else _links(mesh)
    if links is None:
        return None
    counts = np.zeros(8, dtype=np.int64)
    if ops.face_count(*links, counts):
        return None
    nxf = int(counts[0] + counts[1])
    nyf = int(counts[2] + counts[3])
    edges = np.concatenate(([0], np.cumsum(counts[4:]))).tolist()
    xl, xr, yb, yt = (np.empty(m, dtype=np.int64) for m in (nxf, nxf, nyf, nyf))
    xsize, ysize = np.empty(nxf), np.empty(nyf)
    bcells = np.empty(edges[-1], dtype=np.int64)
    ops.face_fill(*links, mesh.coarse_size, counts, xl, xr, xsize, yb, yt, ysize, bcells)
    slices = tuple(slice(edges[k], edges[k + 1]) for k in range(4))
    sides = (bcells[sl] for sl in slices)
    fields = dict(xl=xl, xr=xr, xsize=xsize, yb=yb, yt=yt, ysize=ysize,
                  **dict(zip(("bnd_left", "bnd_right", "bnd_bottom", "bnd_top"), sides)))
    return fields, bcells, slices


def try_refinement_flags(mesh, H, refine: float, coarsen: float) -> np.ndarray | None:
    """int8 flags from the quantized float64 depths ``H``; None → NumPy."""
    ops = topology_ops()
    links = None if ops is None else _links(mesh)
    if links is None or H.dtype != np.float64 or not H.flags.c_contiguous:
        return None
    flags = np.empty(mesh.ncells, dtype=np.int8)
    scratch = np.empty(mesh.ncells, dtype=np.float64)
    if ops.refinement_flags(H, *links, mesh.max_level, 1e-12, refine, coarsen, scratch, flags):
        return None
    return flags


def try_enforce_balance(mesh, flags: np.ndarray) -> bool:
    """Balance the (copied, int8) ``flags`` in place; False → run NumPy."""
    ops = topology_ops()
    links = None if ops is None else _links(mesh)
    if links is None:
        return False
    nlft, nrht, nbot, ntop, level = links
    forced = np.empty(mesh.ncells, dtype=np.uint8)
    return not ops.enforce_balance(
        flags, level, nlft, nrht, nbot, ntop, mesh.max_level, forced
    )


def _boundary_table(faces) -> tuple[np.ndarray, np.ndarray]:
    """(bcells int64, side offsets [l0, r0, b0, t0, nb] int64), memoized."""
    cached = getattr(faces, "_bk_boundary", None)
    if cached is None:
        bcells, (sl_l, sl_r, sl_b, sl_t) = faces.boundary_concat()
        bcells = np.ascontiguousarray(bcells, dtype=np.int64)
        boff = np.array(
            [sl_l.start, sl_r.start, sl_b.start, sl_t.start, bcells.size],
            dtype=np.int64,
        )
        cached = (bcells, boff)
        object.__setattr__(faces, "_bk_boundary", cached)
    return cached


def try_clamr_rhs(mesh, H, U, V, faces, cdtype, geom, slot, bathy, muscl):
    """CLAMR area-weighted rates on the active backend; None → oracle.

    ``bathy`` is the bottom already cast to ``cdtype`` (None: flat);
    ``muscl`` selects the second-order reconstruction.
    """
    ops = dispatch_ops(cdtype)
    if ops is None:
        return None
    from repro.clamr.state import GRAVITY  # loaded by the calling kernel

    ct = cdtype.type
    size, _ = geom.geometry(mesh, cdtype)
    dH, dU, dV = geom.workspace3(mesh, cdtype, slot=slot)
    xplan, yplan = faces.scatter_plans(mesh.ncells)
    bcells, boff = _boundary_table(faces)
    maxf = max(int(faces.xl.size), int(faces.yb.size), 1)
    fb = geom.buffer(mesh, cdtype, "bk_flux", (4, maxf))
    nbrs = (None,) * 4
    sl = eta = None
    if muscl:
        nbrs = tuple(np.ascontiguousarray(a, dtype=np.int32)
                     for a in (mesh.nlft, mesh.nrht, mesh.nbot, mesh.ntop))
        sl = geom.buffer(mesh, cdtype, "bk_slopes", (6, mesh.ncells))
        if bathy is not None:
            eta = H + bathy
    ops.clamr_rhs(
        H, U, V, bathy, eta, *nbrs, size,
        faces.xl, faces.xr, xplan.indptr, xplan.cols, xplan._signed(cdtype),
        faces.yb, faces.yt, yplan.indptr, yplan.cols, yplan._signed(cdtype),
        bcells, boff, sl, fb[0], fb[1], fb[2], fb[3], dH, dU, dV,
        ct(GRAVITY), ct(0.5),
    )
    return dH, dU, dV


# -- warm-up: force compilation outside the timed region ------------------

def warmup(cdtype, which: str = "clamr") -> str | None:
    """Resolve the backend and force-compile its kernels on tiny inputs.

    Returns the concrete backend name, or None when the oracle will run.
    Called by the simulation drivers inside a dedicated telemetry span so
    C-build time never pollutes timed regions or flight-recorder series.
    ``which="self"`` only builds the library: no SELF kernel dispatches.
    Idempotent per (backend, dtype, which).
    """
    ops = dispatch_ops(cdtype)
    if ops is None:
        return None
    dt = np.dtype(cdtype)
    key = (ops.name, dt, which)
    if key in _WARMED:
        return ops.name
    from repro.clamr.state import GRAVITY

    ct = dt.type
    g, half = ct(GRAVITY), ct(0.5)
    if which != "self":
        H = np.array([1.0, 2.0], dtype=dt)
        U = np.array([0.1, -0.2], dtype=dt)
        V = np.array([0.05, 0.0], dtype=dt)
        b = np.array([0.1, 0.2], dtype=dt)
        ones = np.ones(2, dtype=dt)
        nbrs = [np.array(a, dtype=np.int32) for a in ([0, 0], [1, 1], [0, 1], [0, 1])]
        xl = np.array([0], dtype=np.int64)
        xr = np.array([1], dtype=np.int64)
        ey = np.empty(0, dtype=np.int64)
        xip = np.array([0, 1, 2], dtype=np.int32)
        xcols = np.array([0, 0], dtype=np.int32)
        xsgn = np.array([-1.0, 1.0], dtype=dt)
        yip = np.zeros(3, dtype=np.int32)
        ycols = np.empty(0, dtype=np.int32)
        ysgn = np.empty(0, dtype=dt)
        bcells = np.array([0, 1, 0, 1], dtype=np.int64)
        boff = np.array([0, 1, 2, 3, 4], dtype=np.int64)
        f4 = np.empty((4, 1), dtype=dt)
        sl6 = np.empty((6, 2), dtype=dt)
        d3 = np.zeros((3, 2), dtype=dt)
        # the most general call: MUSCL over bathymetry
        ops.clamr_rhs(
            H, U, V, b, H + b, *nbrs, ones, xl, xr, xip, xcols, xsgn,
            ey, ey, yip, ycols, ysgn, bcells, boff, sl6,
            f4[0], f4[1], f4[2], f4[3], d3[0], d3[1], d3[2], g, half,
        )
    _WARMED.add(key)
    return ops.name
