"""Kernel backends behind the differential oracle.

This package generalizes the ``scatter_mode`` pattern one level up: the
NumPy kernels in :mod:`repro.clamr.kernels` / :mod:`repro.clamr.muscl` /
:mod:`repro.self_.equations` stay exactly as they are — the *oracle* —
and a process-wide :func:`kernel_backend` switch can route the hot loops
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
restriction).  Because backend
choice can't change bits, it is deliberately **excluded** from hashed
run identity — ``RunRecord.backend`` is recorded for provenance but is
not part of the workload key or fingerprint.

Two dispatch guards keep the oracle reachable: ``scatter_mode("add_at")``
(the explicit oracle request) disables backend dispatch entirely, and an
unknown backend name raises :class:`UnknownBackendError` (the CLI maps
it to exit 2).
"""

from __future__ import annotations

import contextlib
import os
from collections import OrderedDict
from types import SimpleNamespace

import numpy as np

from ..state import GRAVITY
from . import cext, loops

__all__ = [
    "BACKENDS",
    "ENV_VAR",
    "UnknownBackendError",
    "active_backend",
    "available_backends",
    "dispatch_ops",
    "kernel_backend",
    "normalize_backend",
    "resolved_backend",
    "set_kernel_backend",
    "warmup",
]

BACKENDS = ("numpy", "python", "cext")
ENV_VAR = "REPRO_KERNEL_BACKEND"

#: explicit process-level selection; None defers to the env var / default
_ACTIVE: str | None = None
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


def _build_ops(name: str, dt: np.dtype) -> SimpleNamespace | None:
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
    if name == "numpy":
        return None
    dt = np.dtype(cdtype)
    key = (name, dt)
    if key not in _OPS_CACHE:
        _OPS_CACHE[key] = _build_ops(name, dt)
    return _OPS_CACHE[key]


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
    ok, detail = cext.availability()
    rows.append({"name": "cext", "available": ok, "detail": detail})
    return rows


def _reset_for_tests() -> None:
    """Clear selection, dispatch caches, and probe state (test isolation)."""
    global _ACTIVE
    _ACTIVE = None
    _OPS_CACHE.clear()
    _WARMED.clear()
    cext._reset_for_tests()


# -- marshalling: mesh/state objects -> the flat loops.py convention ------

#: int64 neighbor-array casts, keyed by mesh generation (mesh stores int32)
_NEIGHBORS64: OrderedDict[int, tuple] = OrderedDict()
_NEIGHBORS64_CAP = 4


def _neighbors64(mesh) -> tuple:
    gen = mesh.generation
    cached = _NEIGHBORS64.get(gen)
    if cached is None:
        cached = tuple(
            np.ascontiguousarray(arr, dtype=np.int64)
            for arr in (mesh.nlft, mesh.nrht, mesh.nbot, mesh.ntop)
        )
        _NEIGHBORS64[gen] = cached
        while len(_NEIGHBORS64) > _NEIGHBORS64_CAP:
            _NEIGHBORS64.popitem(last=False)
    else:
        _NEIGHBORS64.move_to_end(gen)
    return cached


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
        nbrs = _neighbors64(mesh)
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


def try_self_max_metric(U, mx, my, mz, gamma, gm1, dtype):
    """SELF metric-weighted max wave speed; None → oracle."""
    dt = np.dtype(dtype)
    ops = dispatch_ops(dt)
    if ops is None:
        return None
    nelem = int(U.shape[0])
    n3 = int(U.shape[2] * U.shape[3] * U.shape[4])
    if nelem * n3 == 0:
        return None
    Uc = np.ascontiguousarray(U)
    return float(
        ops.self_max_metric(
            Uc.reshape(-1), nelem, n3, mx, my, mz, gamma, gm1, dt.type(0.5)
        )
    )


# -- warm-up: force compilation outside the timed region ------------------

def warmup(cdtype, which: str = "clamr") -> str | None:
    """Resolve the backend and force-compile its kernels on tiny inputs.

    Returns the concrete backend name, or None when the oracle will run.
    Called by the simulation drivers inside a dedicated telemetry span so
    C-build time never pollutes timed regions or flight-recorder series.  Idempotent per (backend, dtype, which).
    """
    ops = dispatch_ops(cdtype)
    if ops is None:
        return None
    dt = np.dtype(cdtype)
    key = (ops.name, dt, which)
    if key in _WARMED:
        return ops.name
    ct = dt.type
    g, half = ct(GRAVITY), ct(0.5)
    if which == "self":
        Uf = np.array([1.0, 0.1, 0.2, 0.3, 1e5], dtype=dt)
        ops.self_max_metric(Uf, 1, 1, ct(1), ct(1), ct(1), ct(1.4), ct(0.4), half)
    else:
        H = np.array([1.0, 2.0], dtype=dt)
        U = np.array([0.1, -0.2], dtype=dt)
        V = np.array([0.05, 0.0], dtype=dt)
        b = np.array([0.1, 0.2], dtype=dt)
        ones = np.ones(2, dtype=dt)
        nbrs = [np.array(a, dtype=np.int64) for a in ([0, 0], [1, 1], [0, 1], [0, 1])]
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
