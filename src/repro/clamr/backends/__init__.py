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
    the paper's Table III (``JobSpec.simulation(vectorized=False)`` runs the
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

This package is only the selection switch: the CLAMR kernels reach the
backends through :mod:`.bridge`, which a SELF process never loads.
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
#: (backend, dtype) pairs whose CLAMR kernel has run once (bridge.warm_clamr_rhs)
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


def warmup(cdtype, which: str = "clamr") -> str | None:
    """Resolve the backend and force-compile its kernels on tiny inputs.

    Returns the concrete backend name, or None when the oracle will run.
    Called by the simulation drivers inside a dedicated telemetry span so
    C-build time never pollutes timed regions or flight-recorder series.
    ``which="self"`` only builds the library: no SELF kernel dispatches,
    so the CLAMR marshalling (:mod:`.bridge`) stays unloaded.
    Idempotent per (backend, dtype, which).
    """
    ops = dispatch_ops(cdtype)
    if ops is None:
        return None
    if which != "self":
        from .bridge import warm_clamr_rhs

        warm_clamr_rhs(ops, np.dtype(cdtype))
    return ops.name
