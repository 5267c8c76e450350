"""The "cext" backend: the loop kernels compiled as C at first use.

``_kernels.c`` (which instantiates ``_kernels_impl.h`` at float and
double) is compiled with the system C compiler into a shared object in a
content-addressed cache directory, then loaded with :mod:`ctypes`.  No
build step, no toolchain beyond ``cc``: if no compiler is present (or the
build fails), :func:`availability` reports why and the dispatcher falls
back to the NumPy oracle.

Bit-identity is a *compile-flag* contract here (``_CFLAGS``):
``-ffp-contract=off`` forbids FMA fusion, also where ``-march=native``
offers FMA, and nothing enables value-changing math (no ``-ffast-math``),
so on x86-64 every C operation is the same single correctly-rounded
IEEE-754 operation the NumPy kernels perform.  ``-fno-trapping-math``
only lets the compiler evaluate both arms of a select, which it needs to
vectorize the branch-free slope and face loops; it changes no rounding,
only the floating-point exception flags, which nothing reads.  A vector
lane rounds exactly as the scalar unit does, so the bits do not depend on
the build.  See ``_kernels_impl.h`` for the replay details.

``-march=native`` builds for the host CPU.  If the compiler rejects it
(its error names ``-march``), the build is retried once without it (the
portable build), and a marker file next to the cache entry records the
rejection, so later processes go straight to the portable library.  Any
other build failure is raised.  :func:`availability` names the build
that loaded.

Cache location: ``$REPRO_CEXT_CACHE`` if set, else
``<tempdir>/repro-cext-<uid>``.  The object name embeds a digest of the
sources, compiler and flags, and for a host build of the host CPU
(:func:`_host_cpu`), so edits, flag changes or another CPU rebuild instead
of reusing a stale binary.  A cached library loads without running the
compiler.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import shutil
import subprocess
import tempfile
from pathlib import Path

import numpy as np

_SRC_DIR = Path(__file__).resolve().parent
_SOURCES = ("_kernels.c", "_kernels_impl.h")
_CFLAGS = [
    "-O3", "-fPIC", "-shared", "-ffp-contract=off", "-fno-math-errno",
    "-fno-trapping-math", "-march=native",
]
#: the flag that ties a build to the host CPU; the portable retry drops it
_NATIVE = "-march=native"
_ABI = 3

_lib = None
_detail: str | None = None  # the compiler and build of the loaded library
_load_error: str | None = None
_probed = False


def _find_compiler() -> str | None:
    for name in (os.environ.get("CC"), "cc", "gcc", "clang"):
        if name and shutil.which(name):
            return name
    return None


def _cache_dir() -> Path:
    override = os.environ.get("REPRO_CEXT_CACHE")
    if override:
        return Path(override)
    return Path(tempfile.gettempdir()) / f"repro-cext-{os.getuid()}"


def _host_cpu() -> str:
    """The host CPU's identity, read without a subprocess.

    The machine type and the first ``flags`` (x86) or ``Features`` (Arm)
    line of ``/proc/cpuinfo``; where that file is absent, the machine type
    and host name (``platform.processor()`` may run ``uname -p``).
    """
    uname = os.uname()
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith(("flags", "Features")):
                    return f"{uname.machine} {line.strip()}"
    except OSError:
        pass
    return f"{uname.machine} {uname.nodename}"


def _digest(compiler: str, flags: list[str]) -> str:
    h = hashlib.sha256()
    h.update(compiler.encode())
    h.update(" ".join(flags).encode())
    h.update(str(_ABI).encode())
    if _NATIVE in flags:
        h.update(_host_cpu().encode())
    for name in _SOURCES:
        h.update((_SRC_DIR / name).read_bytes())
    return h.hexdigest()[:16]


def _compile(compiler: str, flags: list[str], so_path: Path) -> None:
    tmp = so_path.with_name(f".{so_path.name}.{os.getpid()}.tmp")
    cmd = [compiler, *flags, "-o", str(tmp), str(_SRC_DIR / "_kernels.c")]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120)
    if proc.returncode != 0:
        tmp.unlink(missing_ok=True)
        tail = (proc.stderr or proc.stdout).strip().splitlines()[-3:]
        raise RuntimeError(f"{compiler} failed: {' | '.join(tail) or 'no output'}")
    os.replace(tmp, so_path)  # atomic: concurrent builders converge


def _build_and_load():
    """Compile (if not cached) and dlopen the kernel library.

    Returns ``(lib, detail)``; the detail names the compiler and the build.
    """
    compiler = _find_compiler()
    if compiler is None:
        raise RuntimeError("no C compiler found (tried $CC, cc, gcc, clang)")
    cache = _cache_dir()
    cache.mkdir(parents=True, exist_ok=True)
    native = _NATIVE in _CFLAGS
    detail = f"compiled via {compiler}, {_NATIVE if native else 'portable'}"
    so_path = cache / f"_kernels-{_digest(compiler, _CFLAGS)}.so"
    rejected = so_path.with_suffix(".rejected")
    if not so_path.exists() and not rejected.exists():
        try:
            _compile(compiler, _CFLAGS, so_path)
        except RuntimeError as exc:
            # only the compiler's refusal of the host flag (not a killed
            # compiler or a full disk) pins the portable build
            if not native or _NATIVE.split("=")[0] not in str(exc):
                raise
            rejected.write_text(f"{exc}\n")
    if not so_path.exists():  # the host flag was rejected: the portable build
        flags = [f for f in _CFLAGS if f != _NATIVE]
        detail = f"compiled via {compiler}, portable ({_NATIVE} rejected)"
        so_path = cache / f"_kernels-{_digest(compiler, flags)}.so"
        if not so_path.exists():
            _compile(compiler, flags, so_path)
    lib = ctypes.CDLL(str(so_path))
    lib.repro_kernels_abi.restype = ctypes.c_int
    lib.repro_kernels_abi.argtypes = []
    abi = lib.repro_kernels_abi()
    if abi != _ABI:
        raise RuntimeError(f"cached kernel ABI {abi} != expected {_ABI}")
    _declare(lib)
    return lib, detail


def _declare(lib) -> None:
    P = ctypes.c_void_p
    I = ctypes.c_int64
    D = ctypes.c_double
    for suffix, S in (("f32", ctypes.c_float), ("f64", ctypes.c_double)):
        fn = getattr(lib, f"clamr_rhs_{suffix}")
        fn.restype = None
        fn.argtypes = [P, P, P, P, P, P, P, P, P, P, I, P, P, I, P, P, P,
                       P, P, I, P, P, P, P, P, P, P, P, P, P, P, P, P, S, S]
        fn = getattr(lib, f"heun_stage_{suffix}")
        fn.restype = None
        fn.argtypes = [P, P, P, P, P, P, P, P, P, P, I, S, P, P, P]
    for name, argtypes in (
        ("mesh_neighbors", [P, P, P, I, I, I, I, P, P, P, P, P]),
        ("face_count", [P, P, P, P, P, I, P]),
        ("face_fill", [P, P, P, P, P, I, D, P, P, P, P, P, P, P, P]),
        ("refinement_flags", [P, P, P, P, P, P, I, I, D, D, D, P, P]),
        ("enforce_balance", [P, P, P, P, P, P, I, I, P]),
    ):
        fn = getattr(lib, name)
        fn.restype = None if name == "face_fill" else I
        fn.argtypes = argtypes


def _ensure() -> None:
    global _lib, _detail, _load_error, _probed
    if _probed:
        return
    _probed = True
    try:
        _lib, _detail = _build_and_load()
        _load_error = None
    except Exception as exc:  # availability is a report, not a crash
        _lib = None
        _load_error = str(exc)


def _reset_for_tests() -> None:
    global _lib, _detail, _load_error, _probed
    _lib = None
    _detail = None
    _load_error = None
    _probed = False


def availability() -> tuple[bool, str]:
    """(usable, detail) — detail names the compiler and build, or the failure."""
    _ensure()
    if _lib is not None:
        return True, _detail
    return False, _load_error or "unavailable"


_SUFFIX = {np.dtype(np.float32): "f32", np.dtype(np.float64): "f64"}


def supports_dtype(dtype) -> bool:
    return np.dtype(dtype) in _SUFFIX


def _p(arr: np.ndarray | None) -> int | None:
    return None if arr is None else arr.ctypes.data  # None passes NULL


def _fn(name: str, like: np.ndarray):
    return getattr(_lib, f"{name}_{_SUFFIX[like.dtype]}")


# -- adapters: same positional signature as backends.loops ----------------

def clamr_rhs(H, U, V, b, eta, nlft, nrht, nbot, ntop, size,
              xl, xr, xip, xcols, xsgn, yb, yt, yip, ycols, ysgn,
              bcells, boff, sl, f0, f1, f2, f3, dH, dU, dV, g, half):
    _fn("clamr_rhs", H)(
        _p(H), _p(U), _p(V), _p(b), _p(eta),
        _p(nlft), _p(nrht), _p(nbot), _p(ntop), _p(size), H.shape[0],
        _p(xl), _p(xr), xl.shape[0], _p(xip), _p(xcols), _p(xsgn),
        _p(yb), _p(yt), yb.shape[0], _p(yip), _p(ycols), _p(ysgn),
        _p(bcells), _p(boff), _p(sl),
        _p(f0), _p(f1), _p(f2), _p(f3), _p(dH), _p(dU), _p(dV),
        float(g), float(half))


def heun_stage(H0, U0, V0, aH, aU, aV, bH, bU, bV, scale, half, H, U, V):
    _fn("heun_stage", H0)(
        _p(H0), _p(U0), _p(V0), _p(aH), _p(aU), _p(aV), _p(bH), _p(bU), _p(bV),
        _p(scale), H0.shape[0], float(half), _p(H), _p(U), _p(V))


def mesh_neighbors(i, j, level, nx, ny, max_level, img, nlft, nrht, nbot, ntop):
    return _lib.mesh_neighbors(
        _p(i), _p(j), _p(level), level.shape[0], int(nx), int(ny), int(max_level),
        _p(img), _p(nlft), _p(nrht), _p(nbot), _p(ntop))


def face_count(nlft, nrht, nbot, ntop, level, counts):
    return _lib.face_count(
        _p(nlft), _p(nrht), _p(nbot), _p(ntop), _p(level), level.shape[0], _p(counts))


def face_fill(nlft, nrht, nbot, ntop, level, coarse_size, counts,
              xl, xr, xsize, yb, yt, ysize, bnd):
    _lib.face_fill(
        _p(nlft), _p(nrht), _p(nbot), _p(ntop), _p(level), level.shape[0],
        float(coarse_size), _p(counts),
        _p(xl), _p(xr), _p(xsize), _p(yb), _p(yt), _p(ysize), _p(bnd))


def refinement_flags(H, nlft, nrht, nbot, ntop, level, max_level,
                     tiny, refine, coarsen, ind, flags):
    return _lib.refinement_flags(
        _p(H), _p(nlft), _p(nrht), _p(nbot), _p(ntop), _p(level), level.shape[0],
        int(max_level), float(tiny), float(refine), float(coarsen), _p(ind), _p(flags))


def enforce_balance(flags, level, nlft, nrht, nbot, ntop, max_level, forced):
    return _lib.enforce_balance(
        _p(flags), _p(level), _p(nlft), _p(nrht), _p(nbot), _p(ntop),
        level.shape[0], int(max_level), _p(forced))
