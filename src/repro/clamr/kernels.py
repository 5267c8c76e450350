"""The CLAMR ``finite_diff`` kernel: shallow-water update on the cell soup.

The paper's profiling found "the majority of CPU time spent on
floating-point arithmetic lies within the finite-difference algorithm
loop", and Table III's whole point is comparing an **unvectorized** and a
**vectorized** implementation of that loop at three precision levels.
:func:`finite_diff_vectorized` — bulk NumPy array expressions over the
face lists — is the vectorized row (the SIMD analogue), the production
path and the bit-exactness oracle.  The unvectorized row (the scalar-CPU
analogue) is the same step run one face at a time by the ``python``
kernel backend (``clamr_rhs`` in :mod:`repro.clamr.backends.loops`,
selected by ``JobSpec.simulation(vectorized=False)``): a loop over NumPy
scalars of the compute dtype that replays this module's operation
sequence, so the two rows produce the same bits.

Scheme
------
Conservative finite-volume update with Rusanov (local Lax–Friedrichs)
fluxes on the AMR face list.  Faces are built once per mesh topology by
:class:`FaceLists`; a face's geometric size is the edge length of its
*finer* side, so flux exchange between levels is conservative by
construction — total mass is preserved to rounding error, which the
integration tests check with a double-double sum.

Precision handling mirrors CLAMR's builds exactly: state arrays are loaded
at ``state_dtype``, promoted to ``compute_dtype`` for all local flux and
update arithmetic (the mixed-mode move), and demoted on store.

Reflective walls are implemented by evaluating the same Rusanov flux
against the mirror state (normal momentum negated), which reduces to the
pure pressure flux plus the dissipation that cancels wall-normal momentum.
"""

from __future__ import annotations

import contextlib
import importlib.machinery
import importlib.util
import math
import os
import sys
from dataclasses import dataclass
from types import ModuleType

import numpy as np

from repro.clamr.mesh import AmrMesh
from repro.clamr.state import GRAVITY, ShallowWaterState
from repro.machine.counters import KernelCounters

# imported late in this module's functions would cost a dict lookup per
# step; bound once here. backends deliberately imports nothing from this
# module, so the edge is acyclic.
from repro.clamr import backends as _backends
from repro.clamr.backends import bridge as _bridge

__all__ = [
    "FaceLists",
    "ScatterPlan",
    "GeometryCache",
    "geometry_cache",
    "scatter_mode",
    "finite_diff_vectorized",
    "compute_timestep",
    "wave_speed",
    "FLOPS_PER_FACE",
    "FLOPS_PER_CELL_UPDATE",
    "FLOPS_PER_CELL_TIMESTEP",
]

#: Analytic operation counts for the machine model (adds+muls+divs+sqrts).
FLOPS_PER_FACE = 38
FLOPS_PER_CELL_UPDATE = 12
FLOPS_PER_CELL_TIMESTEP = 9


def _load_sparsetools() -> ModuleType:
    """scipy's compiled ``coo_tocsr``/``csr_matvec`` module.

    Loaded straight from its extension file, found through scipy's
    package location alone (``find_spec`` of a top-level package runs
    none of its code): importing it through ``scipy.sparse`` would run
    that package's ``__init__``, which pulls in the sparse-matrix classes,
    scipy's array-API layer, ``numpy.f2py`` and ``numpy.testing`` — about
    16 MB and 0.2 s per process for two routines.  The extension needs
    only NumPy's C API, and a later ``import scipy.sparse`` finds it
    registered under its own name.  Only when the file cannot be found
    does the ordinary import run.
    """
    scipy = importlib.util.find_spec("scipy")
    for root in (scipy.submodule_search_locations or ()) if scipy is not None else ():
        for suffix in importlib.machinery.EXTENSION_SUFFIXES:
            path = os.path.join(root, "sparse", "_sparsetools" + suffix)
            if os.path.isfile(path):
                spec = importlib.util.spec_from_file_location("scipy.sparse._sparsetools", path)
                module = importlib.util.module_from_spec(spec)
                spec.loader.exec_module(module)
                return module
    from scipy.sparse import _sparsetools

    return _sparsetools


_sparsetools = _load_sparsetools()

#: compute dtypes the compiled CSR matvec is instantiated for
_CSR_DTYPES = (np.dtype(np.float32), np.dtype(np.float64))
_F64 = np.dtype(np.float64)


def _iota(out: np.ndarray) -> np.ndarray:
    """Fill the 1-D integer ``out`` with 0, 1, 2, … (an arange in place)."""
    out.fill(1)
    out[:1] = 0
    return np.add.accumulate(out, out=out)


class ScatterPlan:
    """A precomputed, bit-exact replacement for a pair of ``np.add.at`` calls.

    The kernels scatter signed face fluxes into per-cell accumulators as
    ``np.add.at(acc, low, -flux * fsz); np.add.at(acc, high, flux * fsz)``,
    which accumulates into each cell in a fixed sequential order: all of the
    cell's *low*-side contributions in face order, then all of its
    *high*-side contributions in face order.  Floating-point addition is not
    associative, so a faster scatter is only admissible if it replays exactly
    that per-cell sequence.

    ``np.add.reduceat`` does **not** qualify: ufunc reductions use pairwise
    summation internally, which changes the association inside a segment
    (``a0 + (a1 + a2)`` instead of ``(a0 + a1) + a2``) — measurably different
    bits from segment length 3 on.  What does qualify is a CSR matrix-vector
    product: the compiled kernel runs ``sum = y[i]; for jj in row: sum +=
    data[jj] * x[col[jj]]`` — a strict left-to-right accumulation in stored
    order.  The plan therefore builds a CSR matrix whose row ``c`` lists cell
    ``c``'s faces in exactly add.at's order with data ``∓fsz`` — the face
    size *and* the scatter sign folded into the matrix, eliminating the six
    signed-flux temporaries per step.  Bitwise equivalence of the folding
    holds because IEEE-754 negation is exact and multiplication commutes
    exactly: ``-(f · s) == (-s) · f`` and ``acc - t == acc + (-t)``.

    The matrix is the COO triple ``rows = concat(low, high)``, ``cols =
    concat(arange(nf), arange(nf))``, ``data = concat(-fsz, +fsz)``
    converted by scipy's compiled ``coo_tocsr`` — a stable counting sort,
    so each row keeps its entries in COO order, which is add.at's order.

    The sided form ``apply(acc, flux, high_flux)`` scatters a different
    flux to each side, ``acc[low] -= flux·fsz; acc[high] += high_flux·fsz``
    — the well-balanced bathymetry kernels need it, because each side's
    normal-momentum flux carries that side's own hydrostatic pressure.  It
    runs the same rows over the stacked vector ``[flux; high_flux]`` — one
    cached buffer per dtype, so the call allocates nothing — with each
    high-side entry's column shifted by ``nfaces`` (face sizes are
    positive, so an entry's side is the sign of its stored ``±fsz``).  The
    rows keep their order — low entries in face order, then high entries
    in face order — so the sided matvec replays the ``np.add.at`` pair with
    ``high_flux`` on the high side, bit for bit.

    For a dtype scipy's compiled kernels don't cover (float16), or under
    ``scatter_mode("add_at")``, ``apply`` runs the original ``np.add.at``
    pair, which produces the same bits by construction — so results never
    depend on which path ran.
    """

    def __init__(
        self,
        low: np.ndarray,
        high: np.ndarray,
        sizes: np.ndarray,
        ncells: int,
        dtype: np.dtype = _F64,
        scratch=np.empty,
    ) -> None:
        self.ncells = int(ncells)
        self.nfaces = int(low.size)
        self.low = low.astype(np.int64, copy=False)
        self.high = high.astype(np.int64, copy=False)
        self.sizes64 = np.asarray(sizes, dtype=np.float64)
        nnz = 2 * self.nfaces
        nf = self.nfaces
        dtype = np.dtype(dtype)
        if dtype not in _CSR_DTYPES:
            dtype = _F64
        self.indptr = np.empty(self.ncells + 1, dtype=np.int32)
        self.cols = np.empty(nnz, dtype=np.int32)
        #: ±fsz per stored entry, in per-cell add.at order, at the dtype in use
        self._kept = np.empty(nnz, dtype=dtype)
        # the COO triple (low | high, face | face, -fsz | +fsz); a dtype
        # cast of ±fsz64 is ±(its cast), exactly
        rows = scratch(nnz, np.int32)
        np.copyto(rows[:nf], self.low, casting="same_kind")
        np.copyto(rows[nf:], self.high, casting="same_kind")
        faces = scratch(nnz, np.int32)
        faces[nf:] = _iota(faces[:nf])
        data = scratch(nnz, dtype)
        np.negative(self.sizes64, out=data[:nf], casting="same_kind")
        np.copyto(data[nf:], self.sizes64, casting="same_kind")
        _sparsetools.coo_tocsr(
            self.ncells, self.nfaces, nnz, rows, faces, data, self.indptr, self.cols, self._kept,
        )
        self._size_casts: dict[np.dtype, np.ndarray] = {}
        self._sided: np.ndarray | None = None
        self._stacked: dict[np.dtype, np.ndarray] = {}

    def signed(self, cdtype: np.dtype) -> np.ndarray:
        """``±fsz`` per stored entry at ``cdtype``: the CSR matrix's data.

        The plan keeps one such array, for the dtype last asked for; another
        dtype's is rebuilt from the float64 face sizes and the kept array's
        signs, and replaces it.
        """
        cdtype = np.dtype(cdtype)
        kept = self._kept
        if cdtype != kept.dtype:
            # (±fsz64).astype(c) == ±(fsz64.astype(c)): negation commutes
            # exactly with the rounding of a dtype cast
            cast = self.sizes64.astype(cdtype).take(self.cols)
            np.negative(cast, out=cast, where=np.signbit(kept))
            kept = self._kept = cast
        return kept

    def _sizes(self, cdtype: np.dtype) -> np.ndarray:
        cast = self._size_casts.get(cdtype)
        if cast is None:
            cast = self.sizes64.astype(cdtype)
            self._size_casts[cdtype] = cast
        return cast

    def _sided_cols(self) -> np.ndarray:
        if self._sided is None:
            # high-side entries (stored +fsz; sizes are positive) read the
            # second half of the stacked vector [flux; high_flux]
            high = ~np.signbit(self._kept)
            self._sided = self.cols + np.int32(self.nfaces) * high
        return self._sided

    def apply(self, acc: np.ndarray, flux: np.ndarray, high_flux: np.ndarray | None = None) -> None:
        """``acc[low] -= flux·fsz; acc[high] += high_flux·fsz``, add.at-bit-exact.

        ``high_flux`` defaults to ``flux`` (the antisymmetric scatter).
        """
        cdtype = acc.dtype
        if _SCATTER_MODE == "plan" and cdtype in _CSR_DTYPES:
            if high_flux is None:
                cols, ncols, x = self.cols, self.nfaces, flux
            else:
                x = self._stacked.get(cdtype)
                if x is None:
                    x = self._stacked[cdtype] = np.empty(2 * self.nfaces, dtype=cdtype)
                x[:self.nfaces] = flux
                x[self.nfaces:] = high_flux
                cols, ncols = self._sided_cols(), 2 * self.nfaces
            _sparsetools.csr_matvec(
                self.ncells, ncols, self.indptr, cols, self.signed(cdtype), x, acc,
            )
        else:
            fsz = self._sizes(cdtype)
            np.add.at(acc, self.low, -flux * fsz)
            np.add.at(acc, self.high, (flux if high_flux is None else high_flux) * fsz)


#: scatter implementation selector: "plan" (production) or "add_at", which
#: forces ScatterPlan.apply onto its np.add.at pair and turns all backend
#: dispatch off (kernels and topology builders alike) — the all-NumPy
#: reference for the bit-identity tests and the microbenchmark baseline
_SCATTER_MODE = "plan"


@contextlib.contextmanager
def scatter_mode(mode: str):
    """Temporarily select the scatter implementation ("plan" | "add_at")."""
    global _SCATTER_MODE
    if mode not in ("plan", "add_at"):
        raise ValueError(f"unknown scatter mode {mode!r}; use 'plan' or 'add_at'")
    previous = _SCATTER_MODE
    _SCATTER_MODE = mode
    try:
        with _backends.oracle_only(mode == "add_at"):
            yield
    finally:
        _SCATTER_MODE = previous


class GeometryCache:
    """Cast geometry, derived terms and scratch arenas for CLAMR's kernels.

    ``cell_size``/``cell_area`` are pure functions of the mesh topology, yet
    the kernels used to recompute and re-cast them on every step — per-step
    allocation and cast churn on arrays that only change on regrid.  The
    cache keys them on ``mesh.generation`` (unique per constructed mesh,
    see :class:`repro.clamr.mesh.AmrMesh`) and holds them for one
    generation only: the one last asked for, i.e. the mesh being stepped.
    Asking for another generation (a regrid, or a rollback that steps an
    older mesh again) drops them and builds that generation's.

    Topology-only terms derived from the stepped generation — gather
    indices, spacings, wall sizes (:meth:`derived`) — go the same way:
    built the first time the generation is stepped and dropped when
    another generation is asked for, so no term is ever read for a
    generation other than the one it was built from.  :meth:`release`
    drops both ahead of a regrid.

    Scratch is not per generation.  Every :meth:`buffer` and
    :meth:`workspace3` request returns a C-contiguous view of one flat
    arena per (dtype, name), which survives regrids and only ever grows:
    allocated at its exact size on first use, and with an eighth of
    headroom when a later request needs more, so a run's scratch scales
    with its largest mesh, not with how often it regrids.  Arena contents
    are undefined (workspaces are zeroed on every hand-out).  A request
    for a shape or generation other than the name's previous one, made
    while a view of the arena is still alive outside the cache, gets a
    fresh arena, so two live views of one name never alias.
    """

    def __init__(self) -> None:
        self._generation: int | None = None
        self._casts: dict[np.dtype, tuple[np.ndarray, np.ndarray]] = {}
        self._derived: dict[tuple, tuple] = {}
        self._arenas: dict[tuple, np.ndarray] = {}
        #: (generation, shape) of each arena's last hand-out
        self._handed: dict[tuple, tuple] = {}

    def _select(self, mesh: AmrMesh) -> None:
        """Make ``mesh``'s generation the held one, dropping another's terms."""
        if mesh.generation != self._generation:
            self.release()
            self._generation = mesh.generation

    def release(self) -> None:
        """Drop the held generation's cast geometry and derived terms.

        The scratch arenas stay: the next generation reuses them.
        """
        self._generation = None
        self._casts = {}
        self._derived = {}

    def geometry(self, mesh: AmrMesh, cdtype: np.dtype) -> tuple[np.ndarray, np.ndarray]:
        """(cell_size, cell_area) cast to the compute dtype, cached.

        The returned arrays are shared — callers must treat them as
        read-only (the kernels only ever gather from them).
        """
        self._select(mesh)
        cast = self._casts.get(cdtype)
        if cast is None:
            master = self._casts.get(_F64)
            if master is None:
                size64 = mesh.cell_size()
                master = self._casts[_F64] = (size64, size64 * size64)
            cast = self._casts[cdtype] = master if cdtype == _F64 else (
                master[0].astype(cdtype), master[1].astype(cdtype)
            )
        return cast

    def derived(self, mesh: AmrMesh, key: tuple, owner: object, build):
        """The topology-only terms ``build()`` returns for ``mesh``, built once.

        Held for the stepped generation under ``key``, together with
        ``owner``, the object the terms were built from (the face lists, or
        the cell sizes the caller passed): a request naming a different
        owner rebuilds them, so terms built for one set of face lists are
        never read with another (a halo rank steps the same mesh on masked
        face lists).  The arrays are shared and read-only.
        """
        self._select(mesh)
        hit = self._derived.get(key)
        if hit is None or hit[0] is not owner:
            hit = self._derived[key] = (owner, build())
        return hit[1]

    def workspace3(self, mesh: AmrMesh, cdtype: np.dtype, slot: str = "fd") -> np.ndarray:
        """A zeroed ``(3, ncells)`` accumulator buffer, reused across steps."""
        buf = self.buffer(mesh, cdtype, "workspace/" + slot, (3, mesh.ncells))
        buf.fill(0)
        return buf

    def buffer(self, mesh: AmrMesh, cdtype: np.dtype, name: str, shape: tuple[int, ...]) -> np.ndarray:
        """A reusable scratch array keyed (dtype, name); contents undefined.

        Unlike :meth:`workspace3` the buffer is *not* zeroed — callers must
        overwrite every element they read back (the kernels use these for
        gather targets and flux temporaries, which are fully written each
        step).
        """
        self._select(mesh)
        key = (np.dtype(cdtype), name)
        need = math.prod(shape)
        arena = self._arenas.get(key)
        handout = (self._generation, shape)
        # references beyond the cache's and this frame's are live views,
        # which a new shape or generation must not alias
        if arena is None or arena.size < need or (
            self._handed[key] != handout and sys.getrefcount(arena) > _UNSHARED_REFS
        ):
            if arena is None:
                capacity = need
            elif arena.size < need:
                capacity = need + need // 8
            else:
                capacity = arena.size
            arena = self._arenas[key] = np.empty(capacity, dtype=key[0])
        self._handed[key] = handout
        return arena[:need].reshape(shape)

    @contextlib.contextmanager
    def borrow(self):
        """Temporaries carved from the idle face-buffer arena, for a regrid.

        Yields a :class:`BorrowedScratch` over the bytes of the largest
        face-pass arena the cache holds — the :func:`_face_buffer`, or a
        loop backend's flux rows — or over nothing before the first
        kernel call (every request then falls back to ``np.empty``).  That
        arena holds nothing between kernel calls, so the regrid's flags,
        face-list and plan builders and the mass sum use it instead of new
        memory; no arena is created.
        Every carved array must be dead when the block ends, before the
        next kernel call asks for the buffer again (a live one would make
        that request allocate a fresh arena, by the aliasing rule above).
        """
        idle = [a for (_, name), a in self._arenas.items() if name in _IDLE_ARENAS]
        scratch = BorrowedScratch(max(idle, key=lambda a: a.nbytes) if idle else None)
        try:
            yield scratch
        finally:
            scratch.close()


#: the face buffer's arena name
_FACE_ARENA = "fd_faces"
#: the face-pass scratch of the NumPy kernels and of a loop backend
#: (``bridge.try_clamr_rhs``): every kernel call writes each element it
#: reads, so between calls their bytes are free to borrow
_IDLE_ARENAS = (_FACE_ARENA, "bk_flux")
#: byte alignment of every array carved from a borrowed arena
_CARVE_ALIGN = 64


class BorrowedScratch:
    """Typed temporaries carved in turn from one borrowed arena's bytes.

    ``scratch(shape, dtype)`` returns an uninitialised array like
    ``np.empty``: the next aligned stretch of the arena while one fits,
    then ``np.empty``'s own memory.  Carved arrays stay valid until
    :meth:`close`; nothing is freed before that, so a builder's
    temporaries never overlap.
    """

    __slots__ = ("_raw", "_used")

    def __init__(self, arena: np.ndarray | None) -> None:
        self._raw = None if arena is None else arena.reshape(-1).view(np.uint8)
        self._used = 0

    def __call__(self, shape, dtype=np.float64) -> np.ndarray:
        dtype = np.dtype(dtype)
        shape = (shape,) if isinstance(shape, (int, np.integer)) else tuple(shape)
        nbytes = math.prod(shape) * dtype.itemsize
        start = -(-self._used // _CARVE_ALIGN) * _CARVE_ALIGN
        if self._raw is None or start + nbytes > self._raw.size:
            return np.empty(shape, dtype)
        self._used = start + nbytes
        return self._raw[start:start + nbytes].view(dtype).reshape(shape)

    def close(self) -> None:
        """Let go of the arena; later requests get ``np.empty`` memory."""
        self._raw = None


def _unshared_refs() -> int:
    """``sys.getrefcount`` of an arena held by a dict and a local only, read
    the way :meth:`GeometryCache.buffer` reads it (what the call itself
    adds differs between interpreter versions)."""
    arenas = {0: np.empty(0)}
    arena = arenas.get(0)
    return sys.getrefcount(arena)


_UNSHARED_REFS = _unshared_refs()

#: module-default cache used when a caller does not thread one through
_DEFAULT_GEOMETRY_CACHE = GeometryCache()


def geometry_cache() -> GeometryCache:
    """The process-default :class:`GeometryCache` (one per process)."""
    return _DEFAULT_GEOMETRY_CACHE


@dataclass(frozen=True)
class FaceLists:
    """Unique interior and boundary faces derived from neighbor arrays.

    Interior x-faces are ordered pairs ``(xl, xr)`` (flow normal +x), sized
    by the finer cell; likewise y-faces ``(yb, yt)``.  Boundary faces are
    per-side cell lists.  The generation rule creates each physical face
    exactly once (finer-or-equal cell owns its right/top face; strictly
    finer cell owns its left/bottom face against a coarser neighbor).
    Under a loop backend one count pass and one exact-size fill build the
    same arrays (``face_count``/``face_fill`` in
    :mod:`repro.clamr.backends.loops`), the wall lists as views of the
    one concatenated wall array :meth:`boundary_concat` returns.
    """

    xl: np.ndarray
    xr: np.ndarray
    xsize: np.ndarray
    yb: np.ndarray
    yt: np.ndarray
    ysize: np.ndarray
    bnd_left: np.ndarray
    bnd_right: np.ndarray
    bnd_bottom: np.ndarray
    bnd_top: np.ndarray

    @classmethod
    def from_mesh(cls, mesh: AmrMesh, scratch=np.empty) -> "FaceLists":
        """The face lists of ``mesh``; ``scratch(shape, dtype)`` hands out
        the NumPy builder's temporaries (masks, level gathers, cell sizes)."""
        built = _bridge.try_face_lists(mesh)
        if built is not None:
            fields, bcells, slices = built
            faces = cls(**fields)
            object.__setattr__(faces, "_bnd_concat", (bcells, slices))
            return faces
        n = mesh.ncells
        cells = _iota(scratch(n, mesh.nlft.dtype))
        level = mesh.level
        size = mesh.cell_size(out=scratch(n, np.float64))
        mask, other = scratch(n, bool), scratch(n, bool)
        nbr_level = scratch(n, level.dtype)

        def owned(nbr: np.ndarray, finer_or_equal: bool) -> np.ndarray:
            # cells whose link ``nbr`` is not a wall and whose neighbor's
            # level is <= (or <) their own
            np.not_equal(nbr, cells, out=mask)
            np.take(level, nbr, out=nbr_level, mode="clip")
            (np.less_equal if finer_or_equal else np.less)(nbr_level, level, out=other)
            np.logical_and(mask, other, out=mask)
            return np.flatnonzero(mask)

        def interior(fwd: np.ndarray, back: np.ndarray):
            # (low cells, high cells, sizes) of one axis's interior faces;
            # cell indices come out int64 (flatnonzero's intp, and the
            # concatenate promotes the int32 neighbor gathers to it)
            own_fwd = owned(fwd, True)
            own_back = owned(back, False)
            return (
                np.concatenate([own_fwd, np.take(back, own_back)]),
                np.concatenate([np.take(fwd, own_fwd), own_back]),
                np.concatenate([np.take(size, own_fwd), np.take(size, own_back)]),
            )

        def walls(nbr: np.ndarray) -> np.ndarray:
            np.equal(nbr, cells, out=mask)
            return np.flatnonzero(mask)

        xl, xr, xsize = interior(mesh.nrht, mesh.nlft)
        yb, yt, ysize = interior(mesh.ntop, mesh.nbot)
        return cls(
            xl=xl,
            xr=xr,
            xsize=xsize,
            yb=yb,
            yt=yt,
            ysize=ysize,
            bnd_left=walls(mesh.nlft),
            bnd_right=walls(mesh.nrht),
            bnd_bottom=walls(mesh.nbot),
            bnd_top=walls(mesh.ntop),
        )

    @property
    def nfaces(self) -> int:
        boundary = self.bnd_left.size + self.bnd_right.size + self.bnd_bottom.size + self.bnd_top.size
        return int(self.xl.size + self.yb.size + boundary)

    def scatter_plans(
        self, ncells: int, dtype: np.dtype = _F64, scratch=np.empty
    ) -> tuple[ScatterPlan, ScatterPlan]:
        """(x-plan, y-plan) for this topology, built once and memoized.

        The x and y face groups keep separate plans (and separate
        applications in the kernel) because the original code scattered all
        x-face contributions before any y-face ones — fusing them would
        change per-cell accumulation order and therefore bits.  A new pair
        keeps its signed sizes at ``dtype`` (the compute dtype that will
        apply it); ``scratch(shape, dtype)`` hands out the builders'
        temporaries.
        """
        cached = getattr(self, "_plans", None)
        if cached is None or cached[0] != ncells:
            plans = (
                ScatterPlan(self.xl, self.xr, self.xsize, ncells, dtype, scratch),
                ScatterPlan(self.yb, self.yt, self.ysize, ncells, dtype, scratch),
            )
            object.__setattr__(self, "_plans", (ncells, plans))
            return plans
        return cached[1]

    def boundary_concat(self) -> tuple[np.ndarray, tuple[slice, slice, slice, slice]]:
        """All boundary cells concatenated left|right|bottom|top, with slices.

        Lets the kernel evaluate one fused Rusanov call over every wall face
        while still *applying* the results side-by-side in the original
        order (corner cells sit in two sides, so per-side application order
        is part of the bit contract).
        """
        cached = getattr(self, "_bnd_concat", None)
        if cached is None:
            sides = (self.bnd_left, self.bnd_right, self.bnd_bottom, self.bnd_top)
            offsets = np.cumsum([0] + [s.size for s in sides])
            cells = np.concatenate(sides).astype(np.int64, copy=False)
            slices = tuple(slice(int(offsets[k]), int(offsets[k + 1])) for k in range(4))
            cached = (cells, slices)
            object.__setattr__(self, "_bnd_concat", cached)
        return cached


def _rusanov_into(rows, g):
    """Rusanov flux in +x, computed in the rows of its own inputs.

    ``rows`` is ``(11, n)``: rows 0–5 hold the conserved face states
    ``(hL, nL, tL, hR, nR, tR)`` — ``h`` the depth, ``n``/``t`` the
    face-*normal* and face-*tangent* momenta (for x-faces that is U/V; for
    y-faces V/U — by symmetry the y-flux is the x-flux under that swap) —
    and rows 6–10 are scratch.  Every row is consumed: the return is
    ``(f_h, f_normal, f_tangent)``, views of rows 6, 2 and 8.  With ``vel
    = n/h``, ``c = sqrt(g·h)`` and ``lam = max(|velL| + cL, |velR| +
    cR)`` each flux is ``½(fL + fR) − ½·lam·(qR − qL)``, where ``f`` is
    ``n`` for the depth, ``n·vel + ½·g·h·h`` for the normal and ``t·vel``
    for the tangent momentum.  Each element goes through the operations of
    the allocating expression form (kept as the oracle in
    ``tests/reference_impls.py``) in its order, relying only on exact
    IEEE-754 commutativity of ``+``/``*``, so the bits are the same; only
    the three fluxes are evaluated in another order, each once its inputs
    are no longer needed by the others.
    """
    half = g.dtype.type(0.5)
    hg = half * g  # the (0.5 * g) subterm of the pressure flux
    hL, nL, tL, hR, nR, tR, velL, velR, r8, r9, r10 = rows

    np.divide(nL, hL, out=velL)
    np.divide(nR, hR, out=velR)
    np.multiply(hL, g, out=r8)
    np.sqrt(r8, out=r8)  # cL
    np.multiply(hR, g, out=r9)
    np.sqrt(r9, out=r9)  # cR
    np.absolute(velL, out=r10)
    np.add(r10, r8, out=r10)  # |velL| + cL
    np.absolute(velR, out=r8)
    np.add(r8, r9, out=r8)  # |velR| + cR
    np.maximum(r10, r8, out=r9)  # lam
    np.multiply(r9, half, out=r9)  # 0.5*lam, reused by all three fluxes
    lam = r9

    # f_t = 0.5*(tL*velL + tR*velR) - (0.5*lam)*(tR - tL), into r8
    np.multiply(tL, velL, out=r8)
    np.multiply(tR, velR, out=r10)
    np.add(r8, r10, out=r8)
    np.multiply(r8, half, out=r8)
    np.subtract(tR, tL, out=r10)
    np.multiply(r10, lam, out=r10)
    np.subtract(r8, r10, out=r8)

    # f_n = 0.5*((nL*velL + hg*hL*hL) + (nR*velR + hg*hR*hR)) - (0.5*lam)*(nR - nL),
    # into tL (the tangent states are spent)
    np.multiply(nL, velL, out=tL)
    np.multiply(hL, hg, out=r10)
    np.multiply(r10, hL, out=r10)
    np.add(tL, r10, out=tL)  # momentum flux, L side
    np.multiply(nR, velR, out=tR)
    np.multiply(hR, hg, out=r10)
    np.multiply(r10, hR, out=r10)
    np.add(tR, r10, out=tR)  # momentum flux, R side
    np.add(tL, tR, out=tL)
    np.multiply(tL, half, out=tL)
    np.subtract(nR, nL, out=r10)
    np.multiply(r10, lam, out=r10)
    np.subtract(tL, r10, out=tL)

    # f_h = 0.5*(nL + nR) - (0.5*lam)*(hR - hL), into velL
    np.add(nL, nR, out=velL)
    np.multiply(velL, half, out=velL)
    np.subtract(hR, hL, out=velR)
    np.multiply(velR, lam, out=velR)
    np.subtract(velL, velR, out=velL)
    return velL, tL, r8


def _wellbalanced_into(rows, g):
    """Hydrostatic-reconstruction (Audusse) Rusanov flux over bathymetry.

    ``rows`` is ``(12, n)``: rows 0–5 hold the face states as in
    :func:`_rusanov_into`, rows 6–7 the bottom elevations ``(bL, bR)`` of
    the two cells, and rows 8–11 are scratch.  Each side's depth is
    reconstructed to ``h* = max((h + b) − max(bL, bR), 0)`` and its
    momenta to ``h*·(q/h)``; velocities come from the original depths
    (cells stay wet, ``h > 0``).  Every row is consumed: the return is
    ``(f_h, phi_L, phi_R, f_tangent)``, views of rows 5, 10, 11 and 2.
    ``phi_L``/``phi_R`` are the *per-side* effective normal-momentum
    fluxes, the starred-state flux ``fn`` with the starred hydrostatic
    pressure swapped for each side's own, ``phi = (fn − ½·g·h*·h*) +
    ½·g·h·h``.  That is exactly the interface part of the Audusse
    source-term splitting, so the scatter becomes ``dU[L] -= phi_L·fsz;
    dU[R] += phi_R·fsz`` — no separate source loop, and the scheme is well
    balanced by construction.

    Why exactly: at a lake at rest the free surface ``h + b`` is the same
    value on both sides, so the reconstructed depths agree *bitwise*,
    making ``f_h`` and ``f_tangent`` exact zeros and ``fn`` exactly the
    starred pressure.  Each side's ``phi`` then collapses to its own
    ``½·g·h·h`` — computed with the same expression shape everywhere
    (including the reflective-wall flux), so per-cell contributions cancel
    exactly and the state does not move by a single ulp.  The property
    tests assert exactly that.

    Each element goes through the operations of the allocating expression
    form (kept as the oracle in ``tests/reference_impls.py``) in its
    order, relying only on exact IEEE-754 commutativity of ``+``/``*``;
    a row is reused as soon as its value is spent.  ``g`` is a NumPy
    scalar of the compute dtype.
    """
    half = g.dtype.type(0.5)
    zero = g.dtype.type(0)
    hg = half * g  # the (0.5 * g) subterm of the pressure flux
    hL, nL, tL, hR, nR, tR, hsL, hsR, velL, velR, r10, r11 = rows

    np.maximum(hsL, hsR, out=velL)  # bstar, from the bottoms in rows 6-7
    np.add(hL, hsL, out=hsL)
    np.subtract(hsL, velL, out=hsL)
    np.maximum(hsL, zero, out=hsL)
    np.add(hR, hsR, out=hsR)
    np.subtract(hsR, velL, out=hsR)
    np.maximum(hsR, zero, out=hsR)
    np.divide(nL, hL, out=velL)
    np.divide(nR, hR, out=velR)

    # lam = max(|velL| + sqrt(g*hsL), |velR| + sqrt(g*hsR)); nL keeps
    # 0.5*lam (the normal momenta are spent once the velocities exist)
    np.multiply(hsL, g, out=nL)
    np.sqrt(nL, out=nL)  # cL
    np.absolute(velL, out=r10)
    np.add(r10, nL, out=r10)
    np.multiply(hsR, g, out=nL)
    np.sqrt(nL, out=nL)  # cR
    np.absolute(velR, out=r11)
    np.add(r11, nL, out=r11)
    np.maximum(r10, r11, out=nL)
    np.multiply(nL, half, out=nL)
    lam = nL

    # starred momenta: ns = hs*vel in r10/r11, ts = hs*(t/h) in tL/tR
    np.multiply(hsL, velL, out=r10)
    np.multiply(hsR, velR, out=r11)
    np.divide(tL, hL, out=tL)
    np.multiply(tL, hsL, out=tL)
    np.divide(tR, hR, out=tR)
    np.multiply(tR, hsR, out=tR)

    # f_t = 0.5*(tsL*velL + tsR*velR) - (0.5*lam)*(tsR - tsL), into tL
    np.subtract(tR, tL, out=nR)
    np.multiply(nR, lam, out=nR)
    np.multiply(tL, velL, out=tL)
    np.multiply(tR, velR, out=tR)
    np.add(tL, tR, out=tL)
    np.multiply(tL, half, out=tL)
    np.subtract(tL, nR, out=tL)

    # f_h = 0.5*(nsL + nsR) - (0.5*lam)*(hsR - hsL), into tR
    np.add(r10, r11, out=tR)
    np.multiply(tR, half, out=tR)
    np.subtract(hsR, hsL, out=nR)
    np.multiply(nR, lam, out=nR)
    np.subtract(tR, nR, out=tR)

    # fn = 0.5*((nsL*velL + hg*hsL*hsL) + (nsR*velR + hg*hsR*hsR))
    #      - (0.5*lam)*(nsR - nsL), left in r10; velL/velR keep the
    # starred pressures hg*hs*hs for the per-side swap below
    np.subtract(r11, r10, out=nR)
    np.multiply(nR, lam, out=nR)
    np.multiply(r10, velL, out=r10)
    np.multiply(hsL, hg, out=velL)
    np.multiply(velL, hsL, out=velL)
    np.add(r10, velL, out=r10)
    np.multiply(r11, velR, out=r11)
    np.multiply(hsR, hg, out=velR)
    np.multiply(velR, hsR, out=velR)
    np.add(r11, velR, out=r11)
    np.add(r10, r11, out=r10)
    np.multiply(r10, half, out=r10)
    np.subtract(r10, nR, out=r10)

    # phi = (fn - hg*hs*hs) + hg*h*h, R side first (fn lives in r10)
    np.subtract(r10, velR, out=r11)
    np.multiply(hR, hg, out=nR)
    np.multiply(nR, hR, out=nR)
    np.add(r11, nR, out=r11)
    np.subtract(r10, velL, out=r10)
    np.multiply(hL, hg, out=nR)
    np.multiply(nR, hL, out=nR)
    np.add(r10, nR, out=r10)
    return tR, r10, r11, tL


def _face_buffer(
    mesh: AmrMesh, geom: GeometryCache, faces: FaceLists, cdtype: np.dtype, bathy: bool
) -> np.ndarray:
    """The cached face buffer: x faces, then y faces.

    ``(11, nfaces)`` on a flat bottom, the rows :func:`_rusanov_into`
    consumes; ``(12, nfaces)`` over bathymetry, the rows of
    :func:`_wellbalanced_into`.  Rows 0–5 are the six face states ``(hL,
    nL, tL, hR, nR, tR)``, rows 6–7 the two bottoms ``(bL, bR)`` over
    bathymetry, and the rest the flux routine's scratch (MUSCL's
    reconstruction uses rows 8–10 before the flux does).  Between kernel
    calls the buffer holds nothing, so a regrid borrows its bytes
    (:meth:`GeometryCache.borrow`).
    """
    rows = 12 if bathy else 11
    return geom.buffer(mesh, cdtype, _FACE_ARENA, (rows, faces.xl.size + faces.yb.size))


def _face_fluxes(
    faces: FaceLists,
    ncells: int,
    fbuf: np.ndarray,
    bathy: bool,
    dH: np.ndarray,
    dU: np.ndarray,
    dV: np.ndarray,
) -> None:
    """Flux every interior face in ``fbuf`` and scatter, x plan before y plan.

    ``fbuf`` is :func:`_face_buffer`'s: rows 0–5 hold the face states
    ``(hL, nL, tL, hR, nR, tR)`` of the x faces then the y faces, whose
    normal/tangent momenta are V/U (the y-flux is the x-flux under that
    swap); with ``bathy`` rows 6–7 hold the two sides' bottoms and the
    well-balanced flux runs, whose normal momentum scatters sided (each
    side its own ``phi``).  The flux consumes every row.  The
    x-group scatter runs strictly before the y-group one: each ``apply``
    continues exactly where the previous one left the accumulator, which
    is the per-cell accumulation order of the bit contract.
    """
    nxf = faces.xl.size
    g = fbuf.dtype.type(GRAVITY)
    if bathy:
        fh, fnL, fnR, ft = _wellbalanced_into(fbuf, g)
    else:
        fh, fnL, ft = _rusanov_into(fbuf, g)
        fnR = None
    xplan, yplan = faces.scatter_plans(ncells, fbuf.dtype)
    for plan, sl, dN, dT in ((xplan, slice(None, nxf), dU, dV), (yplan, slice(nxf, None), dV, dU)):
        if plan.nfaces:
            plan.apply(dH, fh[sl])
            plan.apply(dN, fnL[sl], None if fnR is None else fnR[sl])
            plan.apply(dT, ft[sl])


def _reflective_walls(
    mesh: AmrMesh,
    geom: GeometryCache,
    faces: FaceLists,
    H: np.ndarray,
    U: np.ndarray,
    V: np.ndarray,
    dH: np.ndarray,
    dU: np.ndarray,
    dV: np.ndarray,
) -> None:
    """Add every reflective-wall flux into ``(dH, dU, dV)``.

    A wall face's flux is the Rusanov flux against the cell's mirror state
    (wall-normal momentum negated), sized by the cell's edge.  One fused
    :func:`_rusanov_into` call covers all four walls; the results are then
    applied side by side, left, right, bottom, top (corner cells sit in
    two sides, so that order is part of the bit contract).  Every CLAMR
    kernel — flat, bathymetry and MUSCL — ends its flux sum here: the
    mirror state shares the cell's bathymetry, and MUSCL's slopes clip to
    zero at a wall, so all three see the same first-order wall flux.
    """
    bcells, (sl_l, sl_r, sl_b, sl_t) = faces.boundary_concat()
    nb = bcells.size
    if nb == 0:
        return
    cdtype = H.dtype
    g = cdtype.type(GRAVITY)
    size, _ = geom.geometry(mesh, cdtype)
    bbuf = geom.buffer(mesh, cdtype, "fd_bnd", (12, nb))
    # the wall sizes: the buffer's last row, written once per generation
    # and face lists; the arena outlives the generation but the derived
    # term does not, so a generation that follows another rewrites the row
    fsz = geom.derived(mesh, ("walls", cdtype), faces, lambda: size.take(bcells, out=bbuf[11], mode="clip"))
    rows = bbuf[:11]
    h, nL, t, hR, nR, tR = rows[:6]
    H.take(bcells, out=h, mode="clip")
    # interior-side wall-normal momentum (U on the left|right walls, V on
    # the bottom|top ones), negated on the low (left/bottom) walls; the
    # mirror operand is its exact negation, and both sides share the
    # cell's depth and tangent momentum
    nx = sl_r.stop
    U.take(bcells[:nx], out=nL[:nx], mode="clip")
    V.take(bcells[nx:], out=nL[nx:], mode="clip")
    V.take(bcells[:nx], out=t[:nx], mode="clip")
    U.take(bcells[nx:], out=t[nx:], mode="clip")
    np.negative(nL[sl_l], out=nL[sl_l])
    np.negative(nL[sl_b], out=nL[sl_b])
    np.negative(nL, out=nR)
    np.copyto(hR, h)
    np.copyto(tR, t)
    fh, fn, ft = _rusanov_into(rows, g)
    for f in (fh, fn, ft):
        np.multiply(f, fsz, out=f)
    for sl, positive, is_x in (
        (sl_l, True, True),
        (sl_r, False, True),
        (sl_b, True, False),
        (sl_t, False, False),
    ):
        if sl.stop == sl.start:
            continue
        c = bcells[sl]
        dn, dt_ = (dU, dV) if is_x else (dV, dU)
        if positive:
            dH[c] += fh[sl]
            dn[c] += fn[sl]
            dt_[c] += ft[sl]
        else:
            dH[c] -= fh[sl]
            dn[c] -= fn[sl]
            dt_[c] -= ft[sl]


def _count_work(
    counters: KernelCounters | None,
    mesh: AmrMesh,
    state: ShallowWaterState,
    faces: FaceLists,
) -> None:
    if counters is None:
        return
    nfaces = faces.nfaces
    ncells = mesh.ncells
    flops = nfaces * FLOPS_PER_FACE + ncells * FLOPS_PER_CELL_UPDATE
    state_itemsize = state.state_dtype.itemsize
    compute_itemsize = state.compute_dtype.itemsize
    # state traffic: read 3 vars per face side + read/write 3 vars per cell
    state_bytes = (2 * nfaces * 3 + 2 * ncells * 3) * state_itemsize
    compute_bytes = nfaces * 6 * compute_itemsize
    counters.add(flops=flops, state_bytes=state_bytes, compute_bytes=compute_bytes)


def _bathy_as(mesh: AmrMesh, bathy: np.ndarray, cdtype: np.dtype) -> np.ndarray:
    """The per-cell bottom as a contiguous ``cdtype`` array, length-checked.

    Every kernel entry point takes its bottom through here: the compiled
    backend indexes it unchecked, so a wrong length must fail before any
    backend reads it.
    """
    bathy = np.asarray(bathy)
    if bathy.shape != (mesh.ncells,):
        raise ValueError(
            f"bathymetry has shape {bathy.shape}; the mesh has {mesh.ncells} cells"
        )
    return np.ascontiguousarray(bathy, dtype=cdtype)


def _check_cells(mesh: AmrMesh, state: ShallowWaterState) -> None:
    """Raise unless ``state`` holds one value per mesh cell.

    The compiled backend indexes the state unchecked, so a wrong length
    must fail, the same way on every backend, before any kernel reads it.
    """
    if state.ncells != mesh.ncells:
        raise ValueError(f"state has {state.ncells} cells; the mesh has {mesh.ncells}")


def _promoted(mesh: AmrMesh, geom: GeometryCache, state: ShallowWaterState) -> tuple[np.ndarray, ...]:
    """``state.promoted()``, a narrower state cast into the generation's
    cached ``(3, ncells)`` buffer rather than into three new arrays."""
    cdtype = state.policy.compute_dtype
    if state.state_dtype == cdtype:
        return state.promoted()
    return state.promoted(geom.buffer(mesh, cdtype, "promoted", (3, mesh.ncells)))


def _dt_over_area(mesh: AmrMesh, geom: GeometryCache, cdtype: np.dtype, dt: float) -> np.ndarray:
    """The per-cell update scale ``dt / area`` in a cached buffer."""
    _, area = geom.geometry(mesh, cdtype)
    return np.divide(cdtype.type(dt), area, out=geom.buffer(mesh, cdtype, "dt_area", (mesh.ncells,)))


def finite_diff_vectorized(
    mesh: AmrMesh,
    state: ShallowWaterState,
    dt: float,
    faces: FaceLists | None = None,
    counters: KernelCounters | None = None,
    geom: GeometryCache | None = None,
    bathy: np.ndarray | None = None,
) -> None:
    """One conservative timestep, NumPy-vectorized; updates state in place.

    Parameters
    ----------
    mesh:
        The AMR mesh (topology only).
    state:
        H/U/V at the policy's state dtype; promoted internally.
    dt:
        Timestep (should come from :func:`compute_timestep`).
    faces:
        Prebuilt face lists; pass when stepping repeatedly on an unchanged
        topology to skip the rebuild (the simulation driver does).
    counters:
        Optional :class:`KernelCounters` receiving this step's work tally.
    geom:
        Geometry/workspace cache; defaults to the process-wide one.
    bathy:
        Optional per-cell bottom elevation, one value per cell.  ``None``
        (the default) is a flat bottom; an array switches the interior
        faces to the well-balanced hydrostatic-reconstruction flux
        (:func:`_wellbalanced_into`).
    """
    if faces is None:
        faces = FaceLists.from_mesh(mesh)
    if geom is None:
        geom = _DEFAULT_GEOMETRY_CACHE
    _check_cells(mesh, state)
    cdtype = state.policy.compute_dtype
    b = None if bathy is None else _bathy_as(mesh, bathy, cdtype)
    H, U, V = _promoted(mesh, geom, state)
    rates = _bridge.try_clamr_rhs(mesh, H, U, V, faces, cdtype, geom, "fd", b, False)
    if rates is None:
        rates = dH, dU, dV = geom.workspace3(mesh, cdtype, slot="fd")
        # one flux pass over ALL interior faces: the cell states gather
        # straight into the cached face buffer, x faces then y faces, so
        # the hot loop allocates nothing per step
        fbuf = _face_buffer(mesh, geom, faces, cdtype, b is not None)
        nxf = faces.xl.size
        for xc, yc, rows in ((faces.xl, faces.yb, (0, 1, 2, 6)), (faces.xr, faces.yt, (3, 4, 5, 7))):
            for row, xsrc, ysrc in zip(rows, (H, U, V, b), (H, V, U, b)):
                if xsrc is not None:
                    np.take(xsrc, xc, out=fbuf[row, :nxf], mode="clip")
                    np.take(ysrc, yc, out=fbuf[row, nxf:], mode="clip")
        _face_fluxes(faces, mesh.ncells, fbuf, b is not None, dH, dU, dV)
        _reflective_walls(mesh, geom, faces, H, U, V, dH, dU, dV)
    dH, dU, dV = rates

    # in-place d*scale + H: addition commutes exactly, so accumulating
    # into the workspace matches H + d*scale bit for bit
    scale = _dt_over_area(mesh, geom, cdtype, dt)
    np.multiply(dH, scale, out=dH)
    np.add(dH, H, out=dH)
    np.multiply(dU, scale, out=dU)
    np.add(dU, U, out=dU)
    np.multiply(dV, scale, out=dV)
    np.add(dV, V, out=dV)
    state.store(dH, dU, dV)
    _count_work(counters, mesh, state, faces)


def wave_speed(state: ShallowWaterState, out: np.ndarray | None = None) -> np.ndarray:
    """Per-cell signal speed ``max(|U|, |V|) / h + sqrt(g·h)``.

    Computed on the promoted state in the policy's compute dtype, with
    ``h`` clamped at a tiny positive floor so momentum in a near-empty
    cell cannot produce an absurd velocity.  The CFL timestep and the
    flight recorder's realized-CFL sample both read it.  ``out`` is a
    ``(3, ncells)`` compute-dtype scratch buffer (a new one when omitted);
    the speeds land in its second row, which is returned.
    """
    cdtype = state.policy.compute_dtype
    if out is None:
        out = np.empty((3, state.ncells), dtype=cdtype)
    h, speed, tmp = out
    # a narrower state is promoted into these same rows (a ufunc casting
    # its operand itself would stage it through an allocated buffer)
    H, U, V = state.promoted(out)
    np.maximum(H, cdtype.type(1e-12), out=h)
    np.absolute(U, out=speed)
    np.absolute(V, out=tmp)
    np.maximum(speed, tmp, out=speed)
    np.divide(speed, h, out=speed)  # vel
    np.multiply(h, cdtype.type(GRAVITY), out=h)
    np.sqrt(h, out=h)
    np.add(speed, h, out=speed)
    return speed


def compute_timestep(
    mesh: AmrMesh,
    state: ShallowWaterState,
    courant: float = 0.25,
    counters: KernelCounters | None = None,
    geom: GeometryCache | None = None,
) -> float:
    """Courant-limited timestep over all cells.

    ``dt = courant · min(cell_size / (|velocity| + gravity_wave_speed))``,
    reduced in the policy's *accumulate* dtype and returned as a Python
    float.  Dry-guarding clamps H at a tiny positive floor so momentum in a
    near-empty cell cannot produce an absurd velocity.  The speeds and
    their quotients go through the generation's cached scratch.
    """
    if not 0.0 < courant < 1.0:
        raise ValueError("courant must be in (0, 1)")
    if geom is None:
        geom = _DEFAULT_GEOMETRY_CACHE
    cdtype = state.policy.compute_dtype
    size, _ = geom.geometry(mesh, cdtype)
    local_dt = wave_speed(state, out=geom.buffer(mesh, cdtype, "cfl", (3, mesh.ncells)))
    np.divide(size, local_dt, out=local_dt)
    dt = float(local_dt.min()) * courant
    if counters is not None:
        counters.add(
            flops=mesh.ncells * FLOPS_PER_CELL_TIMESTEP,
            state_bytes=3 * mesh.ncells * state.state_dtype.itemsize,
        )
    return dt
