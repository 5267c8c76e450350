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
selected by ``ClamrSimulation(vectorized=False)``): a loop over NumPy
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
from collections import OrderedDict
from dataclasses import dataclass

import numpy as np

from repro.clamr.mesh import AmrMesh
from repro.clamr.state import GRAVITY, ShallowWaterState
from repro.machine.counters import KernelCounters

# imported late in this module's functions would cost a dict lookup per
# step; bound once here. backends deliberately imports nothing from this
# module, so the edge is acyclic.
from repro.clamr import backends as _backends

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


try:  # compiled CSR kernels; optional — ScatterPlan falls back to np.add.at
    from scipy.sparse import _sparsetools as _scipy_sparsetools
except Exception:  # pragma: no cover - exercised on scipy-less installs
    _scipy_sparsetools = None

#: compute dtypes the compiled CSR matvec is instantiated for
_CSR_DTYPES = (np.dtype(np.float32), np.dtype(np.float64))


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
    Without scipy a stable ``argsort`` of the rows builds the same arrays.

    The sided form ``apply(acc, flux, high_flux)`` scatters a different
    flux to each side, ``acc[low] -= flux·fsz; acc[high] += high_flux·fsz``
    — the well-balanced bathymetry kernels need it, because each side's
    normal-momentum flux carries that side's own hydrostatic pressure.  It
    runs the same rows over the stacked vector ``[flux; high_flux]``, with
    each high-side entry's column shifted by ``nfaces`` (face sizes are
    positive, so an entry's side is the sign of its stored ``±fsz``).  The
    rows keep their order — low entries in face order, then high entries
    in face order — so the sided matvec replays the ``np.add.at`` pair with
    ``high_flux`` on the high side, bit for bit.

    Without scipy, for a dtype its compiled kernels don't cover, or under
    ``scatter_mode("add_at")``, ``apply`` runs the original ``np.add.at``
    pair, which produces the same bits by construction — so results never
    depend on which path ran.
    """

    def __init__(self, low: np.ndarray, high: np.ndarray, sizes: np.ndarray, ncells: int) -> None:
        self.ncells = int(ncells)
        self.nfaces = int(low.size)
        self.low = low.astype(np.int64, copy=False)
        self.high = high.astype(np.int64, copy=False)
        self.sizes64 = np.asarray(sizes, dtype=np.float64)
        nnz = 2 * self.nfaces
        rows = np.concatenate([self.low, self.high]).astype(np.int32)
        signed = np.concatenate([-self.sizes64, self.sizes64])
        self.indptr = np.empty(self.ncells + 1, dtype=np.int32)
        if _scipy_sparsetools is not None:
            faces = np.arange(self.nfaces, dtype=np.int32)
            self.cols = np.empty(nnz, dtype=np.int32)
            #: ±fsz per stored entry, in per-cell add.at order (float64 master)
            self.signed64 = np.empty(nnz, dtype=np.float64)
            _scipy_sparsetools.coo_tocsr(
                self.ncells, self.nfaces, nnz, rows, np.concatenate([faces, faces]),
                signed, self.indptr, self.cols, self.signed64,
            )
        else:
            order = np.argsort(rows, kind="stable")
            self.indptr[0] = 0
            np.cumsum(np.bincount(rows, minlength=self.ncells), out=self.indptr[1:])
            self.cols = np.where(order < self.nfaces, order, order - self.nfaces).astype(np.int32)
            self.signed64 = signed[order]
        self._signed_casts: dict[np.dtype, np.ndarray] = {}
        self._size_casts: dict[np.dtype, np.ndarray] = {}
        self._sided: np.ndarray | None = None

    def _signed(self, cdtype: np.dtype) -> np.ndarray:
        cast = self._signed_casts.get(cdtype)
        if cast is None:
            # (±fsz64).astype(c) == ±(fsz64.astype(c)): negation commutes
            # exactly with the rounding of a dtype cast
            cast = self.signed64.astype(cdtype)
            self._signed_casts[cdtype] = cast
        return cast

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
            self._sided = self.cols + np.int32(self.nfaces) * (self.signed64 > 0)
        return self._sided

    def apply(self, acc: np.ndarray, flux: np.ndarray, high_flux: np.ndarray | None = None) -> None:
        """``acc[low] -= flux·fsz; acc[high] += high_flux·fsz``, add.at-bit-exact.

        ``high_flux`` defaults to ``flux`` (the antisymmetric scatter).
        """
        cdtype = acc.dtype
        if (
            _SCATTER_MODE == "plan"
            and _scipy_sparsetools is not None
            and cdtype in _CSR_DTYPES
        ):
            if high_flux is None:
                cols, ncols, x = self.cols, self.nfaces, flux
            else:
                cols, ncols, x = self._sided_cols(), 2 * self.nfaces, np.concatenate([flux, high_flux])
            _scipy_sparsetools.csr_matvec(
                self.ncells, ncols, self.indptr, cols, self._signed(cdtype), x, acc,
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
    """Topology-generation-keyed cache of cast geometry and scratch buffers.

    ``cell_size``/``cell_area`` are pure functions of the mesh topology, yet
    the kernels used to recompute and re-cast them on every step — per-step
    allocation and cast churn on arrays that only change on regrid.  This
    cache keys everything on ``mesh.generation`` (unique per constructed
    mesh, see :class:`repro.clamr.mesh.AmrMesh`), so entries are invalidated
    exactly when a regrid produces a new mesh.  A small LRU bound keeps the
    rollback/recovery paths (which hop between old and new meshes) from
    growing the cache without limit.

    Also hands out reusable zeroed ``(3, ncells)`` accumulator workspaces per
    (dtype, slot); slots keep MUSCL's two Heun stages from aliasing each
    other's live ``k1``/``k2`` arrays.  Scratch (workspaces and
    :meth:`buffer` arrays) is held for one generation only — the one that
    last asked for it, i.e. the mesh being stepped: asking for another
    generation's scratch drops every other generation's.  Scratch contents
    are undefined (workspaces are zeroed on every hand-out), so a mesh
    stepped again after a rollback gets fresh buffers and the same bits.

    Topology-only terms derived from the stepped generation — gather
    indices, spacings, wall sizes (:meth:`derived`) — are held with its
    scratch: built the first time the generation is stepped and dropped
    with the scratch.  Forward stepping builds each generation's terms
    once either way; a rollback rebuilds the older generation's, and no
    term is ever read for a generation other than the one it was built
    from.
    """

    def __init__(self, capacity: int = 4) -> None:
        if capacity < 1:
            raise ValueError("capacity must be at least 1")
        self.capacity = capacity
        self._entries: OrderedDict[int, dict] = OrderedDict()
        self._work_gen: int | None = None

    def _entry(self, mesh: AmrMesh) -> dict:
        gen = mesh.generation
        entry = self._entries.get(gen)
        if entry is None:
            size64 = mesh.cell_size()
            entry = {"size64": size64, "area64": size64 * size64, "casts": {}, "work": {}, "derived": {}}
            self._entries[gen] = entry
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)
        else:
            self._entries.move_to_end(gen)
        return entry

    def geometry(self, mesh: AmrMesh, cdtype: np.dtype) -> tuple[np.ndarray, np.ndarray]:
        """(cell_size, cell_area) cast to the compute dtype, cached.

        The returned arrays are shared — callers must treat them as
        read-only (the kernels only ever gather from them).
        """
        entry = self._entry(mesh)
        cast = entry["casts"].get(cdtype)
        if cast is None:
            if cdtype == np.float64:
                cast = (entry["size64"], entry["area64"])
            else:
                cast = (entry["size64"].astype(cdtype), entry["area64"].astype(cdtype))
            entry["casts"][cdtype] = cast
        return cast

    def derived(self, mesh: AmrMesh, key: tuple, owner: object, build):
        """The topology-only terms ``build()`` returns for ``mesh``, built once.

        Held with the generation's scratch under ``key``, together with
        ``owner``, the object the terms were built from (the face lists, or
        the cell sizes the caller passed): a request naming a different
        owner rebuilds them, so terms built for one set of face lists are
        never read with another (a halo rank steps the same mesh on masked
        face lists).  The arrays are shared and read-only.
        """
        terms = self._work(mesh, "derived")
        hit = terms.get(key)
        if hit is None or hit[0] is not owner:
            hit = terms[key] = (owner, build())
        return hit[1]

    def _work(self, mesh: AmrMesh, part: str = "work") -> dict:
        """The scratch (or derived-term) dict of ``mesh``'s generation,
        the only generation whose scratch and derived terms are kept."""
        entry = self._entry(mesh)
        if self._work_gen != mesh.generation:
            for other in self._entries.values():
                other["work"] = {}
                other["derived"] = {}
            self._work_gen = mesh.generation
        return entry[part]

    def workspace3(self, mesh: AmrMesh, cdtype: np.dtype, slot: str = "fd") -> np.ndarray:
        """A zeroed ``(3, ncells)`` accumulator buffer, reused across steps."""
        work = self._work(mesh)
        key = (cdtype, slot)
        buf = work.get(key)
        if buf is None:
            buf = np.zeros((3, mesh.ncells), dtype=cdtype)
            work[key] = buf
        else:
            buf.fill(0)
        return buf

    def buffer(self, mesh: AmrMesh, cdtype: np.dtype, name: str, shape: tuple[int, ...]) -> np.ndarray:
        """A reusable scratch array keyed (dtype, name); contents undefined.

        Unlike :meth:`workspace3` the buffer is *not* zeroed — callers must
        overwrite every element they read back (the kernels use these for
        gather targets and flux temporaries, which are fully written each
        step).
        """
        work = self._work(mesh)
        key = (cdtype, name)
        buf = work.get(key)
        if buf is None or buf.shape != shape:
            buf = np.empty(shape, dtype=cdtype)
            work[key] = buf
        return buf


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
    def from_mesh(cls, mesh: AmrMesh) -> "FaceLists":
        built = _backends.try_face_lists(mesh)
        if built is not None:
            fields, bcells, slices = built
            faces = cls(**fields)
            object.__setattr__(faces, "_bnd_concat", (bcells, slices))
            return faces
        cells = np.arange(mesh.ncells, dtype=mesh.nlft.dtype)
        level = mesh.level
        size = mesh.cell_size()

        def interior(fwd: np.ndarray, back: np.ndarray):
            # (low cells, high cells, sizes) of one axis's interior faces;
            # cell indices come out int64 (flatnonzero's intp, and the
            # concatenate promotes the int32 neighbor gathers to it)
            own_fwd = np.flatnonzero((fwd != cells) & (np.take(level, fwd) <= level))
            own_back = np.flatnonzero((back != cells) & (np.take(level, back) < level))
            return (
                np.concatenate([own_fwd, np.take(back, own_back)]),
                np.concatenate([np.take(fwd, own_fwd), own_back]),
                np.concatenate([np.take(size, own_fwd), np.take(size, own_back)]),
            )

        xl, xr, xsize = interior(mesh.nrht, mesh.nlft)
        yb, yt, ysize = interior(mesh.ntop, mesh.nbot)
        return cls(
            xl=xl,
            xr=xr,
            xsize=xsize,
            yb=yb,
            yt=yt,
            ysize=ysize,
            bnd_left=np.flatnonzero(mesh.nlft == cells),
            bnd_right=np.flatnonzero(mesh.nrht == cells),
            bnd_bottom=np.flatnonzero(mesh.nbot == cells),
            bnd_top=np.flatnonzero(mesh.ntop == cells),
        )

    @property
    def nfaces(self) -> int:
        boundary = self.bnd_left.size + self.bnd_right.size + self.bnd_bottom.size + self.bnd_top.size
        return int(self.xl.size + self.yb.size + boundary)

    def scatter_plans(self, ncells: int) -> tuple[ScatterPlan, ScatterPlan]:
        """(x-plan, y-plan) for this topology, built once and memoized.

        The x and y face groups keep separate plans (and separate
        applications in the kernel) because the original code scattered all
        x-face contributions before any y-face ones — fusing them would
        change per-cell accumulation order and therefore bits.
        """
        cached = getattr(self, "_plans", None)
        if cached is None or cached[0] != ncells:
            plans = (
                ScatterPlan(self.xl, self.xr, self.xsize, ncells),
                ScatterPlan(self.yb, self.yt, self.ysize, ncells),
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


def _rusanov_into(hL, nL, tL, hR, nR, tR, g, out, tmp):
    """Rusanov flux in +x into preallocated buffers.

    Inputs are conserved face states: ``h`` the depth, ``n``/``t`` the
    face-*normal* and face-*tangent* momenta (for x-faces that is U/V; for
    y-faces V/U — by symmetry the y-flux is the x-flux under that swap).
    With ``vel = n/h``, ``c = sqrt(g·h)`` and ``lam = max(|velL| + cL,
    |velR| + cR)`` each flux is ``½(fL + fR) − ½·lam·(qR − qL)``, where
    ``f`` is ``n`` for the depth, ``n·vel + ½·g·h·h`` for the normal and
    ``t·vel`` for the tangent momentum.  ``out`` is ``(3, n)`` receiving
    ``(f_h, f_normal, f_tangent)``; ``tmp`` is ``(6, n)`` scratch.  The
    operations replay the allocating expression form (kept as the oracle
    in ``tests/reference_impls.py``) in its order, relying only on exact
    IEEE-754 commutativity of ``+``/``*``, so the bits are the same.
    Inputs may alias each other (they are only read); they must not alias
    ``out``/``tmp``.
    """
    half = g.dtype.type(0.5)
    hg = half * g  # the (0.5 * g) subterm of the pressure flux
    velL, velR, t2, t3, t4, t5 = tmp
    fh, fn, ft = out

    np.divide(nL, hL, out=velL)
    np.divide(nR, hR, out=velR)
    np.multiply(hL, g, out=t2)
    np.sqrt(t2, out=t2)  # cL
    np.multiply(hR, g, out=t3)
    np.sqrt(t3, out=t3)  # cR
    np.absolute(velL, out=t4)
    np.add(t4, t2, out=t4)  # |velL| + cL
    np.absolute(velR, out=t5)
    np.add(t5, t3, out=t5)  # |velR| + cR
    np.maximum(t4, t5, out=t2)  # lam
    np.multiply(t2, half, out=t2)  # 0.5*lam, reused by all three fluxes

    # f_h = 0.5*(nL + nR) - (0.5*lam)*(hR - hL)
    np.add(nL, nR, out=fh)
    np.multiply(fh, half, out=fh)
    np.subtract(hR, hL, out=t3)
    np.multiply(t3, t2, out=t3)
    np.subtract(fh, t3, out=fh)

    # f_n = 0.5*((nL*velL + hg*hL*hL) + (nR*velR + hg*hR*hR)) - (0.5*lam)*(nR - nL)
    np.multiply(nL, velL, out=t4)
    np.multiply(hL, hg, out=t5)
    np.multiply(t5, hL, out=t5)
    np.add(t4, t5, out=t4)  # momentum flux, L side
    np.multiply(nR, velR, out=t5)
    np.multiply(hR, hg, out=fn)
    np.multiply(fn, hR, out=fn)
    np.add(t5, fn, out=t5)  # momentum flux, R side
    np.add(t4, t5, out=fn)
    np.multiply(fn, half, out=fn)
    np.subtract(nR, nL, out=t4)
    np.multiply(t4, t2, out=t4)
    np.subtract(fn, t4, out=fn)

    # f_t = 0.5*(tL*velL + tR*velR) - (0.5*lam)*(tR - tL)
    np.multiply(tL, velL, out=t4)
    np.multiply(tR, velR, out=t5)
    np.add(t4, t5, out=ft)
    np.multiply(ft, half, out=ft)
    np.subtract(tR, tL, out=t4)
    np.multiply(t4, t2, out=t4)
    np.subtract(ft, t4, out=ft)


def _wellbalanced_into(hL, nL, tL, hR, nR, tR, bL, bR, g, out, tmp):
    """Hydrostatic-reconstruction (Audusse) Rusanov flux over bathymetry.

    ``h``/``n``/``t`` are the face states as in :func:`_rusanov_into`,
    ``bL``/``bR`` the bottom elevations of the two cells.  Each side's
    depth is reconstructed to ``h* = max((h + b) − max(bL, bR), 0)`` and
    its momenta to ``h*·(q/h)``; velocities come from the original depths
    (cells stay wet, ``h > 0``).  ``out`` is ``(4, n)`` receiving ``(f_h,
    phi_L, phi_R, f_tangent)``: ``phi_L``/``phi_R`` are the *per-side*
    effective normal-momentum fluxes, the starred-state flux ``fn`` with
    the starred hydrostatic pressure swapped for each side's own, ``phi =
    (fn − ½·g·h*·h*) + ½·g·h·h``.  That is exactly the interface part of
    the Audusse source-term splitting, so the scatter becomes ``dU[L] -=
    phi_L·fsz; dU[R] += phi_R·fsz`` — no separate source loop, and the
    scheme is well balanced by construction.

    Why exactly: at a lake at rest the free surface ``h + b`` is the same
    value on both sides, so the reconstructed depths agree *bitwise*,
    making ``f_h`` and ``f_tangent`` exact zeros and ``fn`` exactly the
    starred pressure.  Each side's ``phi`` then collapses to its own
    ``½·g·h·h`` — computed with the same expression shape everywhere
    (including the reflective-wall flux), so per-cell contributions cancel
    exactly and the state does not move by a single ulp.  The property
    tests assert exactly that.

    ``tmp`` is ``(4, n)`` scratch, and ``bL``/``bR`` are consumed as two
    more scratch rows; the other inputs are only read and must not alias
    ``out``/``tmp``/``bL``/``bR``.  The operations replay the allocating
    expression form (kept as the oracle in ``tests/reference_impls.py``)
    in its order, relying only on exact IEEE-754 commutativity of
    ``+``/``*``.  ``g`` is a NumPy scalar of the compute dtype.
    """
    half = g.dtype.type(0.5)
    zero = g.dtype.type(0)
    hg = half * g  # the (0.5 * g) subterm of the pressure flux
    hsL, hsR, velL, velR = tmp
    fh, phiL, phiR, ft = out

    np.maximum(bL, bR, out=fh)  # bstar
    np.add(hL, bL, out=hsL)
    np.subtract(hsL, fh, out=hsL)
    np.maximum(hsL, zero, out=hsL)
    np.add(hR, bR, out=hsR)
    np.subtract(hsR, fh, out=hsR)
    np.maximum(hsR, zero, out=hsR)
    np.divide(nL, hL, out=velL)
    np.divide(nR, hR, out=velR)

    # lam = max(|velL| + sqrt(g*hsL), |velR| + sqrt(g*hsR)); bL keeps 0.5*lam
    np.multiply(hsL, g, out=bL)
    np.sqrt(bL, out=bL)  # cL
    np.absolute(velL, out=fh)
    np.add(fh, bL, out=fh)
    np.multiply(hsR, g, out=bL)
    np.sqrt(bL, out=bL)  # cR
    np.absolute(velR, out=bR)
    np.add(bR, bL, out=bR)
    np.maximum(fh, bR, out=bL)
    np.multiply(bL, half, out=bL)

    # starred momenta: ns = hs*vel in phiL/phiR, ts = hs*(t/h) in ft/fh
    np.multiply(hsL, velL, out=phiL)
    np.multiply(hsR, velR, out=phiR)
    np.divide(tL, hL, out=ft)
    np.multiply(ft, hsL, out=ft)
    np.divide(tR, hR, out=fh)
    np.multiply(fh, hsR, out=fh)

    # f_t = 0.5*(tsL*velL + tsR*velR) - (0.5*lam)*(tsR - tsL)
    np.subtract(fh, ft, out=bR)
    np.multiply(bR, bL, out=bR)
    np.multiply(ft, velL, out=ft)
    np.multiply(fh, velR, out=fh)
    np.add(ft, fh, out=ft)
    np.multiply(ft, half, out=ft)
    np.subtract(ft, bR, out=ft)

    # f_h = 0.5*(nsL + nsR) - (0.5*lam)*(hsR - hsL)
    np.add(phiL, phiR, out=fh)
    np.multiply(fh, half, out=fh)
    np.subtract(hsR, hsL, out=bR)
    np.multiply(bR, bL, out=bR)
    np.subtract(fh, bR, out=fh)

    # fn = 0.5*((nsL*velL + hg*hsL*hsL) + (nsR*velR + hg*hsR*hsR))
    #      - (0.5*lam)*(nsR - nsL), left in phiL; velL/velR keep the
    # starred pressures hg*hs*hs for the per-side swap below
    np.subtract(phiR, phiL, out=bR)
    np.multiply(bR, bL, out=bR)
    np.multiply(phiL, velL, out=phiL)
    np.multiply(hsL, hg, out=velL)
    np.multiply(velL, hsL, out=velL)
    np.add(phiL, velL, out=phiL)
    np.multiply(phiR, velR, out=phiR)
    np.multiply(hsR, hg, out=velR)
    np.multiply(velR, hsR, out=velR)
    np.add(phiR, velR, out=phiR)
    np.add(phiL, phiR, out=phiL)
    np.multiply(phiL, half, out=phiL)
    np.subtract(phiL, bR, out=phiL)

    # phi = (fn - hg*hs*hs) + hg*h*h, R side first (fn lives in phiL)
    np.subtract(phiL, velR, out=phiR)
    np.multiply(hR, hg, out=bR)
    np.multiply(bR, hR, out=bR)
    np.add(phiR, bR, out=phiR)
    np.subtract(phiL, velL, out=phiL)
    np.multiply(hL, hg, out=bR)
    np.multiply(bR, hL, out=bR)
    np.add(phiL, bR, out=phiL)


def _face_buffer(mesh: AmrMesh, geom: GeometryCache, faces: FaceLists, cdtype: np.dtype) -> np.ndarray:
    """The cached ``(16, nfaces)`` face buffer: x faces, then y faces.

    Rows: the six face states ``(hL, nL, tL, hR, nR, tR)``, then the flux
    routine's rows — the Rusanov flux's 3 outputs and 6 scratch rows, or
    the two bottoms ``(bL, bR)`` and the well-balanced flux's 4 outputs
    and 4 scratch rows.  One buffer sized for the larger of the two, so
    no mesh generation the cache keeps holds a second one.
    """
    return geom.buffer(mesh, cdtype, "fd_faces", (16, faces.xl.size + faces.yb.size))


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

    ``fbuf`` rows 0–5 hold the face states ``(hL, nL, tL, hR, nR, tR)``
    of the x faces then the y faces, whose normal/tangent momenta are V/U
    (the y-flux is the x-flux under that swap); with ``bathy`` rows 6–7
    hold the two sides' bottoms and the well-balanced flux runs, whose
    normal momentum scatters sided (each side its own ``phi``).  The
    x-group scatter runs strictly before the y-group one: each ``apply``
    continues exactly where the previous one left the accumulator, which
    is the per-cell accumulation order of the bit contract.
    """
    nxf = faces.xl.size
    g = fbuf.dtype.type(GRAVITY)
    hL, nL, tL, hR, nR, tR = fbuf[:6]
    if bathy:
        _wellbalanced_into(hL, nL, tL, hR, nR, tR, fbuf[6], fbuf[7], g, fbuf[8:12], fbuf[12:16])
        fh, fnL, fnR, ft = fbuf[8:12]
    else:
        _rusanov_into(hL, nL, tL, hR, nR, tR, g, fbuf[6:9], fbuf[9:15])
        fh, fnL, ft = fbuf[6:9]
        fnR = None
    xplan, yplan = faces.scatter_plans(ncells)
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
    bbuf = geom.buffer(mesh, cdtype, "fd_bnd", (14, nb))
    # the wall sizes: the buffer's last row, written once per generation
    # and face lists (the buffer and the derived terms are dropped together)
    fsz = geom.derived(mesh, ("walls", cdtype), faces, lambda: size.take(bcells, out=bbuf[13], mode="clip"))
    h, nL, nR, t = bbuf[:4]
    out = bbuf[4:7]
    tmp = bbuf[7:13]
    H.take(bcells, out=h, mode="clip")
    # interior-side wall-normal momentum (U on the left|right walls, V on
    # the bottom|top ones), negated on the low (left/bottom) walls; the
    # mirror operand is its exact negation
    nx = sl_r.stop
    U.take(bcells[:nx], out=nL[:nx], mode="clip")
    V.take(bcells[nx:], out=nL[nx:], mode="clip")
    V.take(bcells[:nx], out=t[:nx], mode="clip")
    U.take(bcells[nx:], out=t[nx:], mode="clip")
    np.negative(nL[sl_l], out=nL[sl_l])
    np.negative(nL[sl_b], out=nL[sl_b])
    np.negative(nL, out=nR)
    _rusanov_into(h, nL, t, h, nR, t, g, out, tmp)
    np.multiply(out, fsz, out=out)
    fh, fn, ft = out
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
    H, U, V = state.promoted()
    rates = _backends.try_clamr_rhs(mesh, H, U, V, faces, cdtype, geom, "fd", b, False)
    if rates is None:
        rates = dH, dU, dV = geom.workspace3(mesh, cdtype, slot="fd")
        # one flux pass over ALL interior faces: the cell states gather
        # straight into the cached face buffer, x faces then y faces, so
        # the hot loop allocates nothing per step
        fbuf = _face_buffer(mesh, geom, faces, cdtype)
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
    _, area = geom.geometry(mesh, cdtype)
    scale = cdtype.type(dt) / area
    np.multiply(dH, scale, out=dH)
    np.add(dH, H, out=dH)
    np.multiply(dU, scale, out=dU)
    np.add(dU, U, out=dU)
    np.multiply(dV, scale, out=dV)
    np.add(dV, V, out=dV)
    state.store(dH, dU, dV)
    _count_work(counters, mesh, state, faces)


def wave_speed(state: ShallowWaterState) -> np.ndarray:
    """Per-cell signal speed ``max(|U|, |V|) / h + sqrt(g·h)``.

    Computed on the promoted state in the policy's compute dtype, with
    ``h`` clamped at a tiny positive floor so momentum in a near-empty
    cell cannot produce an absurd velocity.  The CFL timestep and the
    flight recorder's realized-CFL sample both read it.
    """
    cdtype = state.policy.compute_dtype
    H, U, V = state.promoted()
    h = np.maximum(H, cdtype.type(1e-12))
    vel = np.maximum(np.abs(U), np.abs(V)) / h
    return vel + np.sqrt(cdtype.type(GRAVITY) * h)


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
    near-empty cell cannot produce an absurd velocity.
    """
    if not 0.0 < courant < 1.0:
        raise ValueError("courant must be in (0, 1)")
    if geom is None:
        geom = _DEFAULT_GEOMETRY_CACHE
    size, _ = geom.geometry(mesh, state.policy.compute_dtype)
    local_dt = size / wave_speed(state)
    dt = float(local_dt.min()) * courant
    if counters is not None:
        counters.add(
            flops=mesh.ncells * FLOPS_PER_CELL_TIMESTEP,
            state_bytes=3 * mesh.ncells * state.state_dtype.itemsize,
        )
    return dt
