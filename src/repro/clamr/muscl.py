"""Second-order MUSCL kernel for the CLAMR shallow-water solver.

The production CLAMR scheme is second-order (Lax-Wendroff-type with wave
limiters); the first-order Rusanov kernel in :mod:`repro.clamr.kernels`
is deliberately diffusive.  This module adds the standard second-order
upgrade — **M**onotonic **U**pstream-centered **S**cheme for
**C**onservation **L**aws:

1. per-cell, per-direction *limited slopes* of each conserved variable
   (minmod of the one-sided divided differences over the stored AMR
   neighbors; boundaries and coarse-fine faces degrade gracefully to
   first order);
2. face states reconstructed from each side's slope to the shared face
   plane;
3. the same Rusanov flux on the reconstructed states;
4. Heun's method (two-stage RK2) in time, so the scheme is second order
   in space *and* time.

Why it matters for the precision study: truncation error drops from
O(Δx) to O(Δx²), which moves the crossover where float32 rounding starts
to matter — the `bench_ablation_order` benchmark quantifies exactly that
(reduced precision costs *more* accuracy, relatively, under a more
accurate scheme).

Precision handling is identical to the first-order kernel: promote state
to the policy's compute dtype, do all reconstruction/flux arithmetic
there, demote on store.
"""

from __future__ import annotations

import numpy as np

from repro.clamr import backends as _backends
from repro.clamr.backends import bridge as _bridge
from repro.clamr.kernels import (
    FLOPS_PER_CELL_UPDATE,
    FLOPS_PER_FACE,
    FaceLists,
    GeometryCache,
    _bathy_as,
    _check_cells,
    _dt_over_area,
    _face_buffer,
    _face_fluxes,
    _promoted,
    _reflective_walls,
    geometry_cache,
)
from repro.clamr.mesh import AmrMesh
from repro.clamr.state import ShallowWaterState
from repro.machine.counters import KernelCounters

__all__ = ["minmod", "limited_slopes", "muscl_rhs", "finite_diff_muscl", "FLOPS_PER_FACE_MUSCL"]

#: reconstruction roughly doubles the per-face arithmetic
FLOPS_PER_FACE_MUSCL = 2 * FLOPS_PER_FACE
#: slope computation per cell per direction per variable
FLOPS_PER_CELL_SLOPES = 36


def minmod(
    a: np.ndarray,
    b: np.ndarray,
    out: np.ndarray | None = None,
    scratch: tuple[np.ndarray, np.ndarray] | None = None,
) -> np.ndarray:
    """The minmod limiter: the smaller-magnitude argument when signs agree,
    zero otherwise.  Vectorized, dtype-preserving.

    Each element is ``where(a*b > 0, where(|a| < |b|, a, b), 0)``.
    ``out`` receives the result and may be ``b``; ``scratch`` is a float
    array of the result's shape and a bool array of three times it
    (stacked on a new first axis), so a call given both allocates nothing.
    """
    if out is None:
        out = np.empty(np.broadcast_shapes(np.shape(a), np.shape(b)), np.result_type(a, b))
    if scratch is None:
        scratch = (np.empty_like(out), np.empty((3,) + out.shape, bool))
    prod, (same_sign, smaller, negative) = scratch
    np.multiply(a, b, out=prod)
    np.greater(prod, 0, out=same_sign)
    # where the signs agree neither argument is zero or NaN, so |a| < |b|
    # is a < b for positive and a > b for negative arguments (a == b has
    # one bit pattern, so either pick is the same)
    np.less(a, b, out=smaller)
    np.less(a, 0, out=negative)
    np.logical_xor(smaller, negative, out=smaller)
    if out is not b:
        np.copyto(out, b)
    np.copyto(out, a, where=smaller)
    np.logical_not(same_sign, out=same_sign)
    np.copyto(out, out.dtype.type(0), where=same_sign)
    return out


def _slope_terms(mesh: AmrMesh, size: np.ndarray, nq: int) -> tuple[np.ndarray, np.ndarray]:
    """``(nbr, dx)``: each cell's neighbors and the spacings to them.

    ``nbr[s, d]`` is the lower (``s`` = 0: left/bottom) or upper (1:
    right/top) neighbor in direction ``d`` (x, y); ``dx[s, d]`` is
    ``half·(size + size[nbr[s, d]])``, repeated for the ``nq`` stacked
    quantities so every division runs over equal shapes.
    """
    half = size.dtype.type(0.5)
    nbr = np.array([[mesh.nlft, mesh.nbot], [mesh.nrht, mesh.ntop]], dtype=np.intp)
    dx = half * (size + size[nbr])
    return nbr, np.broadcast_to(dx[:, :, None, :], (2, 2, nq, mesh.ncells)).copy()


def limited_slopes(
    mesh: AmrMesh,
    q: np.ndarray,
    size: np.ndarray,
    geom: GeometryCache | None = None,
    out: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Per-cell minmod slopes in x and y of one quantity or a stack of them.

    ``q`` is ``(ncells,)`` or ``(nq, ncells)``; the result ``(sx, sy)``
    has q's shape, as the two halves of one ``(2, nq, ncells)`` array —
    ``[x | y][quantity][cell]`` — which is ``out`` when given.  All
    quantities and both directions share one division and one
    :func:`minmod` pass per side.

    One-sided divided differences are taken against the stored neighbors.
    A boundary side links a cell to itself: its difference ``q - q`` is
    +0 (NaN for a non-finite ``q``) and minmod clips either to +0, the
    first-order fallback, exactly as an explicit zero difference would.
    At coarse-fine faces the stored (lower/left) fine neighbor stands in
    for the face average; the limiter bounds any error this introduces by
    the neighboring differences.

    ``size`` is the mesh's cell sizes: the neighbor lists and spacings
    derived from it are built once per mesh generation and held in
    ``geom`` (:meth:`GeometryCache.derived`) with the differences and
    minmod temporaries, which are its scratch.
    """
    if geom is None:
        geom = geometry_cache()
    n = mesh.ncells
    dtype = np.result_type(q, size)
    rows = np.ascontiguousarray(q, dtype=dtype).reshape(-1, n)
    nq = rows.shape[0]
    nbr, dx = geom.derived(mesh, ("slopes", size.dtype, nq), size, lambda: _slope_terms(mesh, size, nq))
    shape = (2, nq, n)
    if out is None:
        out = np.empty(shape, dtype)
    work = geom.buffer(mesh, dtype, "slopes", (2,) + shape)
    masks = geom.buffer(mesh, np.dtype(bool), "slopes_masks", (3,) + shape)
    d_minus = work[0]
    for d in range(2):
        rows.take(nbr[0, d], axis=1, out=d_minus[d], mode="clip")
        np.subtract(rows, d_minus[d], out=d_minus[d])
        rows.take(nbr[1, d], axis=1, out=out[d], mode="clip")
        np.subtract(out[d], rows, out=out[d])
    np.divide(d_minus, dx[0], out=d_minus)
    np.divide(out, dx[1], out=out)
    minmod(d_minus, out, out=out, scratch=(work[1], masks))
    if q.ndim == 1:
        return out[0, 0], out[1, 0]
    return out[0], out[1]


def _face_terms(mesh: AmrMesh, faces: FaceLists, size: np.ndarray) -> tuple:
    """``(half_size, sides)`` for the face reconstruction.

    ``half_size`` is ``half·size`` — a cell's center-to-face distance —
    shaped ``(2, 3, ncells)`` like the slopes.  ``sides`` holds, per face
    side (low, then high), ``(cells, idx)``: the side's cell of every
    interior face, x faces then y faces, and the ``(3, nfaces)`` flat
    gather of the face-ordered variables ``(eta, N, T)`` from a
    ``(2, 3, ncells)`` array laid out as :func:`limited_slopes`' result —
    x faces read ``(eta, U, V)`` in x, y faces ``(eta, V, U)`` in y.
    """
    n = mesh.ncells
    half_size = np.broadcast_to(size * size.dtype.type(0.5), (2, 3, n)).copy()
    nxf = faces.xl.size
    sides = []
    for xc, yc in ((faces.xl, faces.yb), (faces.xr, faces.yt)):
        cells = np.concatenate([xc, yc]).astype(np.intp)
        idx = np.empty((3, cells.size), np.intp)
        for k, ky in enumerate((0, 2, 1)):
            idx[k, :nxf] = cells[:nxf] + k * n
            idx[k, nxf:] = cells[nxf:] + (3 + ky) * n
        sides.append((cells, idx))
    return half_size, tuple(sides)


def muscl_rhs(
    mesh: AmrMesh,
    H: np.ndarray,
    U: np.ndarray,
    V: np.ndarray,
    faces: FaceLists,
    cdtype: np.dtype,
    geom: GeometryCache | None = None,
    slot: str = "muscl",
    bathy: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Spatial operator: face-integrated MUSCL fluxes per unit area.

    Inputs are compute-dtype arrays; the return is (dH, dU, dV) *rate of
    change times area* — the caller divides by cell area and scales by dt.
    The accumulators live in the geometry cache's workspace for ``slot``;
    Heun's two stages must pass distinct slots so the predictor's result
    survives the corrector evaluation.

    With ``bathy`` set, the depth reconstruction switches to free-surface
    slopes (η = H + b, so a lake at rest has exactly zero slopes) and the
    face fluxes to the hydrostatic-reconstruction form
    (:func:`repro.clamr.kernels._wellbalanced_into`), keeping the scheme
    well balanced at second order.
    """
    if geom is None:
        geom = geometry_cache()
    b = None if bathy is None else _bathy_as(mesh, bathy, cdtype)
    compiled = _bridge.try_clamr_rhs(mesh, H, U, V, faces, cdtype, geom, slot, b, True)
    if compiled is not None:
        return compiled
    n = mesh.ncells
    size, _ = geom.geometry(mesh, cdtype)
    dH, dU, dV = geom.workspace3(mesh, cdtype, slot=slot)

    # the cell values (eta, U, V), once per direction, in the layout of
    # the slopes, so one flat index gathers either onto a face side
    q = geom.buffer(mesh, cdtype, "muscl_q", (2, 3, n))
    if b is None:
        np.copyto(q[0, 0], H)
    else:
        np.add(H, b, out=q[0, 0])
    np.copyto(q[0, 1], U)
    np.copyto(q[0, 2], V)
    np.copyto(q[1], q[0])
    slopes = geom.buffer(mesh, cdtype, "muscl_slopes", (2, 3, n))
    limited_slopes(mesh, q[0], size, geom, out=slopes)
    half_size, sides = geom.derived(
        mesh, ("muscl_faces", cdtype), faces, lambda: _face_terms(mesh, faces, size)
    )
    # each cell's slope times its center-to-face distance: the same
    # product for its low- and high-side faces
    np.multiply(slopes, half_size, out=slopes)

    # reconstruct each side of every interior face to the face plane, into
    # the kernels' face buffer (x faces, then y faces; N/T the normal and
    # tangent momenta); rows 8-10 are scratch until the flux overwrites
    # them
    fbuf = _face_buffer(mesh, geom, faces, cdtype)
    ds = fbuf[8:11]
    face_rows = (fbuf[0:3], fbuf[3:6])
    for (cells, idx), rows, b_row, toward_face in zip(sides, face_rows, (6, 7), (np.add, np.subtract)):
        q.take(idx, out=rows, mode="clip")
        slopes.take(idx, out=ds, mode="clip")
        toward_face(rows, ds, out=rows)
        if b is not None:
            # recover depth from the reconstructed free surface against
            # the cell's own bottom: constant η reproduces H bit-for-bit
            b.take(cells, out=fbuf[b_row], mode="clip")
            np.subtract(rows[0], fbuf[b_row], out=rows[0])
    # positivity guard: fall back to the cell mean where the
    # reconstruction would drive depth non-positive
    bad = geom.buffer(mesh, np.dtype(bool), "muscl_bad", (2, fbuf.shape[1]))
    np.less_equal(fbuf[0], 0, out=bad[0])
    np.less_equal(fbuf[3], 0, out=bad[1])
    np.logical_or(bad[0], bad[1], out=bad[0])
    if bad[0].any():
        np.copyto(q[:, 0], H)
        for (_, idx), rows in zip(sides, face_rows):
            np.copyto(rows, q.take(idx), where=bad[0])
    _face_fluxes(faces, n, fbuf, b is not None, dH, dU, dV)

    # reflective walls: first-order mirror flux (slopes clip to zero at
    # the wall anyway, by the self-link convention in limited_slopes)
    _reflective_walls(mesh, geom, faces, H, U, V, dH, dU, dV)

    return dH, dU, dV


def finite_diff_muscl(
    mesh: AmrMesh,
    state: ShallowWaterState,
    dt: float,
    faces: FaceLists | None = None,
    counters: KernelCounters | None = None,
    geom: GeometryCache | None = None,
    bathy: np.ndarray | None = None,
) -> None:
    """One second-order step (MUSCL space × Heun time); updates in place.

    Drop-in replacement for :func:`finite_diff_vectorized` — same
    signature, same precision semantics, roughly 4x the arithmetic
    (two spatial evaluations, each ~2x a first-order one).  ``bathy``
    selects the well-balanced free-surface reconstruction in both Heun
    stages.  Each Heun stage writes into one cached buffer — in place
    under NumPy, one loop (``heun_stage``) under a loop backend — which
    the corrector then stores into the state.
    """
    if faces is None:
        faces = FaceLists.from_mesh(mesh)
    if geom is None:
        geom = geometry_cache()
    _check_cells(mesh, state)
    cdtype = state.policy.compute_dtype
    half = cdtype.type(0.5)
    scale = _dt_over_area(mesh, geom, cdtype, dt)
    ops = _backends.dispatch_ops(cdtype)

    H0, U0, V0 = _promoted(mesh, geom, state)
    if bathy is not None:
        bathy = _bathy_as(mesh, bathy, cdtype)  # cast once for both stages
    # distinct workspace slots: k1 must survive the k2 evaluation
    k1 = muscl_rhs(mesh, H0, U0, V0, faces, cdtype, geom=geom, slot="muscl_k1", bathy=bathy)
    q1 = geom.buffer(mesh, cdtype, "heun", (3, mesh.ncells))
    if ops is None:
        for q0, k, q in zip((H0, U0, V0), k1, q1):
            np.multiply(k, scale, out=q)
            np.add(q0, q, out=q)
    else:
        ops.heun_stage(H0, U0, V0, *k1, None, None, None, scale, half, *q1)
    k2 = muscl_rhs(mesh, *q1, faces, cdtype, geom=geom, slot="muscl_k2", bathy=bathy)
    # the predictor's buffer is free again once k2 is evaluated
    if ops is None:
        for q0, a, b, q in zip((H0, U0, V0), k1, k2, q1):
            np.add(a, b, out=q)
            np.multiply(half, q, out=q)
            np.multiply(q, scale, out=q)
            np.add(q0, q, out=q)
    else:
        ops.heun_stage(H0, U0, V0, *k1, *k2, scale, half, *q1)
    state.store(*q1)

    if counters is not None:
        nfaces = faces.nfaces
        ncells = mesh.ncells
        flops = 2 * (nfaces * FLOPS_PER_FACE_MUSCL + ncells * (FLOPS_PER_CELL_UPDATE + 3 * FLOPS_PER_CELL_SLOPES))
        itemsize = state.state_dtype.itemsize
        state_bytes = 2 * (2 * nfaces * 3 + 4 * ncells * 3) * itemsize
        # two spatial sweeps (Heun's predictor and corrector) = two launches
        counters.add(flops=flops, state_bytes=state_bytes, invocations=2)
