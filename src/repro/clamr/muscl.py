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
from repro.clamr.kernels import (
    FLOPS_PER_CELL_UPDATE,
    FLOPS_PER_FACE,
    FaceLists,
    GeometryCache,
    _bathy_as,
    _check_cells,
    _face_buffer,
    _face_fluxes,
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


def minmod(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The minmod limiter: the smaller-magnitude argument when signs agree,
    zero otherwise.  Vectorized, dtype-preserving."""
    same_sign = a * b > 0
    out = np.where(np.abs(a) < np.abs(b), a, b)
    return np.where(same_sign, out, np.zeros((), dtype=out.dtype))


def limited_slopes(
    mesh: AmrMesh, q: np.ndarray, size: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Per-cell minmod slopes of a quantity in x and y.

    One-sided divided differences are taken against the stored neighbors;
    a boundary side (self-link) contributes a zero difference, so minmod
    clips the slope to zero there — the correct first-order fallback.  At
    coarse-fine faces the stored (lower/left) fine neighbor stands in for
    the face average; the limiter bounds any error this introduces by the
    neighboring differences.
    """
    cells = np.arange(mesh.ncells)
    half = size.dtype.type(0.5)

    def one_dir(minus: np.ndarray, plus: np.ndarray) -> np.ndarray:
        d_minus = np.where(minus != cells, q - q[minus], np.zeros((), dtype=q.dtype))
        d_plus = np.where(plus != cells, q[plus] - q, np.zeros((), dtype=q.dtype))
        dx_minus = half * (size + size[minus])
        dx_plus = half * (size + size[plus])
        return minmod(d_minus / dx_minus, d_plus / dx_plus)

    return one_dir(mesh.nlft, mesh.nrht), one_dir(mesh.nbot, mesh.ntop)


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
    compiled = _backends.try_clamr_rhs(mesh, H, U, V, faces, cdtype, geom, slot, b, True)
    if compiled is not None:
        return compiled
    half = cdtype.type(0.5)
    size, _ = geom.geometry(mesh, cdtype)
    eta = H if b is None else H + b
    sxH, syH = limited_slopes(mesh, eta, size)
    sxU, syU = limited_slopes(mesh, U, size)
    sxV, syV = limited_slopes(mesh, V, size)
    dH, dU, dV = geom.workspace3(mesh, cdtype, slot=slot)

    # reconstruct each side of every interior face to the face plane, into
    # the kernels' face buffer (x faces, then y faces; N/T the normal and
    # tangent momenta); rows 8 and 9 are scratch until the flux overwrites
    # them
    fbuf = _face_buffer(mesh, geom, faces, cdtype)
    nxf = faces.xl.size
    groups = (
        (slice(None, nxf), faces.xl, faces.xr, (sxH, sxU, sxV), U, V),
        (slice(nxf, None), faces.yb, faces.yt, (syH, syV, syU), V, U),
    )
    for sl, lo, hi, slopes, N, T in groups:
        off, ds = fbuf[8, sl], fbuf[9, sl]
        for row, b_row, cells, toward_face in ((0, 6, lo, np.add), (3, 7, hi, np.subtract)):
            np.take(size, cells, out=off, mode="clip")
            np.multiply(off, half, out=off)
            for k, (q, slope) in enumerate(zip((eta, N, T), slopes)):
                q_face = fbuf[row + k, sl]
                np.take(slope, cells, out=ds, mode="clip")
                np.multiply(ds, off, out=ds)
                np.take(q, cells, out=q_face, mode="clip")
                toward_face(q_face, ds, out=q_face)
            if b is not None:
                # recover depth from the reconstructed free surface against
                # the cell's own bottom: constant η reproduces H bit-for-bit
                b_face = fbuf[b_row, sl]
                np.take(b, cells, out=b_face, mode="clip")
                np.subtract(fbuf[row, sl], b_face, out=fbuf[row, sl])
    # positivity guard: fall back to the cell mean where the
    # reconstruction would drive depth non-positive
    bad = (fbuf[0] <= 0) | (fbuf[3] <= 0)
    if np.any(bad):
        for sl, lo, hi, _, N, T in groups:
            for row, cells in ((0, lo), (3, hi)):
                for k, q in enumerate((H, N, T)):
                    np.copyto(fbuf[row + k, sl], q[cells], where=bad[sl])
    _face_fluxes(faces, mesh.ncells, fbuf, b is not None, dH, dU, dV)

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
    stages.  Under a loop backend each Heun stage update is one loop
    (``heun_stage``) into one cached buffer, which the corrector then
    stores into the state.
    """
    if faces is None:
        faces = FaceLists.from_mesh(mesh)
    if geom is None:
        geom = geometry_cache()
    _check_cells(mesh, state)
    cdtype = state.policy.compute_dtype
    dt_c = cdtype.type(dt)
    half = cdtype.type(0.5)
    _, area = geom.geometry(mesh, cdtype)
    scale = dt_c / area
    ops = _backends.dispatch_ops(cdtype)

    H0, U0, V0 = state.promoted()
    if bathy is not None:
        bathy = _bathy_as(mesh, bathy, cdtype)  # cast once for both stages
    # distinct workspace slots: k1 must survive the k2 evaluation
    k1 = muscl_rhs(mesh, H0, U0, V0, faces, cdtype, geom=geom, slot="muscl_k1", bathy=bathy)
    if ops is None:
        H1 = H0 + k1[0] * scale
        U1 = U0 + k1[1] * scale
        V1 = V0 + k1[2] * scale
    else:
        H1, U1, V1 = geom.buffer(mesh, cdtype, "heun", (3, mesh.ncells))
        ops.heun_stage(H0, U0, V0, *k1, None, None, None, scale, half, H1, U1, V1)
    k2 = muscl_rhs(mesh, H1, U1, V1, faces, cdtype, geom=geom, slot="muscl_k2", bathy=bathy)
    if ops is None:
        state.store(
            H0 + half * (k1[0] + k2[0]) * scale,
            U0 + half * (k1[1] + k2[1]) * scale,
            V0 + half * (k1[2] + k2[2]) * scale,
        )
    else:
        # the predictor's buffer is free again once k2 is evaluated
        ops.heun_stage(H0, U0, V0, *k1, *k2, scale, half, H1, U1, V1)
        state.store(H1, U1, V1)

    if counters is not None:
        nfaces = faces.nfaces
        ncells = mesh.ncells
        flops = 2 * (nfaces * FLOPS_PER_FACE_MUSCL + ncells * (FLOPS_PER_CELL_UPDATE + 3 * FLOPS_PER_CELL_SLOPES))
        itemsize = state.state_dtype.itemsize
        state_bytes = 2 * (2 * nfaces * 3 + 4 * ncells * 3) * itemsize
        # two spatial sweeps (Heun's predictor and corrector) = two launches
        counters.add(flops=flops, state_bytes=state_bytes, invocations=2)
