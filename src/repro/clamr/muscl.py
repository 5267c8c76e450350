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
from repro.clamr import kernels as _kernels
from repro.clamr.kernels import (
    FLOPS_PER_CELL_UPDATE,
    FLOPS_PER_FACE,
    FaceLists,
    GeometryCache,
    _reflective_walls,
    _rusanov_x,
    _rusanov_y,
    _wellbalanced_x,
    geometry_cache,
)
from repro.clamr.mesh import AmrMesh
from repro.clamr.state import GRAVITY, ShallowWaterState
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
    (:func:`repro.clamr.kernels._wellbalanced_x`), keeping the scheme
    well balanced at second order.
    """
    if geom is None:
        geom = geometry_cache()
    if _kernels._SCATTER_MODE == "plan":  # add_at keeps the full oracle
        compiled = _backends.try_muscl_rhs(
            mesh, H, U, V, faces, cdtype, geom, slot, bathy
        )
        if compiled is not None:
            return compiled
    g = cdtype.type(GRAVITY)
    half = cdtype.type(0.5)
    size, _ = geom.geometry(mesh, cdtype)
    xplan, yplan = faces.scatter_plans(mesh.ncells)

    b = None
    if bathy is not None:
        b = np.ascontiguousarray(bathy, dtype=cdtype)
        eta = H + b
    sx = {}
    sy = {}
    for name, q in (("H", eta if b is not None else H), ("U", U), ("V", V)):
        sx[name], sy[name] = limited_slopes(mesh, q, size)

    dH, dU, dV = geom.workspace3(mesh, cdtype, slot=slot)

    # interior x-faces: reconstruct each side to the face plane
    if faces.xl.size:
        L, R = faces.xl, faces.xr
        offL = half * size[L]
        offR = half * size[R]
        if b is not None:
            # reconstruct the free surface, recover depth against the
            # cell's own bottom: constant η reproduces H bit-for-bit
            hL = (eta[L] + sx["H"][L] * offL) - b[L]
            hR = (eta[R] - sx["H"][R] * offR) - b[R]
        else:
            hL = H[L] + sx["H"][L] * offL
            hR = H[R] - sx["H"][R] * offR
        uL = U[L] + sx["U"][L] * offL
        vL = V[L] + sx["V"][L] * offL
        uR = U[R] - sx["U"][R] * offR
        vR = V[R] - sx["V"][R] * offR
        # positivity guard: fall back to the cell mean where the
        # reconstruction would drive depth non-positive
        bad = (hL <= 0) | (hR <= 0)
        if np.any(bad):
            hL = np.where(bad, H[L], hL)
            uL = np.where(bad, U[L], uL)
            vL = np.where(bad, V[L], vL)
            hR = np.where(bad, H[R], hR)
            uR = np.where(bad, U[R], uR)
            vR = np.where(bad, V[R], vR)
        if b is not None:
            fh, phiL, phiR, fv = _wellbalanced_x(
                hL, uL, vL, hR, uR, vR, b[L], b[R], g
            )
            xplan.apply(dH, fh)
            xplan.apply(dU, phiL, phiR)
            xplan.apply(dV, fv)
        else:
            fh, fu, fv = _rusanov_x(hL, uL, vL, hR, uR, vR, g)
            xplan.apply(dH, fh)
            xplan.apply(dU, fu)
            xplan.apply(dV, fv)

    # interior y-faces
    if faces.yb.size:
        B, T = faces.yb, faces.yt
        offB = half * size[B]
        offT = half * size[T]
        if b is not None:
            hB = (eta[B] + sy["H"][B] * offB) - b[B]
            hT = (eta[T] - sy["H"][T] * offT) - b[T]
        else:
            hB = H[B] + sy["H"][B] * offB
            hT = H[T] - sy["H"][T] * offT
        uB = U[B] + sy["U"][B] * offB
        vB = V[B] + sy["V"][B] * offB
        uT = U[T] - sy["U"][T] * offT
        vT = V[T] - sy["V"][T] * offT
        bad = (hB <= 0) | (hT <= 0)
        if np.any(bad):
            hB = np.where(bad, H[B], hB)
            uB = np.where(bad, U[B], uB)
            vB = np.where(bad, V[B], vB)
            hT = np.where(bad, H[T], hT)
            uT = np.where(bad, U[T], uT)
            vT = np.where(bad, V[T], vT)
        if b is not None:
            fh, phiB, phiT, fu = _wellbalanced_x(
                hB, vB, uB, hT, vT, uT, b[B], b[T], g
            )
            yplan.apply(dH, fh)
            yplan.apply(dU, fu)
            yplan.apply(dV, phiB, phiT)
        else:
            fh, fu, fv = _rusanov_y(hB, uB, vB, hT, uT, vT, g)
            yplan.apply(dH, fh)
            yplan.apply(dU, fu)
            yplan.apply(dV, fv)

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
    stages.
    """
    if faces is None:
        faces = FaceLists.from_mesh(mesh)
    if geom is None:
        geom = geometry_cache()
    cdtype = state.policy.compute_dtype
    dt_c = cdtype.type(dt)
    half = cdtype.type(0.5)
    _, area = geom.geometry(mesh, cdtype)
    scale = dt_c / area

    H0, U0, V0 = state.promoted()
    # distinct workspace slots: k1 must survive the k2 evaluation
    k1 = muscl_rhs(mesh, H0, U0, V0, faces, cdtype, geom=geom, slot="muscl_k1", bathy=bathy)
    H1 = H0 + k1[0] * scale
    U1 = U0 + k1[1] * scale
    V1 = V0 + k1[2] * scale
    k2 = muscl_rhs(mesh, H1, U1, V1, faces, cdtype, geom=geom, slot="muscl_k2", bathy=bathy)
    state.store(
        H0 + half * (k1[0] + k2[0]) * scale,
        U0 + half * (k1[1] + k2[1]) * scale,
        V0 + half * (k1[2] + k2[2]) * scale,
    )

    if counters is not None:
        nfaces = faces.nfaces
        ncells = mesh.ncells
        flops = 2 * (nfaces * FLOPS_PER_FACE_MUSCL + ncells * (FLOPS_PER_CELL_UPDATE + 3 * FLOPS_PER_CELL_SLOPES))
        itemsize = state.state_dtype.itemsize
        state_bytes = 2 * (2 * nfaces * 3 + 4 * ncells * 3) * itemsize
        # two spatial sweeps (Heun's predictor and corrector) = two launches
        counters.add(flops=flops, state_bytes=state_bytes, invocations=2)
