"""Loop-based reference implementations of the vectorized CLAMR layers.

These are the straightforward forms that :func:`repro.sums.dd_sum`,
:meth:`repro.clamr.mesh.AmrMesh.build_hash`, the regrid sibling grouping
and the flat-bottom ``finite_diff`` kernel had before they were optimized.
The tests use them as bit-level oracles: the production code must
reproduce their outputs exactly.
"""

from __future__ import annotations

import numpy as np

from repro.clamr.kernels import FaceLists, _count_work, _rusanov_x, _rusanov_y
from repro.clamr.mesh import AmrMesh
from repro.clamr.state import GRAVITY, ShallowWaterState
from repro.machine.counters import KernelCounters
from repro.sums.doubledouble import two_sum


def dd_sum_loop(values) -> tuple[float, float]:
    """Element-by-element TwoSum accumulation; returns the renormalized (hi, lo)."""
    hi = 0.0
    lo = 0.0
    for x in np.asarray(values, dtype=np.float64).ravel():
        hi, e = two_sum(hi, float(x))
        lo += e
    return two_sum(hi, lo)


def paint_hash_add_at(mesh) -> np.ndarray:
    """Per-level painter over repeated index cubes, validated with np.add.at."""
    span = mesh.cell_span_fine().astype(np.int64)
    i0 = mesh.i.astype(np.int64) * span
    j0 = mesh.j.astype(np.int64) * span
    image = np.full((mesh.nyf, mesh.nxf), -1, dtype=np.int64)
    paint_count = np.zeros((mesh.nyf, mesh.nxf), dtype=np.int32)
    cells = np.arange(mesh.ncells, dtype=np.int64)
    for lvl in np.unique(mesh.level):
        sel = np.flatnonzero(mesh.level == lvl)
        s = int(span[sel[0]])
        offsets = np.arange(s, dtype=np.int64)
        rows = j0[sel][:, None] + offsets[None, :]
        cols = i0[sel][:, None] + offsets[None, :]
        ridx = np.repeat(rows[:, :, None], s, axis=2)
        cidx = np.repeat(cols[:, None, :], s, axis=1)
        image[ridx, cidx] = cells[sel][:, None, None]
        np.add.at(paint_count, (ridx, cidx), 1)
    if (paint_count > 1).any():
        raise ValueError("mesh cells overlap")
    if (paint_count == 0).any():
        raise ValueError("mesh does not cover the domain (gaps present)")
    return image


def sibling_groups_unique(mesh, candidates: np.ndarray) -> list[np.ndarray]:
    """Complete sibling quads via np.unique and one boolean scan per group."""
    cand = np.flatnonzero(candidates)
    if cand.size == 0:
        return []
    key = np.stack([mesh.level[cand], mesh.i[cand] >> 1, mesh.j[cand] >> 1], axis=1)
    _, inverse, counts = np.unique(key, axis=0, return_inverse=True, return_counts=True)
    return [cand[inverse.ravel() == gid] for gid in np.flatnonzero(counts == 4)]


def finite_diff_add_at(
    mesh: AmrMesh,
    state: ShallowWaterState,
    dt: float,
    faces: FaceLists,
    counters: KernelCounters | None = None,
) -> None:
    """The original (pre-ScatterPlan) ``finite_diff_vectorized`` body.

    Six unbuffered ``np.add.at`` calls per face group, per-step geometry
    casts and freshly allocated accumulators.  The production kernel must
    reproduce it bit for bit in both scatter modes.
    """
    cdtype = state.policy.compute_dtype
    g = cdtype.type(GRAVITY)
    dt_c = cdtype.type(dt)

    H, U, V = state.promoted()
    area = mesh.cell_area().astype(cdtype)

    dH = np.zeros(mesh.ncells, dtype=cdtype)
    dU = np.zeros(mesh.ncells, dtype=cdtype)
    dV = np.zeros(mesh.ncells, dtype=cdtype)

    # interior x-faces
    if faces.xl.size:
        L, R = faces.xl, faces.xr
        fh, fu, fv = _rusanov_x(H[L], U[L], V[L], H[R], U[R], V[R], g)
        fsz = faces.xsize.astype(cdtype)
        np.add.at(dH, L, -fh * fsz)
        np.add.at(dH, R, fh * fsz)
        np.add.at(dU, L, -fu * fsz)
        np.add.at(dU, R, fu * fsz)
        np.add.at(dV, L, -fv * fsz)
        np.add.at(dV, R, fv * fsz)

    # interior y-faces
    if faces.yb.size:
        B, T = faces.yb, faces.yt
        fh, fu, fv = _rusanov_y(H[B], U[B], V[B], H[T], U[T], V[T], g)
        fsz = faces.ysize.astype(cdtype)
        np.add.at(dH, B, -fh * fsz)
        np.add.at(dH, T, fh * fsz)
        np.add.at(dU, B, -fu * fsz)
        np.add.at(dU, T, fu * fsz)
        np.add.at(dV, B, -fv * fsz)
        np.add.at(dV, T, fv * fsz)

    # reflective boundaries: flux against the mirror state
    size = mesh.cell_size().astype(cdtype)
    for cells_b, axis, is_high in (
        (faces.bnd_left, "x", False),
        (faces.bnd_right, "x", True),
        (faces.bnd_bottom, "y", False),
        (faces.bnd_top, "y", True),
    ):
        if cells_b.size == 0:
            continue
        h = H[cells_b]
        u = U[cells_b]
        v = V[cells_b]
        fsz = size[cells_b]
        if axis == "x":
            if is_high:  # interior on the left of the wall
                fh, fu, fv = _rusanov_x(h, u, v, h, -u, v, g)
                dH[cells_b] -= fh * fsz
                dU[cells_b] -= fu * fsz
                dV[cells_b] -= fv * fsz
            else:  # interior on the right of the wall
                fh, fu, fv = _rusanov_x(h, -u, v, h, u, v, g)
                dH[cells_b] += fh * fsz
                dU[cells_b] += fu * fsz
                dV[cells_b] += fv * fsz
        else:
            if is_high:
                fh, fu, fv = _rusanov_y(h, u, v, h, u, -v, g)
                dH[cells_b] -= fh * fsz
                dU[cells_b] -= fu * fsz
                dV[cells_b] -= fv * fsz
            else:
                fh, fu, fv = _rusanov_y(h, u, -v, h, u, v, g)
                dH[cells_b] += fh * fsz
                dU[cells_b] += fu * fsz
                dV[cells_b] += fv * fsz

    scale = dt_c / area
    state.store(H + dH * scale, U + dU * scale, V + dV * scale)
    _count_work(counters, mesh, state, faces)
