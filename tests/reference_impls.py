"""Loop-based reference implementations of the vectorized CLAMR layers.

These are the straightforward forms that :func:`repro.sums.dd_sum`,
:meth:`repro.clamr.mesh.AmrMesh.build_hash` and the regrid sibling grouping
had before they were vectorized.  The tests use them as bit-level oracles:
the vectorized code must reproduce their outputs exactly.
"""

from __future__ import annotations

import numpy as np

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
