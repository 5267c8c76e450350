"""Adaptive refinement: flagging, 2:1 balance, and the regrid cycle.

CLAMR refines where the solution is "interesting" — the shallow-water wave
front — and coarsens where it is flat.  The cycle implemented here:

1. :func:`refinement_flags` — flag each cell +1 (refine), -1 (coarsen
   candidate) or 0, from the relative jump of H across its faces;
2. balance enforcement — refinement propagates so no face ever joins cells
   more than one level apart (the 2:1 rule CLAMR's hash neighbors rely on);
3. coarsening is applied only to complete sibling quads whose neighborhood
   stays balanced;
4. the new cell soup is materialized and the state transferred
   **conservatively**: children inherit their parent's values (piecewise-
   constant prolongation preserves ∑ value·area exactly), a coarsened
   parent takes the equal-area mean of its four children.

State transfer happens at the *state* dtype — refining at reduced
precision rounds exactly as CLAMR's float32 builds do, which is part of
the precision signal the figures measure.  The parent mean is defined as
numpy's ``children.sum(dtype=state_dtype) * 0.25``.  At float32 and
float64 that sum is the left-to-right ``((a0+a1)+a2)+a3``; at float16
numpy accumulates in float32 and rounds once, so an explicit float16
left-to-right sum would round differently.
"""

from __future__ import annotations

import numpy as np

from repro.clamr.backends import bridge as _bridge
from repro.clamr.kernels import _check_cells
from repro.clamr.mesh import AmrMesh
from repro.clamr.state import ShallowWaterState
from repro.precision.emulation import quantize_to_bfloat16

__all__ = ["refinement_flags", "enforce_balance", "regrid"]


def refinement_flags(
    mesh: AmrMesh,
    state: ShallowWaterState,
    refine_threshold: float = 0.02,
    coarsen_threshold: float = 0.004,
    scratch=np.empty,
) -> np.ndarray:
    """Per-cell flags from the relative H-jump across faces.

    The indicator for cell c is ``max over stored neighbors n of
    |H[n] - H[c]| / max(H[c], floor)`` — the wave detector CLAMR's sample
    problems use.  Cells above ``refine_threshold`` are flagged +1, cells
    below ``coarsen_threshold`` are flagged -1, the rest 0.  Level caps
    (cannot refine past ``max_level``, cannot coarsen level 0) are applied
    here so downstream stages can trust the flags.  Under a loop backend
    everything after the quantization runs as one loop over the cells
    (``refinement_flags`` in :mod:`repro.clamr.backends.loops`).
    ``scratch(shape, dtype)`` hands out every temporary (the quantized
    depths, the indicator and its terms, the masks); the flags are new.
    """
    if refine_threshold <= coarsen_threshold:
        raise ValueError("refine_threshold must exceed coarsen_threshold")
    _check_cells(mesh, state)
    n = mesh.ncells
    # Quantize H to bfloat16 (~0.4% quanta) before computing jumps.  Regrid
    # decisions are threshold comparisons; without quantization a
    # rounding-level difference between precision modes can flip a cell's
    # refinement and bloom into an O(truncation) solution difference,
    # destroying the cross-precision comparison the paper's figures make.
    # With quantization, runs whose solutions agree to better than half a
    # quantum make bitwise-identical regrid decisions.  (Real CLAMR has no
    # such guard; its published runs simply did not hit a flip.  See
    # DESIGN.md, "mesh-decision noise immunity".)  Rounding the stored
    # depths is rounding their exact float64 widening.
    H = quantize_to_bfloat16(state.H, out=scratch(n, np.float64), scratch=scratch)
    flags = _bridge.try_refinement_flags(mesh, H, refine_threshold, coarsen_threshold, scratch)
    if flags is not None:
        return flags
    absH = np.absolute(H, out=scratch(n, np.float64))
    floor = max(1e-12, float(np.max(absH)) * 1e-12)
    indicator = scratch(n, np.float64)
    indicator.fill(0)
    Hn, scale, jump = (scratch(n, np.float64) for _ in range(3))
    for nbr in (mesh.nlft, mesh.nrht, mesh.nbot, mesh.ntop):
        # Per-pair symmetric normalization: both endpoints of a face see the
        # identical jump value.  (Normalizing by one endpoint's own H would
        # break mirror symmetry, because the stored-link convention — the
        # neighbor at the bottom/left of a coarse-fine face — is itself not
        # mirror-symmetric; near-threshold cells would then flag
        # asymmetrically and imprint a structural asymmetry on the mesh.)
        np.take(H, nbr, out=Hn, mode="clip")
        np.absolute(Hn, out=scale)
        np.maximum(scale, absH, out=scale)
        np.maximum(scale, floor, out=scale)
        np.subtract(Hn, H, out=jump)
        np.absolute(jump, out=jump)
        np.divide(jump, scale, out=jump)
        np.maximum(indicator, jump, out=indicator)
        # the link is one-directional for coarse/fine faces; mirror the jump
        # so the *neighbor* sees it too
        np.maximum.at(indicator, nbr, jump)

    flags = np.zeros(n, dtype=np.int8)
    mask, cap = scratch(n, bool), scratch(n, bool)
    np.copyto(flags, 1, where=np.greater(indicator, refine_threshold, out=mask))
    np.copyto(flags, -1, where=np.less(indicator, coarsen_threshold, out=mask))
    np.equal(flags, 1, out=mask)
    np.logical_and(mask, np.greater_equal(mesh.level, mesh.max_level, out=cap), out=mask)
    np.copyto(flags, 0, where=mask)
    np.equal(flags, -1, out=mask)
    np.logical_and(mask, np.equal(mesh.level, 0, out=cap), out=mask)
    np.copyto(flags, 0, where=mask)
    return flags


def enforce_balance(mesh: AmrMesh, flags: np.ndarray) -> np.ndarray:
    """Propagate refinement so the post-regrid mesh keeps 2:1 face balance.

    Iterates to a fixed point: whenever a neighbor's post-refinement level
    would exceed a cell's by more than one, the cell is forced to refine
    (and any coarsen flag on it is cancelled).  Convergence is guaranteed —
    each pass only raises levels, bounded by ``max_level``.  A loop
    backend runs the same passes as loops over the cells
    (``enforce_balance`` in :mod:`repro.clamr.backends.loops`).
    """
    flags = np.array(flags, dtype=np.int8, copy=True)
    if flags.shape != (mesh.ncells,):
        raise ValueError(f"flags must have shape ({mesh.ncells},)")
    if _bridge.try_enforce_balance(mesh, flags):
        return flags
    level = mesh.level
    at_max = level >= mesh.max_level
    # sanitize: level caps hold regardless of where the flags came from
    flags[(flags == 1) & at_max] = 0
    flags[(flags == -1) & (level == 0)] = 0
    neighbors = (mesh.nlft, mesh.nrht, mesh.nbot, mesh.ntop)
    for _ in range(int(mesh.max_level) + 2):
        refine = flags == 1
        new_level = level + refine
        forced = np.zeros(mesh.ncells, dtype=bool)
        for nbr in neighbors:
            # cell c sees neighbor n = nbr[c]; if c will sit 2+ levels above
            # n, n must refine.  Duplicate indices all store True, so a
            # plain scatter is an exact logical-or.
            deficit = new_level - np.take(new_level, nbr) > 1
            forced[nbr[deficit]] = True
        forced &= ~(refine | at_max)
        if not forced.any():
            break
        flags[forced] = 1
    # cancel coarsening that would unbalance against post-refinement levels
    new_level = level + (flags == 1)
    coarsen = flags == -1
    for nbr in neighbors:
        bad = coarsen & (np.take(new_level, nbr) > level)
        flags[bad] = 0
        # mirror direction: if c will be above its stored neighbor's
        # coarsened level by 2, the neighbor may not coarsen.
        nbr_coarsens = np.take(flags, nbr) == -1
        bad_nbr = nbr_coarsens & (new_level > np.take(level, nbr))
        flags[nbr[bad_nbr]] = 0
        coarsen = flags == -1
    return flags


def _sibling_groups(mesh: AmrMesh, candidates: np.ndarray) -> np.ndarray:
    """Complete 4-cell sibling quads among the coarsen candidates.

    Siblings share ``(level, i // 2, j // 2)``.  Only groups whose four
    members are all candidates (and all actually at the same level) may
    coarsen.  Returns an ``(ngroups, 4)`` array: rows in ascending key
    order, members in ascending cell index (the sort is stable).
    """
    cand = np.flatnonzero(candidates)
    order = np.lexsort((mesh.j[cand] >> 1, mesh.i[cand] >> 1, mesh.level[cand]))
    cand = cand[order]
    key = np.stack([mesh.level[cand], mesh.i[cand] >> 1, mesh.j[cand] >> 1])
    starts = np.flatnonzero(np.concatenate(([True], (key[:, 1:] != key[:, :-1]).any(axis=0))))
    counts = np.diff(np.append(starts, cand.size))
    complete = starts[counts == 4]
    return cand[complete[:, None] + np.arange(4)]


def regrid(
    mesh: AmrMesh,
    state: ShallowWaterState,
    flags: np.ndarray,
) -> tuple[AmrMesh, ShallowWaterState]:
    """Apply balanced flags: returns the new mesh and transferred state.

    The input flags are passed through :func:`enforce_balance` first, so
    callers may hand over raw :func:`refinement_flags` output.
    """
    flags = enforce_balance(mesh, flags)

    refine = flags == 1
    groups = _sibling_groups(mesh, flags == -1)
    in_group = np.zeros(mesh.ncells, dtype=bool)
    in_group[groups.ravel()] = True
    keep = ~refine & ~in_group
    ref = np.flatnonzero(refine)
    first = groups[:, 0]

    def assemble(X: np.ndarray, children: np.ndarray, parents: np.ndarray) -> np.ndarray:
        # unchanged cells, then the 4 children of every refined cell (one
        # block per (di, dj) in (0,0), (0,1), (1,0), (1,1) order), then
        # one parent per coarsened quad
        return np.concatenate([X[keep], children.ravel(), parents])

    di = np.array([[0], [0], [1], [1]], dtype=mesh.i.dtype)
    dj = np.array([[0], [1], [0], [1]], dtype=mesh.j.dtype)
    out_mesh = AmrMesh(
        nx=mesh.nx,
        ny=mesh.ny,
        max_level=mesh.max_level,
        i=assemble(mesh.i, mesh.i[ref] * 2 + di, mesh.i[first] >> 1),
        j=assemble(mesh.j, mesh.j[ref] * 2 + dj, mesh.j[first] >> 1),
        level=assemble(mesh.level, np.tile(mesh.level[ref] + 1, 4), mesh.level[first] - 1),
        coarse_size=mesh.coarse_size,
    )
    # children inherit the parent value; a coarsened parent takes the
    # equal-area mean at the state dtype (this rounding is part of the
    # precision signal at reduced precision)
    sdtype = state.state_dtype
    quarter = sdtype.type(0.25)
    H, U, V = (
        assemble(X, np.tile(X[ref], 4), X[groups].sum(axis=1, dtype=sdtype) * quarter)
        for X in (state.H, state.U, state.V)
    )
    return out_mesh, ShallowWaterState(H=H, U=U, V=V, policy=state.policy)
