"""Loop-based reference implementations of the vectorized CLAMR layers.

These are the straightforward forms that :func:`repro.sums.dd_sum`,
:meth:`repro.clamr.mesh.AmrMesh.build_hash`, the regrid sibling grouping
and the flat-bottom ``finite_diff`` kernel had before they were optimized,
the allocating Rusanov and well-balanced face fluxes and the CLAMR
``finite_diff``/MUSCL bodies that called them per face group before the
fused face pass,
plus the boolean-mask / int64-gather forms of the regrid topology builders
(scatter-plan construction by ``argsort``, neighbor rebuild, face lists,
refinement flags, balance and the regrid assembly), and the SELF DGSEM
kernel with one spelled-out surface routine and interface penalty per
direction and explicit-subscript ``einsum`` contractions, and the SELF
RK3 stage and filter step as they were before the solver workspace (fresh
tensors for every product).
The tests use them as bit-level oracles: the production code must
reproduce their outputs exactly.
"""

from __future__ import annotations

import numpy as np

from repro.clamr.amr import _sibling_groups
from repro.clamr.kernels import FaceLists, _count_work, _reflective_walls, geometry_cache
from repro.clamr.mesh import AmrMesh
from repro.clamr.muscl import limited_slopes
from repro.clamr.state import GRAVITY, ShallowWaterState
from repro.machine.counters import KernelCounters
from repro.precision.emulation import quantize_to_bfloat16
from repro.self_.equations import RHO, RHOE, RHOU, RHOV, RHOW
from repro.self_.timeint import _A, _B
from repro.sums.doubledouble import two_sum


def _rusanov_x(hL, uL, vL, hR, uR, vR, g):
    """Rusanov flux in +x for (H, U, V); works on arrays or scalars.

    Inputs are conserved variables: u/v here are the *momenta* H·u, H·v.
    """
    velL = uL / hL
    velR = uR / hR
    cL = np.sqrt(g * hL)
    cR = np.sqrt(g * hR)
    lam = np.maximum(np.abs(velL) + cL, np.abs(velR) + cR)
    fh_L = uL
    fu_L = uL * velL + 0.5 * g * hL * hL
    fv_L = vL * velL
    fh_R = uR
    fu_R = uR * velR + 0.5 * g * hR * hR
    fv_R = vR * velR
    fh = 0.5 * (fh_L + fh_R) - 0.5 * lam * (hR - hL)
    fu = 0.5 * (fu_L + fu_R) - 0.5 * lam * (uR - uL)
    fv = 0.5 * (fv_L + fv_R) - 0.5 * lam * (vR - vL)
    return fh, fu, fv


def _wellbalanced_x(hL, nL, tL, hR, nR, tR, bL, bR, g):
    """Hydrostatic-reconstruction (Audusse) Rusanov flux over bathymetry.

    The allocating expression form that
    :func:`repro.clamr.kernels._wellbalanced_into` replays (see there for
    the scheme).  Returns ``(fh, phiL, phiR, ft)``; works on arrays or
    NumPy scalars, ``g`` a NumPy scalar of the compute dtype.
    """
    zero = g.dtype.type(0)
    bstar = np.maximum(bL, bR)
    hsL = np.maximum((hL + bL) - bstar, zero)
    hsR = np.maximum((hR + bR) - bstar, zero)
    # velocities from the ORIGINAL depths (cells stay wet; h > 0)
    velL = nL / hL
    velR = nR / hR
    nsL = hsL * velL
    nsR = hsR * velR
    tsL = hsL * (tL / hL)
    tsR = hsR * (tR / hR)
    cL = np.sqrt(g * hsL)
    cR = np.sqrt(g * hsR)
    lam = np.maximum(np.abs(velL) + cL, np.abs(velR) + cR)
    fh = 0.5 * (nsL + nsR) - 0.5 * lam * (hsR - hsL)
    fnL = nsL * velL + 0.5 * g * hsL * hsL
    fnR = nsR * velR + 0.5 * g * hsR * hsR
    fn = 0.5 * (fnL + fnR) - 0.5 * lam * (nsR - nsL)
    ft = 0.5 * (tsL * velL + tsR * velR) - 0.5 * lam * (tsR - tsL)
    # per-side hydrostatic-pressure correction; the 0.5*g*h*h spelling
    # matches _rusanov_x's pressure term bit-for-bit
    phiL = (fn - 0.5 * g * hsL * hsL) + 0.5 * g * hL * hL
    phiR = (fn - 0.5 * g * hsR * hsR) + 0.5 * g * hR * hR
    return fh, phiL, phiR, ft


def _interior_fluxes(plan, lo, hi, hL, nL, tL, hR, nR, tR, b, g, dH, dN, dT):
    """Flux one interior face group and scatter it through its plan.

    ``lo``/``hi`` are the group's low/high cells, the ``h/n/t`` arguments
    the face states on each side (depth, normal and tangent momentum),
    and ``dN``/``dT`` the normal/tangent accumulators.  ``b`` None takes
    the Rusanov flux; a compute-dtype bottom takes the well-balanced one,
    whose normal momentum scatters sided (each side its own ``phi``).
    Returns the flux arrays it scattered.
    """
    if b is None:
        fluxes = _rusanov_x(hL, nL, tL, hR, nR, tR, g)
        fh, fn, ft = fluxes
        plan.apply(dN, fn)
    else:
        fluxes = _wellbalanced_x(hL, nL, tL, hR, nR, tR, b[lo], b[hi], g)
        fh, phiL, phiR, ft = fluxes
        plan.apply(dN, phiL, phiR)
    plan.apply(dH, fh)
    plan.apply(dT, ft)
    return fluxes


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
        fh, fv, fu = _rusanov_x(H[B], V[B], U[B], H[T], V[T], U[T], g)  # y: U/V swapped
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
                fh, fv, fu = _rusanov_x(h, v, u, h, -v, u, g)
                dH[cells_b] -= fh * fsz
                dU[cells_b] -= fu * fsz
                dV[cells_b] -= fv * fsz
            else:
                fh, fv, fu = _rusanov_x(h, -v, u, h, v, u, g)
                dH[cells_b] += fh * fsz
                dU[cells_b] += fu * fsz
                dV[cells_b] += fv * fsz

    scale = dt_c / area
    state.store(H + dH * scale, U + dU * scale, V + dV * scale)
    _count_work(counters, mesh, state, faces)


def finite_diff_allocating(
    mesh: AmrMesh,
    state: ShallowWaterState,
    dt: float,
    faces: FaceLists,
    bathy: np.ndarray | None = None,
) -> None:
    """``finite_diff_vectorized``'s NumPy body before the fused face pass.

    Each face group gathers its states by fancy indexing and fluxes them
    through :func:`_interior_fluxes` — the allocating Rusanov or
    well-balanced form, then the group's plan scatter — x group first;
    fresh accumulators, production walls.
    """
    cdtype = state.policy.compute_dtype
    g = cdtype.type(GRAVITY)
    b = None if bathy is None else np.asarray(bathy, dtype=cdtype)
    H, U, V = state.promoted()
    dH, dU, dV = (np.zeros(mesh.ncells, dtype=cdtype) for _ in range(3))
    xplan, yplan = faces.scatter_plans(mesh.ncells)
    for plan, lo, hi, N, T, dN, dT in (
        (xplan, faces.xl, faces.xr, U, V, dU, dV),
        (yplan, faces.yb, faces.yt, V, U, dV, dU),
    ):
        if lo.size:
            _interior_fluxes(plan, lo, hi, H[lo], N[lo], T[lo], H[hi], N[hi], T[hi], b, g, dH, dN, dT)
    geom = geometry_cache()
    _reflective_walls(mesh, geom, faces, H, U, V, dH, dU, dV)
    scale = cdtype.type(dt) / geom.geometry(mesh, cdtype)[1]
    state.store(H + dH * scale, U + dU * scale, V + dV * scale)


def muscl_rhs_allocating(mesh, H, U, V, faces, cdtype, bathy=None):
    """``muscl_rhs``'s NumPy body before the fused face pass.

    Reconstructs each face group's states into fresh arrays (positivity
    fallback by ``np.where``) and fluxes them through
    :func:`_interior_fluxes`, x group first.
    """
    g = cdtype.type(GRAVITY)
    half = cdtype.type(0.5)
    size, _ = geometry_cache().geometry(mesh, cdtype)
    b = None if bathy is None else np.asarray(bathy, dtype=cdtype)
    xplan, yplan = faces.scatter_plans(mesh.ncells)
    eta = H if b is None else H + b
    sxH, syH = limited_slopes(mesh, eta, size)
    sxU, syU = limited_slopes(mesh, U, size)
    sxV, syV = limited_slopes(mesh, V, size)
    dH, dU, dV = (np.zeros(mesh.ncells, dtype=cdtype) for _ in range(3))
    for plan, lo, hi, (sH, sN, sT), N, T, dN, dT in (
        (xplan, faces.xl, faces.xr, (sxH, sxU, sxV), U, V, dU, dV),
        (yplan, faces.yb, faces.yt, (syH, syV, syU), V, U, dV, dU),
    ):
        if not lo.size:
            continue
        offL = half * size[lo]
        offR = half * size[hi]
        hL = eta[lo] + sH[lo] * offL
        hR = eta[hi] - sH[hi] * offR
        if b is not None:
            hL = hL - b[lo]
            hR = hR - b[hi]
        nL = N[lo] + sN[lo] * offL
        tL = T[lo] + sT[lo] * offL
        nR = N[hi] - sN[hi] * offR
        tR = T[hi] - sT[hi] * offR
        bad = (hL <= 0) | (hR <= 0)
        if np.any(bad):
            hL = np.where(bad, H[lo], hL)
            nL = np.where(bad, N[lo], nL)
            tL = np.where(bad, T[lo], tL)
            hR = np.where(bad, H[hi], hR)
            nR = np.where(bad, N[hi], nR)
            tR = np.where(bad, T[hi], tR)
        _interior_fluxes(plan, lo, hi, hL, nL, tL, hR, nR, tR, b, g, dH, dN, dT)
    _reflective_walls(mesh, geometry_cache(), faces, H, U, V, dH, dU, dV)
    return dH, dU, dV


def finite_diff_muscl_allocating(
    mesh: AmrMesh,
    state: ShallowWaterState,
    dt: float,
    faces: FaceLists,
    bathy: np.ndarray | None = None,
) -> None:
    """``finite_diff_muscl``'s Heun step over :func:`muscl_rhs_allocating`."""
    cdtype = state.policy.compute_dtype
    half = cdtype.type(0.5)
    scale = cdtype.type(dt) / geometry_cache().geometry(mesh, cdtype)[1]
    H0, U0, V0 = state.promoted()
    k1 = muscl_rhs_allocating(mesh, H0, U0, V0, faces, cdtype, bathy)
    H1 = H0 + k1[0] * scale
    U1 = U0 + k1[1] * scale
    V1 = V0 + k1[2] * scale
    k2 = muscl_rhs_allocating(mesh, H1, U1, V1, faces, cdtype, bathy)
    state.store(
        H0 + half * (k1[0] + k2[0]) * scale,
        U0 + half * (k1[1] + k2[1]) * scale,
        V0 + half * (k1[2] + k2[2]) * scale,
    )


def scatter_plan_argsort(low, high, sizes, ncells: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``ScatterPlan``'s CSR arrays ``(indptr, cols, signed64)`` by stable argsort."""
    nfaces = int(low.size)
    idx = np.concatenate([low.astype(np.int64, copy=False), high.astype(np.int64, copy=False)])
    order = np.argsort(idx, kind="stable")
    counts = np.bincount(idx, minlength=ncells)
    indptr = np.zeros(ncells + 1, dtype=np.int32)
    np.cumsum(counts, out=indptr[1:])
    is_low = order < nfaces
    cols = np.where(is_low, order, order - nfaces).astype(np.int32)
    sizes64 = np.asarray(sizes, dtype=np.float64)
    return indptr, cols, np.where(is_low, -sizes64[cols], sizes64[cols])


def neighbors_masked_gather(mesh: AmrMesh) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """(nlft, nrht, nbot, ntop) by boolean-masked int64 gathers of the hash."""
    image = mesh.build_hash()
    span = mesh.cell_span_fine().astype(np.int64)
    i0 = mesh.i.astype(np.int64) * span
    j0 = mesh.j.astype(np.int64) * span

    cells = np.arange(mesh.ncells, dtype=np.int64)

    has_lft = i0 > 0
    nlft = cells.copy()
    nlft[has_lft] = image[j0[has_lft], i0[has_lft] - 1]

    has_rht = i0 + span < mesh.nxf
    nrht = cells.copy()
    nrht[has_rht] = image[j0[has_rht], i0[has_rht] + span[has_rht]]

    has_bot = j0 > 0
    nbot = cells.copy()
    nbot[has_bot] = image[j0[has_bot] - 1, i0[has_bot]]

    has_top = j0 + span < mesh.nyf
    ntop = cells.copy()
    ntop[has_top] = image[j0[has_top] + span[has_top], i0[has_top]]

    return tuple(a.astype(np.int32) for a in (nlft, nrht, nbot, ntop))


def face_lists_masked(mesh: AmrMesh) -> FaceLists:
    """``FaceLists.from_mesh`` by boolean masks over int64 neighbor casts."""
    cells = np.arange(mesh.ncells, dtype=np.int64)
    level = mesh.level
    size = mesh.cell_size()

    nrht = mesh.nrht.astype(np.int64)
    nlft = mesh.nlft.astype(np.int64)
    ntop = mesh.ntop.astype(np.int64)
    nbot = mesh.nbot.astype(np.int64)

    own_right = (nrht != cells) & (level[nrht] <= level)
    own_left = (nlft != cells) & (level[nlft] < level)
    own_top = (ntop != cells) & (level[ntop] <= level)
    own_bottom = (nbot != cells) & (level[nbot] < level)
    return FaceLists(
        xl=np.concatenate([cells[own_right], nlft[own_left]]),
        xr=np.concatenate([nrht[own_right], cells[own_left]]),
        xsize=np.concatenate([size[own_right], size[own_left]]),
        yb=np.concatenate([cells[own_top], nbot[own_bottom]]),
        yt=np.concatenate([ntop[own_top], cells[own_bottom]]),
        ysize=np.concatenate([size[own_top], size[own_bottom]]),
        bnd_left=cells[nlft == cells],
        bnd_right=cells[nrht == cells],
        bnd_bottom=cells[nbot == cells],
        bnd_top=cells[ntop == cells],
    )


def refinement_flags_gather(
    mesh: AmrMesh,
    state: ShallowWaterState,
    refine_threshold: float = 0.02,
    coarsen_threshold: float = 0.004,
) -> np.ndarray:
    """``refinement_flags`` with ``H[nbr]`` and ``|H|`` re-gathered per use."""
    H = quantize_to_bfloat16(state.H.astype(np.float64))
    floor = max(1e-12, float(np.max(np.abs(H))) * 1e-12)
    indicator = np.zeros(mesh.ncells, dtype=np.float64)
    for nbr in (mesh.nlft, mesh.nrht, mesh.nbot, mesh.ntop):
        scale = np.maximum(np.maximum(np.abs(H[nbr]), np.abs(H)), floor)
        jump = np.abs(H[nbr] - H) / scale
        np.maximum(indicator, jump, out=indicator)
        np.maximum.at(indicator, nbr, jump)

    flags = np.zeros(mesh.ncells, dtype=np.int8)
    flags[indicator > refine_threshold] = 1
    flags[indicator < coarsen_threshold] = -1
    flags[(flags == 1) & (mesh.level >= mesh.max_level)] = 0
    flags[(flags == -1) & (mesh.level == 0)] = 0
    return flags


def enforce_balance_int64(mesh: AmrMesh, flags: np.ndarray) -> np.ndarray:
    """``enforce_balance`` on int64 levels, masks rebuilt every pass."""
    flags = np.array(flags, dtype=np.int8, copy=True)
    flags[(flags == 1) & (mesh.level >= mesh.max_level)] = 0
    flags[(flags == -1) & (mesh.level == 0)] = 0
    neighbors = (mesh.nlft, mesh.nrht, mesh.nbot, mesh.ntop)
    for _ in range(int(mesh.max_level) + 2):
        new_level = mesh.level.astype(np.int64) + (flags == 1)
        forced = np.zeros(mesh.ncells, dtype=bool)
        for nbr in neighbors:
            deficit = new_level - new_level[nbr] > 1
            forced[nbr[deficit]] = True
        forced &= flags != 1
        forced &= mesh.level < mesh.max_level
        if not forced.any():
            break
        flags[forced] = 1
    new_level = mesh.level.astype(np.int64) + (flags == 1)
    coarsen = flags == -1
    for nbr in neighbors:
        bad = coarsen & (new_level[nbr] > mesh.level)
        flags[bad] = 0
        nbr_coarsens = flags[nbr] == -1
        bad_nbr = nbr_coarsens & (new_level > mesh.level[nbr].astype(np.int64))
        flags[nbr[bad_nbr]] = 0
        coarsen = flags == -1
    return flags


def regrid_masked_assemble(
    mesh: AmrMesh, state: ShallowWaterState, flags: np.ndarray
) -> tuple[AmrMesh, ShallowWaterState]:
    """``regrid`` through :func:`enforce_balance_int64` and boolean-mask assembly."""
    flags = enforce_balance_int64(mesh, flags)

    refine = flags == 1
    groups = _sibling_groups(mesh, flags == -1)
    in_group = np.zeros(mesh.ncells, dtype=bool)
    in_group[groups.ravel()] = True
    keep = ~refine & ~in_group
    ref = np.flatnonzero(refine)
    first = groups[:, 0]

    def assemble(X, children, parents):
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
    sdtype = state.state_dtype
    quarter = sdtype.type(0.25)
    H, U, V = (
        assemble(X, np.tile(X[ref], 4), X[groups].sum(axis=1, dtype=sdtype) * quarter)
        for X in (state.H, state.U, state.V)
    )
    return out_mesh, ShallowWaterState(H=H, U=U, V=V, policy=state.policy)


# -- SELF: per-direction face routines, explicit einsum subscripts ------------


def self_flux(solver, U, pprime, vel, mom):
    F = U * vel[:, None]
    F[:, mom] += pprime
    p_full = pprime + solver.p_bar
    F[:, RHOE] += p_full * vel
    return F


def self_llf(solver, UL, UR, pL, pR, pbar, mom):
    half = solver.dtype.type(0.5)
    rhoL = UL[:, RHO]
    rhoR = UR[:, RHO]
    velL = UL[:, mom] / rhoL
    velR = UR[:, mom] / rhoR
    pfullL = pL + pbar
    pfullR = pR + pbar
    cL = np.sqrt(solver._gamma * pfullL / rhoL)
    cR = np.sqrt(solver._gamma * pfullR / rhoR)
    lam = np.maximum(np.abs(velL) + cL, np.abs(velR) + cR)
    FL = UL * velL[:, None]
    FL[:, mom] += pL
    FL[:, RHOE] += pfullL * velL
    FR = UR * velR[:, None]
    FR[:, mom] += pR
    FR[:, RHOE] += pfullR * velR
    return half * (FL + FR) - half * lam[:, None] * (UR - UL)


def self_surface_x(solver, U, pprime, out, F):
    neighbors = solver.mesh.neighbors()
    mx = solver.metric[0]
    lift = mx / solver.w_end
    xp = neighbors["xp"]
    has = np.flatnonzero(xp >= 0)
    if has.size:
        eL, eR = has, xp[has]
        UL = U[eL][:, :, -1, :, :]
        UR = U[eR][:, :, 0, :, :]
        star = self_llf(solver, UL, UR, pprime[eL][:, -1], pprime[eR][:, 0], solver.p_bar[eL][:, -1], RHOU)
        out[eL, :, -1, :, :] -= lift * (star - F[eL][:, :, -1, :, :])
        out[eR, :, 0, :, :] += lift * (star - F[eR][:, :, 0, :, :])
    for side, idx in (("xm", 0), ("xp", -1)):
        wall = np.flatnonzero(neighbors[side] < 0)
        if wall.size == 0:
            continue
        Uw = U[wall][:, :, idx, :, :]
        Um = Uw.copy()
        Um[:, RHOU] = -Um[:, RHOU]
        pw = pprime[wall][:, idx]
        pb = solver.p_bar[wall][:, idx]
        if idx == -1:
            star = self_llf(solver, Uw, Um, pw, pw, pb, RHOU)
            out[wall, :, -1, :, :] -= lift * (star - F[wall][:, :, -1, :, :])
        else:
            star = self_llf(solver, Um, Uw, pw, pw, pb, RHOU)
            out[wall, :, 0, :, :] += lift * (star - F[wall][:, :, 0, :, :])


def self_surface_y(solver, U, pprime, out, F):
    neighbors = solver.mesh.neighbors()
    my = solver.metric[1]
    lift = my / solver.w_end
    yp = neighbors["yp"]
    has = np.flatnonzero(yp >= 0)
    if has.size:
        eL, eR = has, yp[has]
        UL = U[eL][:, :, :, -1, :]
        UR = U[eR][:, :, :, 0, :]
        star = self_llf(solver, UL, UR, pprime[eL][:, :, -1], pprime[eR][:, :, 0], solver.p_bar[eL][:, :, -1], RHOV)
        out[eL, :, :, -1, :] -= lift * (star - F[eL][:, :, :, -1, :])
        out[eR, :, :, 0, :] += lift * (star - F[eR][:, :, :, 0, :])
    for side, idx in (("ym", 0), ("yp", -1)):
        wall = np.flatnonzero(neighbors[side] < 0)
        if wall.size == 0:
            continue
        Uw = U[wall][:, :, :, idx, :]
        Um = Uw.copy()
        Um[:, RHOV] = -Um[:, RHOV]
        pw = pprime[wall][:, :, idx]
        pb = solver.p_bar[wall][:, :, idx]
        if idx == -1:
            star = self_llf(solver, Uw, Um, pw, pw, pb, RHOV)
            out[wall, :, :, -1, :] -= lift * (star - F[wall][:, :, :, -1, :])
        else:
            star = self_llf(solver, Um, Uw, pw, pw, pb, RHOV)
            out[wall, :, :, 0, :] += lift * (star - F[wall][:, :, :, 0, :])


def self_surface_z(solver, U, pprime, out, F):
    neighbors = solver.mesh.neighbors()
    mz = solver.metric[2]
    lift = mz / solver.w_end
    zp = neighbors["zp"]
    has = np.flatnonzero(zp >= 0)
    if has.size:
        eL, eR = has, zp[has]
        UL = U[eL][:, :, :, :, -1]
        UR = U[eR][:, :, :, :, 0]
        star = self_llf(
            solver, UL, UR, pprime[eL][:, :, :, -1], pprime[eR][:, :, :, 0], solver.p_bar[eL][:, :, :, -1], RHOW
        )
        out[eL, :, :, :, -1] -= lift * (star - F[eL][:, :, :, :, -1])
        out[eR, :, :, :, 0] += lift * (star - F[eR][:, :, :, :, 0])
    for side, idx in (("zm", 0), ("zp", -1)):
        wall = np.flatnonzero(neighbors[side] < 0)
        if wall.size == 0:
            continue
        Uw = U[wall][:, :, :, :, idx]
        Um = Uw.copy()
        Um[:, RHOW] = -Um[:, RHOW]
        pw = pprime[wall][:, :, :, idx]
        pb = solver.p_bar[wall][:, :, :, idx]
        if idx == -1:
            star = self_llf(solver, Uw, Um, pw, pw, pb, RHOW)
            out[wall, :, :, :, -1] -= lift * (star - F[wall][:, :, :, :, -1])
        else:
            star = self_llf(solver, Um, Uw, pw, pw, pb, RHOW)
            out[wall, :, :, :, 0] += lift * (star - F[wall][:, :, :, :, 0])


def self_rhs_per_direction(solver, U):
    """``CompressibleEuler.rhs`` with three surface copies and nine ``_llf`` calls."""
    D = solver.D
    mx, my, mz = solver.metric
    rho, u, v, w, p = solver.primitives(U)
    pprime = p - solver.p_bar
    out = np.empty_like(U)
    Fx = self_flux(solver, U, pprime, u, RHOU)
    np.einsum("il,evljk->evijk", D, Fx, out=out)
    out *= -mx
    Fy = self_flux(solver, U, pprime, v, RHOV)
    out -= my * np.einsum("jl,evilk->evijk", D, Fy)
    Fz = self_flux(solver, U, pprime, w, RHOW)
    out -= mz * np.einsum("kl,evijl->evijk", D, Fz)
    self_surface_x(solver, U, pprime, out, Fx)
    self_surface_y(solver, U, pprime, out, Fy)
    self_surface_z(solver, U, pprime, out, Fz)
    out[:, RHOW] -= solver._g * (rho - solver.rho_bar)
    out[:, RHOE] -= solver._g * U[:, RHOW]
    return out


def _viscous_grad(solver, field):
    D = solver.D
    mx, my, mz = solver.metric
    gx = mx * np.einsum("il,eljk->eijk", D, field)
    gy = my * np.einsum("jl,eilk->eijk", D, field)
    gz = mz * np.einsum("kl,eijl->eijk", D, field)
    return gx, gy, gz


def _viscous_div(solver, fx, fy, fz):
    D = solver.D
    mx, my, mz = solver.metric
    return (
        mx * np.einsum("il,eljk->eijk", D, fx)
        + my * np.einsum("jl,eilk->eijk", D, fy)
        + mz * np.einsum("kl,eijl->eijk", D, fz)
    )


def _interface_penalty_add_at(op, u, v, w, T, out):
    solver = op.solver
    w_end = solver.basis.weights[-1]
    neighbors = solver.mesh.neighbors()
    mx, my, mz = solver.metric
    fields = ((RHOU, u, op.mu), (RHOV, v, op.mu), (RHOW, w, op.mu), (RHOE, T, op.kappa))

    def apply(direction, metric, take_minus, take_plus, assign_minus, assign_plus):
        plus = neighbors[direction]
        has = np.flatnonzero(plus >= 0)
        if has.size == 0:
            return
        eL, eR = has, plus[has]
        lift = metric / w_end
        for slot, q, coeff in fields:
            sigma = op.penalty * coeff * metric * op.dtype.type(0.5)
            jump = take_plus(q, eL) - take_minus(q, eR)
            assign_plus(out, slot, eL, -lift * sigma * jump)
            assign_minus(out, slot, eR, lift * sigma * jump)

    apply(
        "xp",
        mx,
        lambda q, e: q[e][:, 0, :, :],
        lambda q, e: q[e][:, -1, :, :],
        lambda o, s, e, val: np.add.at(o, (e, s, 0), val),
        lambda o, s, e, val: np.add.at(o, (e, s, -1), val),
    )
    apply(
        "yp",
        my,
        lambda q, e: q[e][:, :, 0, :],
        lambda q, e: q[e][:, :, -1, :],
        lambda o, s, e, val: np.add.at(o, (e, s, slice(None), 0), val),
        lambda o, s, e, val: np.add.at(o, (e, s, slice(None), -1), val),
    )
    apply(
        "zp",
        mz,
        lambda q, e: q[e][:, :, :, 0],
        lambda q, e: q[e][:, :, :, -1],
        lambda o, s, e, val: np.add.at(o, (e, s, slice(None), slice(None), 0), val),
        lambda o, s, e, val: np.add.at(o, (e, s, slice(None), slice(None), -1), val),
    )


def viscous_add_rhs_per_direction(op, U, out):
    """``ViscousOperator.add_rhs`` with explicit einsums and the ``np.add.at`` penalty."""
    solver = op.solver
    rho, u, v, w, p = solver.primitives(U)
    T = p / (op.dtype.type(solver.constants.gas_constant) * rho)
    ux, uy, uz = _viscous_grad(solver, u)
    vx, vy, vz = _viscous_grad(solver, v)
    wx, wy, wz = _viscous_grad(solver, w)
    divu = ux + vy + wz
    mu = op.mu
    tau_xx = mu * (ux + ux - op._third2 * divu)
    tau_yy = mu * (vy + vy - op._third2 * divu)
    tau_zz = mu * (wz + wz - op._third2 * divu)
    tau_xy = mu * (uy + vx)
    tau_xz = mu * (uz + wx)
    tau_yz = mu * (vz + wy)
    Tx, Ty, Tz = _viscous_grad(solver, T)
    qx = -op.kappa * Tx
    qy = -op.kappa * Ty
    qz = -op.kappa * Tz
    out[:, RHOU] += _viscous_div(solver, tau_xx, tau_xy, tau_xz)
    out[:, RHOV] += _viscous_div(solver, tau_xy, tau_yy, tau_yz)
    out[:, RHOW] += _viscous_div(solver, tau_xz, tau_yz, tau_zz)
    ex = tau_xx * u + tau_xy * v + tau_xz * w - qx
    ey = tau_xy * u + tau_yy * v + tau_yz * w - qy
    ez = tau_xz * u + tau_yz * v + tau_zz * w - qz
    out[:, RHOE] += _viscous_div(solver, ex, ey, ez)
    if op.penalty > 0:
        _interface_penalty_add_at(op, u, v, w, T, out)


def apply_filter_3d_explicit(field, F):
    """``apply_filter_3d`` with its three spelled-out einsum subscripts."""
    out = np.einsum("ai,...ijk->...ajk", F, field)
    out = np.einsum("bj,...ajk->...abk", F, out)
    return np.einsum("ck,...abk->...abc", F, out)


def rk3_step_allocating(rhs, U, k, dt):
    """``LowStorageRK3.step``'s stage loop with fresh product tensors; mutates ``U`` and ``k``."""
    ftype = U.dtype.type
    dt_c = ftype(dt)
    for a, b in zip(_A, _B):
        np.multiply(k, ftype(a), out=k)
        k += dt_c * rhs(U)
        U += ftype(b) * k
    return U


def filter_step_allocating(U, background, F):
    """The SELF filter step as a new tensor: background + filter(U - background)."""
    return background + apply_filter_3d_explicit(U - background, F)
