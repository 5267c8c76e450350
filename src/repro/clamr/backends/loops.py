"""Loop-form kernel bodies — the single source of the loop backends.

Every function here is a straight element-at-a-time transliteration of the
NumPy kernels in :mod:`repro.clamr.kernels` / :mod:`repro.clamr.muscl`,
written so that

* executed by CPython over NumPy *scalars* ("python" backend) the
  arithmetic replays the array kernels' per-element operation sequence
  bit-for-bit, and
* rendered in C ("cext" backend, ``_kernels_impl.h``) the same property
  holds, because every operation is a single correctly-rounded IEEE-754
  op on values of the compute dtype.  The C uses the same expressions;
  it writes the branches as selects and computes the three quantities'
  slopes in one pass, so that the compiler can vectorize its loops.

The bit contract imposes three authoring rules:

1. **No bare float literals.**  C evaluates ``x * 0.5`` at double even
   when ``x`` is float, which would change the rounding of every float32
   intermediate.  All constants — gravity, 0.5 — arrive as arguments
   already cast to the compute dtype; derived constants (``hg = half *
   g``, ``zero = g - g``) are computed from them with exact operations.
2. **Comparison-based max replays NumPy's.**  ``np.maximum`` is
   ``(a > b or isnan(a)) ? a : b`` — NaN-propagating, and *not* the same
   as ``max(a, b)`` for NaNs or signed zeros.  :func:`_npmax` spells that
   formula out; reductions fold it left-to-right, which matches ufunc
   pairwise reduction because max selection is associative in value.
3. **Expression shapes copy the NumPy source.**  Where the array kernel
   computes ``0.5 * (a + b) - 0.5 * lam * (c - d)``, the loop computes
   ``half * (a + b) - (half * lam) * (c - d)`` — the same roundings in
   the same order, relying only on the exact commutativity of IEEE-754
   ``+``/``*``.  Comments cite the array expression being replayed.

The CSR scatters replay scipy's ``csr_matvec`` accumulation (strict
left-to-right in stored order — the same order ``np.add.at`` uses, by
:class:`~repro.clamr.kernels.ScatterPlan` construction).  The
well-balanced normal momentum walks the same rows sided: an entry stored
``+fsz`` sits on its face's high side and reads the high-side flux, as
the sided ``ScatterPlan.apply`` does.

The regrid topology builders (:func:`mesh_neighbors` through
:func:`enforce_balance`) are integer work plus the order-free max and
compare work of the refinement indicator, so they replay the NumPy
builders in :mod:`repro.clamr.mesh`, :mod:`repro.clamr.kernels` and
:mod:`repro.clamr.amr` exactly under any traversal that keeps each
output's order; the C twins carry no compute type and serve every
precision policy.  Each writes into caller-allocated arrays; a nonzero
status tells the caller to run the NumPy form (and raise its errors).

Argument conventions (shared verbatim by the C backend, see
``_kernels_impl.h``): state/geometry arrays are 1-D contiguous of the
compute dtype; mesh arrays (``i``, ``j``, ``level``, neighbors) are
int32; face index lists are int64; CSR ``indptr``/``cols`` are int32 (as
built by ``ScatterPlan``); ``boff`` is the 5-element int64 boundary side
offset table from ``boundary_concat()`` (``[left0, right0, bottom0,
top0, nb]``).
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "clamr_rhs",
    "heun_stage",
    "mesh_neighbors",
    "face_count",
    "face_fill",
    "refinement_flags",
    "enforce_balance",
]


def _npmax(a, b):
    """``np.maximum`` for scalars: NaN-propagating, numpy tie behavior."""
    if a > b or a != a:
        return a
    return b


def _rusanov(hL, nl, tl, hR, nr, tr, g, half, hg):
    """One face of ``kernels._rusanov_into``, scalarized.

    ``n``/``t`` are the face-normal and face-tangent momenta.  Returns
    ``(f_h, f_normal, f_tangent)``.
    """
    velL = nl / hL
    velR = nr / hR
    cL = np.sqrt(hL * g)
    cR = np.sqrt(hR * g)
    # lam2 = 0.5 * max(|velL|+cL, |velR|+cR), reused by all three fluxes
    lam2 = _npmax(np.abs(velL) + cL, np.abs(velR) + cR) * half
    fh = (nl + nr) * half - (hR - hL) * lam2
    fn = ((nl * velL + (hL * hg) * hL) + (nr * velR + (hR * hg) * hR)) * half - (nr - nl) * lam2
    ft = (tl * velL + tr * velR) * half - (tr - tl) * lam2
    return fh, fn, ft


def _wellbalanced(hL, nl, tl, hR, nr, tr, bl, br, g, half, hg, zero):
    """One face of ``kernels._wellbalanced_into`` (Audusse reconstruction), scalarized.

    Returns ``(f_h, phi_L, phi_R, f_tangent)`` — the per-side effective
    normal-momentum fluxes, exactly as the array kernel.
    """
    bstar = _npmax(bl, br)
    hsL = _npmax((hL + bl) - bstar, zero)
    hsR = _npmax((hR + br) - bstar, zero)
    velL = nl / hL
    velR = nr / hR
    nsL = hsL * velL
    nsR = hsR * velR
    tsL = hsL * (tl / hL)
    tsR = hsR * (tr / hR)
    cL = np.sqrt(g * hsL)
    cR = np.sqrt(g * hsR)
    lam2 = half * _npmax(np.abs(velL) + cL, np.abs(velR) + cR)
    fh = half * (nsL + nsR) - lam2 * (hsR - hsL)
    fnL = nsL * velL + (hg * hsL) * hsL
    fnR = nsR * velR + (hg * hsR) * hsR
    fn = half * (fnL + fnR) - lam2 * (nsR - nsL)
    ft = half * (tsL * velL + tsR * velR) - lam2 * (tsR - tsL)
    phiL = (fn - (hg * hsL) * hsL) + (hg * hL) * hL
    phiR = (fn - (hg * hsR) * hsR) + (hg * hR) * hR
    return fh, phiL, phiR, ft


def _boundary(H, U, V, bcells, boff, size, dH, dU, dV, g, half, hg):
    """Reflective-wall fluxes, side by side in left|right|bottom|top order.

    Replays ``_reflective_walls``: corner cells accumulate in the same
    side order.
    """
    for k in range(boff[0], boff[1]):  # left wall: interior right of it
        c = bcells[k]
        fh, fn, ft = _rusanov(H[c], -U[c], V[c], H[c], U[c], V[c], g, half, hg)
        fs = size[c]
        dH[c] += fh * fs
        dU[c] += fn * fs
        dV[c] += ft * fs
    for k in range(boff[1], boff[2]):  # right wall: interior left of it
        c = bcells[k]
        fh, fn, ft = _rusanov(H[c], U[c], V[c], H[c], -U[c], V[c], g, half, hg)
        fs = size[c]
        dH[c] -= fh * fs
        dU[c] -= fn * fs
        dV[c] -= ft * fs
    for k in range(boff[2], boff[3]):  # bottom wall (normal momentum is V)
        c = bcells[k]
        fh, fn, ft = _rusanov(H[c], -V[c], U[c], H[c], V[c], U[c], g, half, hg)
        fs = size[c]
        dH[c] += fh * fs
        dV[c] += fn * fs
        dU[c] += ft * fs
    for k in range(boff[3], boff[4]):  # top wall
        c = bcells[k]
        fh, fn, ft = _rusanov(H[c], V[c], U[c], H[c], -V[c], U[c], g, half, hg)
        fs = size[c]
        dH[c] -= fh * fs
        dV[c] -= fn * fs
        dU[c] -= ft * fs


def _minmod(a, b, zero):
    """Scalar minmod: smaller-magnitude argument when signs agree, else 0."""
    if a * b > zero:
        if np.abs(a) < np.abs(b):
            return a
        return b
    return zero


def _slopes(q, nlft, nrht, nbot, ntop, size, half, zero, sx, sy):
    """Per-cell minmod slopes of ``q`` in x and y (``limited_slopes``)."""
    n = q.shape[0]
    for c in range(n):
        m = nlft[c]
        p = nrht[c]
        dm = q[c] - q[m] if m != c else zero
        dp = q[p] - q[c] if p != c else zero
        dxm = half * (size[c] + size[m])
        dxp = half * (size[c] + size[p])
        sx[c] = _minmod(dm / dxm, dp / dxp, zero)
        m = nbot[c]
        p = ntop[c]
        dm = q[c] - q[m] if m != c else zero
        dp = q[p] - q[c] if p != c else zero
        dxm = half * (size[c] + size[m])
        dxp = half * (size[c] + size[p])
        sy[c] = _minmod(dm / dxm, dp / dxp, zero)


def _axis(
    lo, hi, H, N, T, b, eta, sH, sN, sT, size,
    ip, cols, sgn, f0, f1, f2, f3, dH, dN, dT,
    g, half, hg, zero,
):
    """One face group of ``muscl_rhs`` / ``finite_diff_vectorized``.

    ``N``/``T`` are the face-normal and face-tangent momenta (U/V for the
    x group, V/U for the y group), ``dN``/``dT`` their accumulators.
    With ``sH`` None the face states are the cell means (first order);
    otherwise each side is reconstructed from the slopes ``sH/sN/sT`` —
    of the free surface ``eta`` when ``b`` is set — and the positivity
    guard falls back to the cell means.  ``b`` None selects the Rusanov
    flux, else the well-balanced one.  Fluxes land in ``f0`` (depth),
    ``f1``/``f2`` (low-/high-side normal momentum; Rusanov writes only
    ``f1``, the antisymmetric flux) and ``f3`` (tangent), then one walk
    over the CSR rows ``ip/cols/sgn`` replays ``ScatterPlan.apply``.
    """
    for i in range(lo.shape[0]):
        L = lo[i]
        R = hi[i]
        hL = H[L]
        nl = N[L]
        tl = T[L]
        hR = H[R]
        nr = N[R]
        tr = T[R]
        if sH is not None:
            offL = half * size[L]
            offR = half * size[R]
            if b is None:
                rhL = hL + sH[L] * offL
                rhR = hR - sH[R] * offR
            else:
                # reconstruct the free surface, then recover the depth
                # against the cell's own bottom
                rhL = (eta[L] + sH[L] * offL) - b[L]
                rhR = (eta[R] - sH[R] * offR) - b[R]
            if not (rhL <= zero or rhR <= zero):  # positivity guard
                hL = rhL
                nl = nl + sN[L] * offL
                tl = tl + sT[L] * offL
                hR = rhR
                nr = nr - sN[R] * offR
                tr = tr - sT[R] * offR
        if b is None:
            f0[i], f1[i], f3[i] = _rusanov(hL, nl, tl, hR, nr, tr, g, half, hg)
        else:
            f0[i], f1[i], f2[i], f3[i] = _wellbalanced(
                hL, nl, tl, hR, nr, tr, b[L], b[R], g, half, hg, zero
            )
    # a high-side entry (stored +fsz) reads the high-side normal flux
    fhi = f1 if b is None else f2
    for cell in range(dH.shape[0]):
        accH = dH[cell]
        accN = dN[cell]
        accT = dT[cell]
        for jj in range(ip[cell], ip[cell + 1]):
            s = sgn[jj]
            col = cols[jj]
            accH = accH + s * f0[col]
            accN = accN + s * (fhi[col] if s > zero else f1[col])
            accT = accT + s * f3[col]
        dH[cell] = accH
        dN[cell] = accN
        dT[cell] = accT


def clamr_rhs(
    H, U, V, b, eta,
    nlft, nrht, nbot, ntop, size,
    xl, xr, xip, xcols, xsgn,
    yb, yt, yip, ycols, ysgn,
    bcells, boff, sl,
    f0, f1, f2, f3, dH, dU, dV,
    g, half,
):
    """The CLAMR spatial operator: area-weighted rates into ``dH/dU/dV``.

    One body for both schemes and both bottoms.  ``sl`` None runs the
    first-order step (``finite_diff_vectorized``'s rates); a ``(6,
    ncells)`` slope buffer runs ``muscl_rhs`` (rows sxH, syH, sxU, syU,
    sxV, syV; the neighbor arrays are read only then).  ``b`` None is a
    flat bottom; with ``b`` set the interior faces take the well-balanced
    flux and MUSCL reconstructs ``eta = H + b``.  ``dH/dU/dV`` arrive
    zeroed; ``f0..f3`` are flux scratch of length ``max(len(xl),
    len(yb))``.  The x group scatters strictly before the y group (the
    per-cell accumulation order contract), then the walls.
    """
    hg = half * g
    zero = g - g
    sxH = syH = sxU = syU = sxV = syV = None
    if sl is not None:
        sxH, syH, sxU, syU, sxV, syV = sl
        _slopes(H if b is None else eta, nlft, nrht, nbot, ntop, size, half, zero, sxH, syH)
        _slopes(U, nlft, nrht, nbot, ntop, size, half, zero, sxU, syU)
        _slopes(V, nlft, nrht, nbot, ntop, size, half, zero, sxV, syV)
    _axis(xl, xr, H, U, V, b, eta, sxH, sxU, sxV, size,
          xip, xcols, xsgn, f0, f1, f2, f3, dH, dU, dV, g, half, hg, zero)
    _axis(yb, yt, H, V, U, b, eta, syH, syV, syU, size,
          yip, ycols, ysgn, f0, f1, f2, f3, dH, dV, dU, g, half, hg, zero)
    _boundary(H, U, V, bcells, boff, size, dH, dU, dV, g, half, hg)


def _heun_row(q0, a, b, scale, half, q):
    """One row of :func:`heun_stage`."""
    if b is None:
        for c in range(q0.shape[0]):
            q[c] = q0[c] + a[c] * scale[c]
        return
    for c in range(q0.shape[0]):
        q[c] = q0[c] + (half * (a[c] + b[c])) * scale[c]


def heun_stage(H0, U0, V0, aH, aU, aV, bH, bU, bV, scale, half, H, U, V):
    """One Heun stage of ``finite_diff_muscl`` into ``H/U/V``.

    ``bH`` None: the predictor ``q0 + a * scale``; else the corrector
    ``q0 + half * (a + b) * scale``.
    """
    _heun_row(H0, aH, bH, scale, half, H)
    _heun_row(U0, aU, bU, scale, half, U)
    _heun_row(V0, aV, bV, scale, half, V)


def _bad_link(n, ncells):
    return n < 0 or n >= ncells


def mesh_neighbors(i, j, level, nx, ny, max_level, img, nlft, nrht, nbot, ntop):
    """``AmrMesh.rebuild_neighbors`` on a flat ``(nyf+2)*(nxf+2)`` int32 image.

    Paints each cell's block, then probes one pixel past its lower-left
    corner (left, below), its lower-right corner (right) and its upper-left
    corner (above); a ``-1`` pixel is the border or a gap.  Returns 0, 1
    (cells overlap), 2 (gaps) or 3 (a level or block outside the domain).
    """
    nxf = int(nx) << int(max_level)
    nyf = int(ny) << int(max_level)
    w = nxf + 2
    img[:] = -1
    painted = 0
    overlap = False
    for c in range(level.shape[0]):
        if level[c] < 0 or level[c] > max_level:
            return 3
        s = 1 << (int(max_level) - int(level[c]))
        x0 = int(i[c]) * s
        y0 = int(j[c]) * s
        if x0 < 0 or y0 < 0 or x0 + s > nxf or y0 + s > nyf:
            return 3
        for dy in range(s):
            row = (y0 + dy + 1) * w + x0 + 1
            for dx in range(s):
                overlap |= img[row + dx] >= 0
                img[row + dx] = c
        painted += s * s
    if overlap:
        return 1
    if painted < nxf * nyf:  # no pixel painted twice: painted == covered
        return 2
    for c in range(level.shape[0]):
        s = 1 << (int(max_level) - int(level[c]))
        corner = (int(j[c]) * s + 1) * w + int(i[c]) * s + 1
        for out, k in ((nlft, corner - 1), (nrht, corner + s),
                       (nbot, corner - w), (ntop, corner + s * w)):
            n = img[k]
            out[c] = c if n < 0 else n
    return 0


def face_count(nlft, nrht, nbot, ntop, level, counts):
    """``FaceLists.from_mesh`` count pass into the 8 ``counts``.

    x faces owned forward (right neighbor not finer), x faces owned back
    (left neighbor coarser), the same for y, then the left, right, bottom
    and top wall cells.  Returns the number of links outside the mesh.
    """
    ncells = level.shape[0]
    k = [0] * 8
    bad = 0
    for c in range(ncells):
        l, r, b, t = nlft[c], nrht[c], nbot[c], ntop[c]
        if _bad_link(l, ncells) or _bad_link(r, ncells) or _bad_link(b, ncells) or _bad_link(t, ncells):
            bad += 1
            continue
        k[0] += r != c and level[r] <= level[c]
        k[1] += l != c and level[l] < level[c]
        k[2] += t != c and level[t] <= level[c]
        k[3] += b != c and level[b] < level[c]
        k[4] += l == c
        k[5] += r == c
        k[6] += b == c
        k[7] += t == c
    counts[:] = k
    return bad


def face_fill(nlft, nrht, nbot, ntop, level, coarse_size, counts,
              xl, xr, xsize, yb, yt, ysize, bnd):
    """``FaceLists.from_mesh`` fill pass into exact-size arrays.

    Each axis lists its forward-owned faces, then its back-owned ones, each
    in cell order, sized by the owning (finer or equal) cell; ``bnd`` holds
    the wall cells left|right|bottom|top, each side in cell order.
    """
    xf, xbk, yf, ybk = 0, int(counts[0]), 0, int(counts[2])
    wl = 0
    wr = int(counts[4])
    wb = wr + int(counts[5])
    wt = wb + int(counts[6])
    for c in range(level.shape[0]):
        l, r, b, t = nlft[c], nrht[c], nbot[c], ntop[c]
        sz = np.float64(coarse_size) / np.float64(1 << int(level[c]))
        if r != c and level[r] <= level[c]:
            xl[xf], xr[xf], xsize[xf] = c, r, sz
            xf += 1
        if l != c and level[l] < level[c]:
            xl[xbk], xr[xbk], xsize[xbk] = l, c, sz
            xbk += 1
        if t != c and level[t] <= level[c]:
            yb[yf], yt[yf], ysize[yf] = c, t, sz
            yf += 1
        if b != c and level[b] < level[c]:
            yb[ybk], yt[ybk], ysize[ybk] = b, c, sz
            ybk += 1
        if l == c:
            bnd[wl] = c
            wl += 1
        if r == c:
            bnd[wr] = c
            wr += 1
        if b == c:
            bnd[wb] = c
            wb += 1
        if t == c:
            bnd[wt] = c
            wt += 1


def refinement_flags(H, nlft, nrht, nbot, ntop, level, max_level,
                     tiny, refine, coarsen, ind, flags):
    """``refinement_flags`` after the bfloat16 quantization of ``H`` (float64).

    ``floor = max(tiny, max|H| * tiny)`` (``tiny`` when a depth is NaN, as
    Python's ``max`` leaves it for ``np.max``'s NaN).  Each stored link
    scatters its relative jump to both of its cells with a plain select; a
    NaN jump, which ``np.maximum`` would carry into an indicator that then
    flags 0, is kept in the cell's flag byte instead.  ``ind`` is scratch.
    Returns the number of links outside the mesh.
    """
    ncells = level.shape[0]
    top = np.float64(0)
    nan_h = False
    for c in range(ncells):
        a = np.abs(H[c])
        nan_h |= a != a
        top = a if a > top else top
        ind[c] = 0
        flags[c] = 0
    scaled = top * tiny
    floor = scaled if (not nan_h and scaled > tiny) else tiny
    for c in range(ncells):
        h = H[c]
        ah = np.abs(h)
        for nbr in (nlft, nrht, nbot, ntop):
            n = nbr[c]
            if _bad_link(n, ncells):
                return 1
            hn = H[n]
            ahn = np.abs(hn)
            scale = ahn if ahn > ah else ah
            scale = scale if scale > floor else floor
            jump = np.abs(hn - h) / scale
            ind[c] = jump if jump > ind[c] else ind[c]
            ind[n] = jump if jump > ind[n] else ind[n]
            flags[c] |= jump != jump
            flags[n] |= jump != jump
    for c in range(ncells):
        f = 0
        if not flags[c]:
            if ind[c] > refine:
                f = 1
            if ind[c] < coarsen:
                f = -1
            if f == 1 and level[c] >= max_level:
                f = 0
            if f == -1 and level[c] == 0:
                f = 0
        flags[c] = f
    return 0


def enforce_balance(flags, level, nlft, nrht, nbot, ntop, max_level, forced):
    """``enforce_balance`` on a copy of the flags, in place.

    Level caps; at most ``max_level + 2`` Jacobi passes in which a cell 2+
    levels (post-refinement) above a stored neighbor forces it to refine
    (``forced`` is scratch, applied after the pass); then one pass
    cancelling coarsen flags across any link that would end up unbalanced.
    Cancelling clears only -1 flags and the tests read only +1 flags, so
    the order of that pass does not matter.  Returns the number of links
    outside the mesh.
    """
    ncells = level.shape[0]
    nbrs = (nlft, nrht, nbot, ntop)
    for c in range(ncells):
        for nbr in nbrs:
            if _bad_link(nbr[c], ncells):
                return 1
    for c in range(ncells):
        if flags[c] == 1 and level[c] >= max_level:
            flags[c] = 0
        if flags[c] == -1 and level[c] == 0:
            flags[c] = 0
    for _ in range(int(max_level) + 2):
        forced[:] = 0
        for c in range(ncells):
            nl = level[c] + (flags[c] == 1)
            for nbr in nbrs:
                n = nbr[c]
                if nl - (level[n] + (flags[n] == 1)) > 1:
                    forced[n] = 1
        applied = False
        for c in range(ncells):
            if forced[c] and flags[c] != 1 and level[c] < max_level:
                flags[c] = 1
                applied = True
        if not applied:
            break
    for c in range(ncells):
        nl = level[c] + (flags[c] == 1)
        for nbr in nbrs:
            n = nbr[c]
            if flags[c] == -1 and level[n] + (flags[n] == 1) > level[c]:
                flags[c] = 0
            if flags[n] == -1 and nl > level[n]:
                flags[n] = 0
    return 0
