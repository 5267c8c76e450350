"""Loop-form kernel bodies — the single source of the loop backends.

Every function here is a straight element-at-a-time transliteration of the
NumPy kernels in :mod:`repro.clamr.kernels` / :mod:`repro.clamr.muscl` /
:mod:`repro.self_.equations`, written so that

* executed by CPython over NumPy *scalars* ("python" backend) the
  arithmetic replays the array kernels' per-element operation sequence
  bit-for-bit, and
* mirrored line for line in C ("cext" backend, ``_kernels_impl.h``) the
  same property holds, because every operation is a single
  correctly-rounded IEEE-754 op on values of the compute dtype.

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
well-balanced paths keep one full pass per (variable, side) instead: that
visits each cell's contributions in the same order — low side in face
order, then high side in face order — as the sided plan the NumPy
kernels scatter through.

Argument conventions (shared verbatim by the C backend, see
``_kernels_impl.h``): state/geometry arrays are 1-D contiguous of the
compute dtype; face index lists are int64; CSR ``indptr``/``cols`` are
int32 (as built by ``ScatterPlan``); ``boff`` is the 5-element int64
boundary side offset table from ``boundary_concat()``
(``[left0, right0, bottom0, top0, nb]``).
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "fd_flat",
    "fd_bathy",
    "muscl_flat",
    "muscl_bathy",
    "self_max_metric",
]


def _npmax(a, b):
    """``np.maximum`` for scalars: NaN-propagating, numpy tie behavior."""
    if a > b or a != a:
        return a
    return b


def _rusanov(hL, nl, tl, hR, nr, tr, g, half, hg):
    """One face of ``_rusanov_into`` (== ``_rusanov_x``), scalarized.

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
    """One face of ``_wellbalanced_x`` (Audusse reconstruction), scalarized.

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

    Replays both the fused boundary of ``finite_diff_vectorized`` and the
    per-side bathymetry/muscl application (they are bit-identical: corner
    cells accumulate in the same side order, and ``acc += (±1·f)·s`` ==
    ``acc ± f·s`` exactly).
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


def fd_flat(
    H, U, V,
    xl, xr, yb, yt,
    xip, xcols, xsgn, yip, ycols, ysgn,
    bcells, boff, size, area,
    fh, fn, ft, dH, dU, dV,
    g, half, dt,
):
    """Whole flat-bottom Rusanov step: ``finite_diff_vectorized``'s body.

    ``dH``/``dU``/``dV`` arrive zeroed and leave holding the *updated
    state* (``d·scale + old``), ready for ``state.store``.  ``fh/fn/ft``
    are face-flux scratch of length ``len(xl) + len(yb)``.
    """
    hg = half * g
    nxf = xl.shape[0]
    nyf = yb.shape[0]
    ncells = H.shape[0]
    for i in range(nxf):
        L = xl[i]
        R = xr[i]
        a, b, c = _rusanov(H[L], U[L], V[L], H[R], U[R], V[R], g, half, hg)
        fh[i] = a
        fn[i] = b
        ft[i] = c
    for i in range(nyf):  # y faces ride along with normal/tangent swapped
        B = yb[i]
        T = yt[i]
        a, b, c = _rusanov(H[B], V[B], U[B], H[T], V[T], U[T], g, half, hg)
        fh[nxf + i] = a
        fn[nxf + i] = b
        ft[nxf + i] = c
    # x-group CSR scatter strictly before y-group (per-cell accumulation
    # order contract); the fused row walk keeps each accumulator's
    # sequence identical to three csr_matvec calls
    for cell in range(ncells):
        accH = dH[cell]
        accU = dU[cell]
        accV = dV[cell]
        for jj in range(xip[cell], xip[cell + 1]):
            s = xsgn[jj]
            col = xcols[jj]
            accH = accH + s * fh[col]
            accU = accU + s * fn[col]
            accV = accV + s * ft[col]
        dH[cell] = accH
        dU[cell] = accU
        dV[cell] = accV
    for cell in range(ncells):
        accH = dH[cell]
        accU = dU[cell]
        accV = dV[cell]
        for jj in range(yip[cell], yip[cell + 1]):
            s = ysgn[jj]
            col = ycols[jj] + nxf
            accH = accH + s * fh[col]
            accU = accU + s * ft[col]  # y tangent momentum is U
            accV = accV + s * fn[col]  # y normal momentum is V
        dH[cell] = accH
        dU[cell] = accU
        dV[cell] = accV
    _boundary(H, U, V, bcells, boff, size, dH, dU, dV, g, half, hg)
    # d = d*scale + state  (np.multiply(d, scale, out=d); np.add(d, s, out=d))
    for cell in range(ncells):
        sc = dt / area[cell]
        dH[cell] = dH[cell] * sc + H[cell]
        dU[cell] = dU[cell] * sc + U[cell]
        dV[cell] = dV[cell] * sc + V[cell]


def fd_bathy(
    H, U, V, b,
    xl, xr, xsz, yb, yt, ysz,
    bcells, boff, size, area,
    f0, f1, f2, f3, dH, dU, dV,
    g, half, dt,
):
    """Well-balanced step over bathymetry: ``_finite_diff_bathy``'s body.

    The scatter runs one pass per variable and side rather than the NumPy
    path's sided CSR rows; the per-cell order is the same (low side in
    face order, then high side), so the bits are too.  ``f0..f3`` are
    flux scratch of length ``max(len(xl), len(yb))``.
    """
    hg = half * g
    zero = g - g
    nxf = xl.shape[0]
    nyf = yb.shape[0]
    ncells = H.shape[0]
    for i in range(nxf):
        L = xl[i]
        R = xr[i]
        a0, a1, a2, a3 = _wellbalanced(
            H[L], U[L], V[L], H[R], U[R], V[R], b[L], b[R], g, half, hg, zero
        )
        f0[i] = a0
        f1[i] = a1
        f2[i] = a2
        f3[i] = a3
    for i in range(nxf):
        dH[xl[i]] += -(f0[i] * xsz[i])
    for i in range(nxf):
        dH[xr[i]] += f0[i] * xsz[i]
    for i in range(nxf):
        dU[xl[i]] += -(f1[i] * xsz[i])
    for i in range(nxf):
        dU[xr[i]] += f2[i] * xsz[i]
    for i in range(nxf):
        dV[xl[i]] += -(f3[i] * xsz[i])
    for i in range(nxf):
        dV[xr[i]] += f3[i] * xsz[i]
    for i in range(nyf):  # y faces: normal momentum is V, tangent is U
        B = yb[i]
        T = yt[i]
        a0, a1, a2, a3 = _wellbalanced(
            H[B], V[B], U[B], H[T], V[T], U[T], b[B], b[T], g, half, hg, zero
        )
        f0[i] = a0
        f1[i] = a1
        f2[i] = a2
        f3[i] = a3
    for i in range(nyf):
        dH[yb[i]] += -(f0[i] * ysz[i])
    for i in range(nyf):
        dH[yt[i]] += f0[i] * ysz[i]
    for i in range(nyf):
        dU[yb[i]] += -(f3[i] * ysz[i])
    for i in range(nyf):
        dU[yt[i]] += f3[i] * ysz[i]
    for i in range(nyf):
        dV[yb[i]] += -(f1[i] * ysz[i])
    for i in range(nyf):
        dV[yt[i]] += f2[i] * ysz[i]
    _boundary(H, U, V, bcells, boff, size, dH, dU, dV, g, half, hg)
    # state.store(H + dH*scale, ...) — state-first add order
    for cell in range(ncells):
        sc = dt / area[cell]
        dH[cell] = H[cell] + dH[cell] * sc
        dU[cell] = U[cell] + dU[cell] * sc
        dV[cell] = V[cell] + dV[cell] * sc


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


def muscl_flat(
    H, U, V,
    nlft, nrht, nbot, ntop, size,
    xl, xr, yb, yt,
    xip, xcols, xsgn, yip, ycols, ysgn,
    bcells, boff,
    sxH, syH, sxU, syU, sxV, syV,
    f0, f1, f2, dH, dU, dV,
    g, half,
):
    """``muscl_rhs`` over a flat bottom: slopes → reconstruct → flux → CSR.

    ``dH/dU/dV`` arrive zeroed and leave holding the area-scaled rates
    (no dt applied — Heun's combination stays in the caller).
    """
    hg = half * g
    zero = g - g
    _slopes(H, nlft, nrht, nbot, ntop, size, half, zero, sxH, syH)
    _slopes(U, nlft, nrht, nbot, ntop, size, half, zero, sxU, syU)
    _slopes(V, nlft, nrht, nbot, ntop, size, half, zero, sxV, syV)
    nxf = xl.shape[0]
    nyf = yb.shape[0]
    ncells = H.shape[0]
    for i in range(nxf):
        L = xl[i]
        R = xr[i]
        offL = half * size[L]
        offR = half * size[R]
        hL = H[L] + sxH[L] * offL
        hR = H[R] - sxH[R] * offR
        uL = U[L] + sxU[L] * offL
        vL = V[L] + sxV[L] * offL
        uR = U[R] - sxU[R] * offR
        vR = V[R] - sxV[R] * offR
        if hL <= zero or hR <= zero:  # positivity guard: cell means
            hL = H[L]
            uL = U[L]
            vL = V[L]
            hR = H[R]
            uR = U[R]
            vR = V[R]
        a, b, c = _rusanov(hL, uL, vL, hR, uR, vR, g, half, hg)
        f0[i] = a
        f1[i] = b
        f2[i] = c
    for cell in range(ncells):
        accH = dH[cell]
        accU = dU[cell]
        accV = dV[cell]
        for jj in range(xip[cell], xip[cell + 1]):
            s = xsgn[jj]
            col = xcols[jj]
            accH = accH + s * f0[col]
            accU = accU + s * f1[col]
            accV = accV + s * f2[col]
        dH[cell] = accH
        dU[cell] = accU
        dV[cell] = accV
    for i in range(nyf):
        B = yb[i]
        T = yt[i]
        offB = half * size[B]
        offT = half * size[T]
        hB = H[B] + syH[B] * offB
        hT = H[T] - syH[T] * offT
        uB = U[B] + syU[B] * offB
        vB = V[B] + syV[B] * offB
        uT = U[T] - syU[T] * offT
        vT = V[T] - syV[T] * offT
        if hB <= zero or hT <= zero:
            hB = H[B]
            uB = U[B]
            vB = V[B]
            hT = H[T]
            uT = U[T]
            vT = V[T]
        a, b, c = _rusanov(hB, vB, uB, hT, vT, uT, g, half, hg)
        f0[i] = a
        f1[i] = b  # normal-momentum (V) flux
        f2[i] = c  # tangent-momentum (U) flux
    for cell in range(ncells):
        accH = dH[cell]
        accU = dU[cell]
        accV = dV[cell]
        for jj in range(yip[cell], yip[cell + 1]):
            s = ysgn[jj]
            col = ycols[jj]
            accH = accH + s * f0[col]
            accU = accU + s * f2[col]
            accV = accV + s * f1[col]
        dH[cell] = accH
        dU[cell] = accU
        dV[cell] = accV
    _boundary(H, U, V, bcells, boff, size, dH, dU, dV, g, half, hg)


def muscl_bathy(
    H, U, V, b, eta,
    nlft, nrht, nbot, ntop, size,
    xl, xr, xsz, yb, yt, ysz,
    bcells, boff,
    sxH, syH, sxU, syU, sxV, syV,
    f0, f1, f2, f3, dH, dU, dV,
    g, half,
):
    """``muscl_rhs`` over bathymetry: free-surface slopes + Audusse fluxes."""
    hg = half * g
    zero = g - g
    _slopes(eta, nlft, nrht, nbot, ntop, size, half, zero, sxH, syH)
    _slopes(U, nlft, nrht, nbot, ntop, size, half, zero, sxU, syU)
    _slopes(V, nlft, nrht, nbot, ntop, size, half, zero, sxV, syV)
    nxf = xl.shape[0]
    nyf = yb.shape[0]
    for i in range(nxf):
        L = xl[i]
        R = xr[i]
        offL = half * size[L]
        offR = half * size[R]
        hL = (eta[L] + sxH[L] * offL) - b[L]
        hR = (eta[R] - sxH[R] * offR) - b[R]
        uL = U[L] + sxU[L] * offL
        vL = V[L] + sxV[L] * offL
        uR = U[R] - sxU[R] * offR
        vR = V[R] - sxV[R] * offR
        if hL <= zero or hR <= zero:
            hL = H[L]
            uL = U[L]
            vL = V[L]
            hR = H[R]
            uR = U[R]
            vR = V[R]
        a0, a1, a2, a3 = _wellbalanced(
            hL, uL, vL, hR, uR, vR, b[L], b[R], g, half, hg, zero
        )
        f0[i] = a0
        f1[i] = a1
        f2[i] = a2
        f3[i] = a3
    for i in range(nxf):
        dH[xl[i]] += -(f0[i] * xsz[i])
    for i in range(nxf):
        dH[xr[i]] += f0[i] * xsz[i]
    for i in range(nxf):
        dU[xl[i]] += -(f1[i] * xsz[i])
    for i in range(nxf):
        dU[xr[i]] += f2[i] * xsz[i]
    for i in range(nxf):
        dV[xl[i]] += -(f3[i] * xsz[i])
    for i in range(nxf):
        dV[xr[i]] += f3[i] * xsz[i]
    for i in range(nyf):
        B = yb[i]
        T = yt[i]
        offB = half * size[B]
        offT = half * size[T]
        hB = (eta[B] + syH[B] * offB) - b[B]
        hT = (eta[T] - syH[T] * offT) - b[T]
        uB = U[B] + syU[B] * offB
        vB = V[B] + syV[B] * offB
        uT = U[T] - syU[T] * offT
        vT = V[T] - syV[T] * offT
        if hB <= zero or hT <= zero:
            hB = H[B]
            uB = U[B]
            vB = V[B]
            hT = H[T]
            uT = U[T]
            vT = V[T]
        a0, a1, a2, a3 = _wellbalanced(
            hB, vB, uB, hT, vT, uT, b[B], b[T], g, half, hg, zero
        )
        f0[i] = a0
        f1[i] = a1
        f2[i] = a2
        f3[i] = a3
    for i in range(nyf):
        dH[yb[i]] += -(f0[i] * ysz[i])
    for i in range(nyf):
        dH[yt[i]] += f0[i] * ysz[i]
    for i in range(nyf):
        dU[yb[i]] += -(f3[i] * ysz[i])
    for i in range(nyf):
        dU[yt[i]] += f3[i] * ysz[i]
    for i in range(nyf):
        dV[yb[i]] += -(f1[i] * ysz[i])
    for i in range(nyf):
        dV[yt[i]] += f2[i] * ysz[i]
    _boundary(H, U, V, bcells, boff, size, dH, dU, dV, g, half, hg)


def _metric_total(Uf, t, n3, mx, my, mz, gamma, gm1, half):
    """One node of ``CompressibleEuler.max_wave_speed_metric``."""
    e = t // n3
    k = t - e * n3
    o = e * (5 * n3) + k
    rho = Uf[o]
    u = Uf[o + n3] / rho
    v = Uf[o + 2 * n3] / rho
    w = Uf[o + 3 * n3] / rho
    E = Uf[o + 4 * n3]
    kinetic = (half * rho) * ((u * u + v * v) + w * w)
    p = gm1 * (E - kinetic)
    c = np.sqrt((gamma * p) / rho)
    return (mx * (np.abs(u) + c) + my * (np.abs(v) + c)) + mz * (np.abs(w) + c)


def self_max_metric(Uf, nelem, n3, mx, my, mz, gamma, gm1, half):
    """max over nodes of Σ_d m_d(|u_d| + c) — the SELF CFL denominator.

    ``Uf`` is the conserved tensor ``(nelem, 5, n, n, n)`` flattened
    C-contiguously; ``n3 = n³``.
    """
    m = _metric_total(Uf, 0, n3, mx, my, mz, gamma, gm1, half)
    for t in range(1, nelem * n3):
        m = _npmax(m, _metric_total(Uf, t, n3, mx, my, mz, gamma, gm1, half))
    return m
