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
well-balanced normal momentum walks the same rows sided: an entry stored
``+fsz`` sits on its face's high side and reads the high-side flux, as
the sided ``ScatterPlan.apply`` does.

Argument conventions (shared verbatim by the C backend, see
``_kernels_impl.h``): state/geometry arrays are 1-D contiguous of the
compute dtype; face index lists are int64; CSR ``indptr``/``cols`` are
int32 (as built by ``ScatterPlan``); ``boff`` is the 5-element int64
boundary side offset table from ``boundary_concat()``
(``[left0, right0, bottom0, top0, nb]``).
"""

from __future__ import annotations

import numpy as np

__all__ = ["clamr_rhs", "self_max_metric"]


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
