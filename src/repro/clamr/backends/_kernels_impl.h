/* Kernel bodies for the "cext" backend — a line-for-line C rendering of
 * backends/loops.py (which in turn replays the NumPy kernels per-element).
 *
 * Included twice by _kernels.c with:
 *   T      compute type (float | double)
 *   FN(x)  name suffixer (x##_f32 | x##_f64)
 *   KSQRT  correctly-rounded sqrt for T (sqrtf | sqrt)
 *   KFABS  |x| for T (fabsf | fabs)
 *
 * Bit-identity with the NumPy oracle relies on compiling WITHOUT value
 * transformations: -ffp-contract=off (no FMA fusion), no -ffast-math /
 * -funsafe-math-optimizations. On x86-64 SSE, FLT_EVAL_METHOD == 0, so
 * every float op rounds to float — the same single rounding per op NumPy
 * performs. Expression shapes below copy loops.py exactly; see that file
 * for the replay contract (np.maximum semantics, scatter order, etc.).
 *
 * The non-static definitions are the exports, exactly loops.__all__:
 * clamr_rhs (every CLAMR scheme and bottom) and self_max_metric.
 */

static inline T FN(npmax)(T a, T b) { return (a > b || a != a) ? a : b; }

/* Rusanov flux on one face; n/t are normal/tangent momenta. */
static inline void FN(rusanov)(
    T hL, T nl, T tl, T hR, T nr, T tr,
    T g, T half, T hg,
    T *fh, T *fn, T *ft)
{
    T velL = nl / hL;
    T velR = nr / hR;
    T cL = KSQRT(hL * g);
    T cR = KSQRT(hR * g);
    T lam2 = FN(npmax)(KFABS(velL) + cL, KFABS(velR) + cR) * half;
    *fh = (nl + nr) * half - (hR - hL) * lam2;
    *fn = ((nl * velL + (hL * hg) * hL) + (nr * velR + (hR * hg) * hR)) * half
          - (nr - nl) * lam2;
    *ft = (tl * velL + tr * velR) * half - (tr - tl) * lam2;
}

/* Well-balanced (Audusse hydrostatic reconstruction) flux on one face. */
static inline void FN(wellbalanced)(
    T hL, T nl, T tl, T hR, T nr, T tr, T bl, T br,
    T g, T half, T hg, T zero,
    T *fh, T *phiL, T *phiR, T *ft)
{
    T bstar = FN(npmax)(bl, br);
    T hsL = FN(npmax)((hL + bl) - bstar, zero);
    T hsR = FN(npmax)((hR + br) - bstar, zero);
    T velL = nl / hL;
    T velR = nr / hR;
    T nsL = hsL * velL;
    T nsR = hsR * velR;
    T tsL = hsL * (tl / hL);
    T tsR = hsR * (tr / hR);
    T cL = KSQRT(g * hsL);
    T cR = KSQRT(g * hsR);
    T lam2 = half * FN(npmax)(KFABS(velL) + cL, KFABS(velR) + cR);
    T fn, fnL, fnR;
    *fh = half * (nsL + nsR) - lam2 * (hsR - hsL);
    fnL = nsL * velL + (hg * hsL) * hsL;
    fnR = nsR * velR + (hg * hsR) * hsR;
    fn = half * (fnL + fnR) - lam2 * (nsR - nsL);
    *ft = half * (tsL * velL + tsR * velR) - lam2 * (tsR - tsL);
    *phiL = (fn - (hg * hsL) * hsL) + (hg * hL) * hL;
    *phiR = (fn - (hg * hsR) * hsR) + (hg * hR) * hR;
}

/* Reflective walls, side order left|right|bottom|top (bit contract). */
static void FN(boundary)(
    const T *H, const T *U, const T *V,
    const int64_t *bcells, const int64_t *boff, const T *size,
    T *dH, T *dU, T *dV,
    T g, T half, T hg)
{
    int64_t k;
    T fh, fn, ft, fs;
    for (k = boff[0]; k < boff[1]; k++) { /* left wall */
        int64_t c = bcells[k];
        FN(rusanov)(H[c], -U[c], V[c], H[c], U[c], V[c], g, half, hg, &fh, &fn, &ft);
        fs = size[c];
        dH[c] += fh * fs; dU[c] += fn * fs; dV[c] += ft * fs;
    }
    for (k = boff[1]; k < boff[2]; k++) { /* right wall */
        int64_t c = bcells[k];
        FN(rusanov)(H[c], U[c], V[c], H[c], -U[c], V[c], g, half, hg, &fh, &fn, &ft);
        fs = size[c];
        dH[c] -= fh * fs; dU[c] -= fn * fs; dV[c] -= ft * fs;
    }
    for (k = boff[2]; k < boff[3]; k++) { /* bottom wall: normal is V */
        int64_t c = bcells[k];
        FN(rusanov)(H[c], -V[c], U[c], H[c], V[c], U[c], g, half, hg, &fh, &fn, &ft);
        fs = size[c];
        dH[c] += fh * fs; dV[c] += fn * fs; dU[c] += ft * fs;
    }
    for (k = boff[3]; k < boff[4]; k++) { /* top wall */
        int64_t c = bcells[k];
        FN(rusanov)(H[c], V[c], U[c], H[c], -V[c], U[c], g, half, hg, &fh, &fn, &ft);
        fs = size[c];
        dH[c] -= fh * fs; dV[c] -= fn * fs; dU[c] -= ft * fs;
    }
}

static inline T FN(minmod)(T a, T b, T zero)
{
    if (a * b > zero) return (KFABS(a) < KFABS(b)) ? a : b;
    return zero;
}

/* Per-cell minmod slopes of q in x and y (limited_slopes). */
static void FN(slopes)(
    const T *q,
    const int64_t *nlft, const int64_t *nrht,
    const int64_t *nbot, const int64_t *ntop,
    const T *size, int64_t ncells,
    T half, T zero, T *sx, T *sy)
{
    int64_t c;
    for (c = 0; c < ncells; c++) {
        int64_t m = nlft[c], p = nrht[c];
        T dm = (m != c) ? q[c] - q[m] : zero;
        T dp = (p != c) ? q[p] - q[c] : zero;
        T dxm = half * (size[c] + size[m]);
        T dxp = half * (size[c] + size[p]);
        sx[c] = FN(minmod)(dm / dxm, dp / dxp, zero);
        m = nbot[c]; p = ntop[c];
        dm = (m != c) ? q[c] - q[m] : zero;
        dp = (p != c) ? q[p] - q[c] : zero;
        dxm = half * (size[c] + size[m]);
        dxp = half * (size[c] + size[p]);
        sy[c] = FN(minmod)(dm / dxm, dp / dxp, zero);
    }
}

/* One face group (loops.py _axis). N/Tm are the normal/tangent momenta
 * (U/V on x, V/U on y). sH NULL: cell means; else the MUSCL
 * reconstruction (of eta when b is set) with the positivity guard.
 * b NULL: Rusanov into f0/f1/f3; else well-balanced into f0..f3. Then
 * one walk over the CSR rows; a high-side entry (s > 0) reads the
 * high-side normal flux. */
static void FN(axis)(
    const int64_t *lo, const int64_t *hi, int64_t nf,
    const T *H, const T *N, const T *Tm, const T *b, const T *eta,
    const T *sH, const T *sN, const T *sT, const T *size,
    const int32_t *ip, const int32_t *cols, const T *sgn, int64_t ncells,
    T *f0, T *f1, T *f2, T *f3, T *dH, T *dN, T *dT,
    T g, T half, T hg, T zero)
{
    const T *fhi = b ? f2 : f1;
    int64_t i, cell;
    int32_t jj;
    for (i = 0; i < nf; i++) {
        int64_t L = lo[i], R = hi[i];
        T hL = H[L], nl = N[L], tl = Tm[L];
        T hR = H[R], nr = N[R], tr = Tm[R];
        if (sH) {
            T offL = half * size[L], offR = half * size[R];
            T rhL, rhR;
            if (!b) {
                rhL = hL + sH[L] * offL;
                rhR = hR - sH[R] * offR;
            } else { /* free surface, then depth against own bottom */
                rhL = (eta[L] + sH[L] * offL) - b[L];
                rhR = (eta[R] - sH[R] * offR) - b[R];
            }
            if (!(rhL <= zero || rhR <= zero)) { /* positivity guard */
                hL = rhL;
                nl = nl + sN[L] * offL;
                tl = tl + sT[L] * offL;
                hR = rhR;
                nr = nr - sN[R] * offR;
                tr = tr - sT[R] * offR;
            }
        }
        if (!b)
            FN(rusanov)(hL, nl, tl, hR, nr, tr, g, half, hg, &f0[i], &f1[i], &f3[i]);
        else
            FN(wellbalanced)(hL, nl, tl, hR, nr, tr, b[L], b[R],
                             g, half, hg, zero, &f0[i], &f1[i], &f2[i], &f3[i]);
    }
    for (cell = 0; cell < ncells; cell++) {
        T accH = dH[cell], accN = dN[cell], accT = dT[cell];
        for (jj = ip[cell]; jj < ip[cell + 1]; jj++) {
            T s = sgn[jj];
            int64_t col = (int64_t)cols[jj];
            const T *fn = s > zero ? fhi : f1;
            accH = accH + s * f0[col];
            accN = accN + s * fn[col];
            accT = accT + s * f3[col];
        }
        dH[cell] = accH; dN[cell] = accN; dT[cell] = accT;
    }
}

/* The CLAMR spatial operator (loops.py clamr_rhs): area-weighted rates.
 * sl NULL: first order; else a 6*ncells slope buffer (sxH, syH, sxU,
 * syU, sxV, syV) and MUSCL. b NULL: flat bottom. */
void FN(clamr_rhs)(
    const T *H, const T *U, const T *V, const T *b, const T *eta,
    const int64_t *nlft, const int64_t *nrht,
    const int64_t *nbot, const int64_t *ntop,
    const T *size, int64_t ncells,
    const int64_t *xl, const int64_t *xr, int64_t nxf,
    const int32_t *xip, const int32_t *xcols, const T *xsgn,
    const int64_t *yb, const int64_t *yt, int64_t nyf,
    const int32_t *yip, const int32_t *ycols, const T *ysgn,
    const int64_t *bcells, const int64_t *boff, T *sl,
    T *f0, T *f1, T *f2, T *f3, T *dH, T *dU, T *dV,
    T g, T half)
{
    T hg = half * g;
    T zero = g - g;
    T *sxH = 0, *syH = 0, *sxU = 0, *syU = 0, *sxV = 0, *syV = 0;
    if (sl) {
        sxH = sl; syH = sl + ncells;
        sxU = sl + 2 * ncells; syU = sl + 3 * ncells;
        sxV = sl + 4 * ncells; syV = sl + 5 * ncells;
        FN(slopes)(b ? eta : H, nlft, nrht, nbot, ntop, size, ncells, half, zero, sxH, syH);
        FN(slopes)(U, nlft, nrht, nbot, ntop, size, ncells, half, zero, sxU, syU);
        FN(slopes)(V, nlft, nrht, nbot, ntop, size, ncells, half, zero, sxV, syV);
    }
    FN(axis)(xl, xr, nxf, H, U, V, b, eta, sxH, sxU, sxV, size,
             xip, xcols, xsgn, ncells, f0, f1, f2, f3, dH, dU, dV, g, half, hg, zero);
    FN(axis)(yb, yt, nyf, H, V, U, b, eta, syH, syV, syU, size,
             yip, ycols, ysgn, ncells, f0, f1, f2, f3, dH, dV, dU, g, half, hg, zero);
    FN(boundary)(H, U, V, bcells, boff, size, dH, dU, dV, g, half, hg);
}

/* One node of CompressibleEuler.max_wave_speed_metric. */
static inline T FN(metric_total)(
    const T *Uf, int64_t t, int64_t n3,
    T mx, T my, T mz, T gamma_, T gm1, T half)
{
    int64_t e = t / n3;
    int64_t k = t - e * n3;
    int64_t o = e * (5 * n3) + k;
    T rho = Uf[o];
    T u = Uf[o + n3] / rho;
    T v = Uf[o + 2 * n3] / rho;
    T w = Uf[o + 3 * n3] / rho;
    T E = Uf[o + 4 * n3];
    T kinetic = (half * rho) * ((u * u + v * v) + w * w);
    T p = gm1 * (E - kinetic);
    T c = KSQRT((gamma_ * p) / rho);
    return (mx * (KFABS(u) + c) + my * (KFABS(v) + c)) + mz * (KFABS(w) + c);
}

/* max over nodes of the metric-weighted wave speed (SELF CFL). */
T FN(self_max_metric)(
    const T *Uf, int64_t nelem, int64_t n3,
    T mx, T my, T mz, T gamma_, T gm1, T half)
{
    int64_t t, total = nelem * n3;
    T m = FN(metric_total)(Uf, 0, n3, mx, my, mz, gamma_, gm1, half);
    for (t = 1; t < total; t++)
        m = FN(npmax)(m, FN(metric_total)(Uf, t, n3, mx, my, mz, gamma_, gm1, half));
    return m;
}
