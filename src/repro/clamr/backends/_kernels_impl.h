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

/* Whole flat-bottom Rusanov step (finite_diff_vectorized body). */
void FN(fd_flat)(
    const T *H, const T *U, const T *V,
    const int64_t *xl, const int64_t *xr, int64_t nxf,
    const int64_t *yb, const int64_t *yt, int64_t nyf,
    const int32_t *xip, const int32_t *xcols, const T *xsgn,
    const int32_t *yip, const int32_t *ycols, const T *ysgn,
    const int64_t *bcells, const int64_t *boff,
    const T *size, const T *area, int64_t ncells,
    T *fh, T *fn, T *ft, T *dH, T *dU, T *dV,
    T g, T half, T dt)
{
    T hg = half * g;
    int64_t i, cell;
    int32_t jj;
    for (i = 0; i < nxf; i++) {
        int64_t L = xl[i], R = xr[i];
        FN(rusanov)(H[L], U[L], V[L], H[R], U[R], V[R], g, half, hg,
                    &fh[i], &fn[i], &ft[i]);
    }
    for (i = 0; i < nyf; i++) { /* y faces: normal/tangent swapped */
        int64_t B = yb[i], Tt = yt[i];
        FN(rusanov)(H[B], V[B], U[B], H[Tt], V[Tt], U[Tt], g, half, hg,
                    &fh[nxf + i], &fn[nxf + i], &ft[nxf + i]);
    }
    for (cell = 0; cell < ncells; cell++) { /* x-group CSR scatter */
        T accH = dH[cell], accU = dU[cell], accV = dV[cell];
        for (jj = xip[cell]; jj < xip[cell + 1]; jj++) {
            T s = xsgn[jj];
            int64_t col = (int64_t)xcols[jj];
            accH = accH + s * fh[col];
            accU = accU + s * fn[col];
            accV = accV + s * ft[col];
        }
        dH[cell] = accH; dU[cell] = accU; dV[cell] = accV;
    }
    for (cell = 0; cell < ncells; cell++) { /* y-group CSR scatter */
        T accH = dH[cell], accU = dU[cell], accV = dV[cell];
        for (jj = yip[cell]; jj < yip[cell + 1]; jj++) {
            T s = ysgn[jj];
            int64_t col = (int64_t)ycols[jj] + nxf;
            accH = accH + s * fh[col];
            accU = accU + s * ft[col]; /* y tangent momentum is U */
            accV = accV + s * fn[col]; /* y normal momentum is V */
        }
        dH[cell] = accH; dU[cell] = accU; dV[cell] = accV;
    }
    FN(boundary)(H, U, V, bcells, boff, size, dH, dU, dV, g, half, hg);
    for (cell = 0; cell < ncells; cell++) { /* d = d*scale + state */
        T sc = dt / area[cell];
        dH[cell] = dH[cell] * sc + H[cell];
        dU[cell] = dU[cell] * sc + U[cell];
        dV[cell] = dV[cell] * sc + V[cell];
    }
}

/* Well-balanced bathymetry step (_finite_diff_bathy body). The scatter
 * replays the six sequential np.add.at passes per face group. */
void FN(fd_bathy)(
    const T *H, const T *U, const T *V, const T *b,
    const int64_t *xl, const int64_t *xr, const T *xsz, int64_t nxf,
    const int64_t *yb, const int64_t *yt, const T *ysz, int64_t nyf,
    const int64_t *bcells, const int64_t *boff,
    const T *size, const T *area, int64_t ncells,
    T *f0, T *f1, T *f2, T *f3, T *dH, T *dU, T *dV,
    T g, T half, T dt)
{
    T hg = half * g;
    T zero = g - g;
    int64_t i, cell;
    for (i = 0; i < nxf; i++) {
        int64_t L = xl[i], R = xr[i];
        FN(wellbalanced)(H[L], U[L], V[L], H[R], U[R], V[R], b[L], b[R],
                         g, half, hg, zero, &f0[i], &f1[i], &f2[i], &f3[i]);
    }
    for (i = 0; i < nxf; i++) dH[xl[i]] += -(f0[i] * xsz[i]);
    for (i = 0; i < nxf; i++) dH[xr[i]] += f0[i] * xsz[i];
    for (i = 0; i < nxf; i++) dU[xl[i]] += -(f1[i] * xsz[i]);
    for (i = 0; i < nxf; i++) dU[xr[i]] += f2[i] * xsz[i];
    for (i = 0; i < nxf; i++) dV[xl[i]] += -(f3[i] * xsz[i]);
    for (i = 0; i < nxf; i++) dV[xr[i]] += f3[i] * xsz[i];
    for (i = 0; i < nyf; i++) { /* y faces: normal is V, tangent is U */
        int64_t B = yb[i], Tt = yt[i];
        FN(wellbalanced)(H[B], V[B], U[B], H[Tt], V[Tt], U[Tt], b[B], b[Tt],
                         g, half, hg, zero, &f0[i], &f1[i], &f2[i], &f3[i]);
    }
    for (i = 0; i < nyf; i++) dH[yb[i]] += -(f0[i] * ysz[i]);
    for (i = 0; i < nyf; i++) dH[yt[i]] += f0[i] * ysz[i];
    for (i = 0; i < nyf; i++) dU[yb[i]] += -(f3[i] * ysz[i]);
    for (i = 0; i < nyf; i++) dU[yt[i]] += f3[i] * ysz[i];
    for (i = 0; i < nyf; i++) dV[yb[i]] += -(f1[i] * ysz[i]);
    for (i = 0; i < nyf; i++) dV[yt[i]] += f2[i] * ysz[i];
    FN(boundary)(H, U, V, bcells, boff, size, dH, dU, dV, g, half, hg);
    for (cell = 0; cell < ncells; cell++) { /* state + d*scale */
        T sc = dt / area[cell];
        dH[cell] = H[cell] + dH[cell] * sc;
        dU[cell] = U[cell] + dU[cell] * sc;
        dV[cell] = V[cell] + dV[cell] * sc;
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

/* muscl_rhs over a flat bottom: slopes -> reconstruct -> flux -> CSR. */
void FN(muscl_flat)(
    const T *H, const T *U, const T *V,
    const int64_t *nlft, const int64_t *nrht,
    const int64_t *nbot, const int64_t *ntop, const T *size,
    const int64_t *xl, const int64_t *xr, int64_t nxf,
    const int64_t *yb, const int64_t *yt, int64_t nyf,
    const int32_t *xip, const int32_t *xcols, const T *xsgn,
    const int32_t *yip, const int32_t *ycols, const T *ysgn,
    const int64_t *bcells, const int64_t *boff,
    T *sxH, T *syH, T *sxU, T *syU, T *sxV, T *syV,
    T *f0, T *f1, T *f2, T *dH, T *dU, T *dV,
    int64_t ncells, T g, T half)
{
    T hg = half * g;
    T zero = g - g;
    int64_t i, cell;
    int32_t jj;
    FN(slopes)(H, nlft, nrht, nbot, ntop, size, ncells, half, zero, sxH, syH);
    FN(slopes)(U, nlft, nrht, nbot, ntop, size, ncells, half, zero, sxU, syU);
    FN(slopes)(V, nlft, nrht, nbot, ntop, size, ncells, half, zero, sxV, syV);
    for (i = 0; i < nxf; i++) {
        int64_t L = xl[i], R = xr[i];
        T offL = half * size[L], offR = half * size[R];
        T hL = H[L] + sxH[L] * offL;
        T hR = H[R] - sxH[R] * offR;
        T uL = U[L] + sxU[L] * offL;
        T vL = V[L] + sxV[L] * offL;
        T uR = U[R] - sxU[R] * offR;
        T vR = V[R] - sxV[R] * offR;
        if (hL <= zero || hR <= zero) { /* positivity guard: cell means */
            hL = H[L]; uL = U[L]; vL = V[L];
            hR = H[R]; uR = U[R]; vR = V[R];
        }
        FN(rusanov)(hL, uL, vL, hR, uR, vR, g, half, hg, &f0[i], &f1[i], &f2[i]);
    }
    for (cell = 0; cell < ncells; cell++) {
        T accH = dH[cell], accU = dU[cell], accV = dV[cell];
        for (jj = xip[cell]; jj < xip[cell + 1]; jj++) {
            T s = xsgn[jj];
            int64_t col = (int64_t)xcols[jj];
            accH = accH + s * f0[col];
            accU = accU + s * f1[col];
            accV = accV + s * f2[col];
        }
        dH[cell] = accH; dU[cell] = accU; dV[cell] = accV;
    }
    for (i = 0; i < nyf; i++) {
        int64_t B = yb[i], Tt = yt[i];
        T offB = half * size[B], offT = half * size[Tt];
        T hB = H[B] + syH[B] * offB;
        T hT = H[Tt] - syH[Tt] * offT;
        T uB = U[B] + syU[B] * offB;
        T vB = V[B] + syV[B] * offB;
        T uT = U[Tt] - syU[Tt] * offT;
        T vT = V[Tt] - syV[Tt] * offT;
        if (hB <= zero || hT <= zero) {
            hB = H[B]; uB = U[B]; vB = V[B];
            hT = H[Tt]; uT = U[Tt]; vT = V[Tt];
        }
        FN(rusanov)(hB, vB, uB, hT, vT, uT, g, half, hg, &f0[i], &f1[i], &f2[i]);
    }
    for (cell = 0; cell < ncells; cell++) {
        T accH = dH[cell], accU = dU[cell], accV = dV[cell];
        for (jj = yip[cell]; jj < yip[cell + 1]; jj++) {
            T s = ysgn[jj];
            int64_t col = (int64_t)ycols[jj];
            accH = accH + s * f0[col];
            accU = accU + s * f2[col]; /* tangent (U) flux */
            accV = accV + s * f1[col]; /* normal (V) flux */
        }
        dH[cell] = accH; dU[cell] = accU; dV[cell] = accV;
    }
    FN(boundary)(H, U, V, bcells, boff, size, dH, dU, dV, g, half, hg);
}

/* muscl_rhs over bathymetry: free-surface slopes + Audusse fluxes. */
void FN(muscl_bathy)(
    const T *H, const T *U, const T *V, const T *b, const T *eta,
    const int64_t *nlft, const int64_t *nrht,
    const int64_t *nbot, const int64_t *ntop, const T *size,
    const int64_t *xl, const int64_t *xr, const T *xsz, int64_t nxf,
    const int64_t *yb, const int64_t *yt, const T *ysz, int64_t nyf,
    const int64_t *bcells, const int64_t *boff,
    T *sxH, T *syH, T *sxU, T *syU, T *sxV, T *syV,
    T *f0, T *f1, T *f2, T *f3, T *dH, T *dU, T *dV,
    int64_t ncells, T g, T half)
{
    T hg = half * g;
    T zero = g - g;
    int64_t i, cell;
    FN(slopes)(eta, nlft, nrht, nbot, ntop, size, ncells, half, zero, sxH, syH);
    FN(slopes)(U, nlft, nrht, nbot, ntop, size, ncells, half, zero, sxU, syU);
    FN(slopes)(V, nlft, nrht, nbot, ntop, size, ncells, half, zero, sxV, syV);
    for (i = 0; i < nxf; i++) {
        int64_t L = xl[i], R = xr[i];
        T offL = half * size[L], offR = half * size[R];
        T hL = (eta[L] + sxH[L] * offL) - b[L];
        T hR = (eta[R] - sxH[R] * offR) - b[R];
        T uL = U[L] + sxU[L] * offL;
        T vL = V[L] + sxV[L] * offL;
        T uR = U[R] - sxU[R] * offR;
        T vR = V[R] - sxV[R] * offR;
        if (hL <= zero || hR <= zero) {
            hL = H[L]; uL = U[L]; vL = V[L];
            hR = H[R]; uR = U[R]; vR = V[R];
        }
        FN(wellbalanced)(hL, uL, vL, hR, uR, vR, b[L], b[R],
                         g, half, hg, zero, &f0[i], &f1[i], &f2[i], &f3[i]);
    }
    for (i = 0; i < nxf; i++) dH[xl[i]] += -(f0[i] * xsz[i]);
    for (i = 0; i < nxf; i++) dH[xr[i]] += f0[i] * xsz[i];
    for (i = 0; i < nxf; i++) dU[xl[i]] += -(f1[i] * xsz[i]);
    for (i = 0; i < nxf; i++) dU[xr[i]] += f2[i] * xsz[i];
    for (i = 0; i < nxf; i++) dV[xl[i]] += -(f3[i] * xsz[i]);
    for (i = 0; i < nxf; i++) dV[xr[i]] += f3[i] * xsz[i];
    for (i = 0; i < nyf; i++) {
        int64_t B = yb[i], Tt = yt[i];
        T offB = half * size[B], offT = half * size[Tt];
        T hB = (eta[B] + syH[B] * offB) - b[B];
        T hT = (eta[Tt] - syH[Tt] * offT) - b[Tt];
        T uB = U[B] + syU[B] * offB;
        T vB = V[B] + syV[B] * offB;
        T uT = U[Tt] - syU[Tt] * offT;
        T vT = V[Tt] - syV[Tt] * offT;
        if (hB <= zero || hT <= zero) {
            hB = H[B]; uB = U[B]; vB = V[B];
            hT = H[Tt]; uT = U[Tt]; vT = V[Tt];
        }
        FN(wellbalanced)(hB, vB, uB, hT, vT, uT, b[B], b[Tt],
                         g, half, hg, zero, &f0[i], &f1[i], &f2[i], &f3[i]);
    }
    for (i = 0; i < nyf; i++) dH[yb[i]] += -(f0[i] * ysz[i]);
    for (i = 0; i < nyf; i++) dH[yt[i]] += f0[i] * ysz[i];
    for (i = 0; i < nyf; i++) dU[yb[i]] += -(f3[i] * ysz[i]);
    for (i = 0; i < nyf; i++) dU[yt[i]] += f3[i] * ysz[i];
    for (i = 0; i < nyf; i++) dV[yb[i]] += -(f1[i] * ysz[i]);
    for (i = 0; i < nyf; i++) dV[yt[i]] += f2[i] * ysz[i];
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
