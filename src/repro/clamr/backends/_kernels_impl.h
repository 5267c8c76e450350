/* Kernel bodies for the "cext" backend: the C rendering of
 * backends/loops.py, which in turn replays the NumPy kernels per element.
 * The expressions are the same; the C writes loops.py's branches as
 * selects and computes the three quantities' slopes in one pass.
 *
 * Included twice by _kernels.c with:
 *   T      compute type (float | double)
 *   FN(x)  name suffixer (x##_f32 | x##_f64)
 *   KSQRT  correctly-rounded sqrt for T (sqrtf | sqrt)
 *   KFABS  |x| for T (fabsf | fabs)
 *
 * Bit-identity with the NumPy oracle relies on compiling WITHOUT value
 * transformations (the flags are cext.py's _CFLAGS):
 *   -ffp-contract=off   no FMA fusion, also where -march=native offers FMA;
 *   -fno-math-errno     sqrt is the correctly-rounded sqrt instruction;
 *   -fno-trapping-math  the compiler may assume no floating-point operation
 *                       traps, so it evaluates both arms of a select and
 *                       if-converts the loops below. Every operation still
 *                       rounds once, as written; only the exception flags,
 *                       which nothing reads, may differ;
 *   -march=native       wider vectors for the host, so the library's
 *                       cache key includes the host CPU; if the compiler
 *                       rejects the flag, cext builds once without it (the
 *                       portable build). A vector lane rounds exactly as
 *                       the scalar unit does, so the bits do not depend on
 *                       the build;
 *   and never -ffast-math / -funsafe-math-optimizations.
 * On x86-64 SSE/AVX FLT_EVAL_METHOD == 0, so every float op rounds to
 * float: the same single rounding per op NumPy performs. See loops.py for
 * the replay contract (np.maximum semantics, scatter order, etc.).
 *
 * What keeps the slope and face loops vectorizable: no branch in their
 * bodies (the self link, minmod, np.maximum and the positivity guard are
 * selects); a restrict pointer per output; and one face body cloned per
 * (muscl, well-balanced) pair inside a non-inlined function whose pointer
 * parameters are restrict. The CSR row walks stay scalar: their trip
 * counts vary per row and their order is the bit contract.
 *
 * The non-static definitions are the exports, exactly loops.__all__:
 * per compute type (FN) clamr_rhs (every CLAMR scheme and bottom) and
 * heun_stage; once, in the include-guarded block at the end, the regrid
 * topology builders mesh_neighbors, face_count, face_fill,
 * refinement_flags and enforce_balance, which work on the int32 mesh
 * arrays (and float64 depths) whatever the compute type.
 */

static inline T FN(npmax)(T a, T b) { return ((a > b) | (a != a)) ? a : b; }

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

/* minmod as two selects: the smaller-magnitude argument when the signs
 * agree, else zero. */
static inline T FN(minmod)(T a, T b, T zero)
{
    T m = KFABS(a) < KFABS(b) ? a : b;
    return a * b > zero ? m : zero;
}

/* The limited slope of q at cell c between its neighbors m (minus side)
 * and p (plus side), spaced dxm and dxp; a self link (a wall) differences
 * to zero. */
static inline T FN(slope)(const T *q, int32_t c, int32_t m, int32_t p,
                          T dxm, T dxp, T zero)
{
    T dm = q[c] - q[m];
    T dp = q[p] - q[c];
    dm = m != c ? dm : zero;
    dp = p != c ? dp : zero;
    return FN(minmod)(dm / dxm, dp / dxp, zero);
}

/* Per-cell minmod slopes in x and y of q (the depth, or the free surface
 * over a bottom), U and V (limited_slopes), in one pass that computes
 * each cell's four spacings once. */
__attribute__((noinline)) static void FN(slopes)(
    const T *restrict q, const T *restrict U, const T *restrict V,
    const int32_t *restrict nlft, const int32_t *restrict nrht,
    const int32_t *restrict nbot, const int32_t *restrict ntop,
    const T *restrict size, int64_t ncells, T half, T zero,
    T *restrict sxH, T *restrict syH, T *restrict sxU,
    T *restrict syU, T *restrict sxV, T *restrict syV)
{
    int32_t c;
    for (c = 0; c < ncells; c++) {
        int32_t l = nlft[c], r = nrht[c], d = nbot[c], t = ntop[c];
        T dxl = half * (size[c] + size[l]);
        T dxr = half * (size[c] + size[r]);
        T dyd = half * (size[c] + size[d]);
        T dyt = half * (size[c] + size[t]);
        sxH[c] = FN(slope)(q, c, l, r, dxl, dxr, zero);
        syH[c] = FN(slope)(q, c, d, t, dyd, dyt, zero);
        sxU[c] = FN(slope)(U, c, l, r, dxl, dxr, zero);
        syU[c] = FN(slope)(U, c, d, t, dyd, dyt, zero);
        sxV[c] = FN(slope)(V, c, l, r, dxl, dxr, zero);
        syV[c] = FN(slope)(V, c, d, t, dyd, dyt, zero);
    }
}

/* The fluxes of one face group, face by face (the first loop of loops.py
 * _axis). N/Tm are the normal/tangent momenta. With muscl each side is
 * reconstructed from the slopes sH/sN/sT (of eta when wb), and the
 * positivity guard keeps the cell means where either reconstructed depth
 * is not positive. Then the Rusanov flux into f0/f1/f3, or with wb the
 * well-balanced one into f0..f3. Every call passes constant muscl and wb,
 * so each call site is its own straight-line loop. The face ends are
 * narrowed to int32 like every mesh index: with int64 indices GCC 12
 * does not vectorize the float instance's gathers. */
static inline void FN(face_body)(
    int muscl, int wb, const int64_t *lo, const int64_t *hi, int64_t nf,
    const T *H, const T *N, const T *Tm, const T *b, const T *eta,
    const T *sH, const T *sN, const T *sT, const T *size,
    T *f0, T *f1, T *f2, T *f3, T g, T half, T hg, T zero)
{
    int64_t i;
    for (i = 0; i < nf; i++) {
        int32_t L = (int32_t)lo[i], R = (int32_t)hi[i];
        T hL = H[L], nl = N[L], tl = Tm[L];
        T hR = H[R], nr = N[R], tr = Tm[R];
        if (muscl) {
            T offL = half * size[L], offR = half * size[R];
            T rhL, rhR, mnl, mtl, mnr, mtr;
            int ok;
            if (wb) { /* free surface, then depth against own bottom */
                rhL = (eta[L] + sH[L] * offL) - b[L];
                rhR = (eta[R] - sH[R] * offR) - b[R];
            } else {
                rhL = hL + sH[L] * offL;
                rhR = hR - sH[R] * offR;
            }
            mnl = nl + sN[L] * offL;
            mtl = tl + sT[L] * offL;
            mnr = nr - sN[R] * offR;
            mtr = tr - sT[R] * offR;
            /* the guard as loops.py's `not (rhL <= 0 or rhR <= 0)`: a NaN
             * depth compares false, so it passes */
            ok = !((rhL <= zero) | (rhR <= zero));
            hL = ok ? rhL : hL;
            nl = ok ? mnl : nl;
            tl = ok ? mtl : tl;
            hR = ok ? rhR : hR;
            nr = ok ? mnr : nr;
            tr = ok ? mtr : tr;
        }
        if (wb)
            FN(wellbalanced)(hL, nl, tl, hR, nr, tr, b[L], b[R],
                             g, half, hg, zero, &f0[i], &f1[i], &f2[i], &f3[i]);
        else
            FN(rusanov)(hL, nl, tl, hR, nr, tr, g, half, hg, &f0[i], &f1[i], &f3[i]);
    }
}

/* FN(face_body) behind restrict pointers, once per (muscl, wb). Not
 * inlined: inside FN(axis) the body would lose restrict, and with it
 * the vectorized gathers and stores. */
__attribute__((noinline)) static void FN(faces)(
    int muscl, int wb, const int64_t *restrict lo, const int64_t *restrict hi, int64_t nf,
    const T *restrict H, const T *restrict N, const T *restrict Tm,
    const T *restrict b, const T *restrict eta,
    const T *restrict sH, const T *restrict sN, const T *restrict sT,
    const T *restrict size,
    T *restrict f0, T *restrict f1, T *restrict f2, T *restrict f3,
    T g, T half, T hg, T zero)
{
#define FACE_ARGS lo, hi, nf, H, N, Tm, b, eta, sH, sN, sT, size, f0, f1, f2, f3, g, half, hg, zero
    if (muscl && wb)
        FN(face_body)(1, 1, FACE_ARGS);
    else if (muscl)
        FN(face_body)(1, 0, FACE_ARGS);
    else if (wb)
        FN(face_body)(0, 1, FACE_ARGS);
    else
        FN(face_body)(0, 0, FACE_ARGS);
#undef FACE_ARGS
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
    int64_t cell;
    int32_t jj;
    FN(faces)(sH != 0, b != 0, lo, hi, nf, H, N, Tm, b, eta, sH, sN, sT, size,
              f0, f1, f2, f3, g, half, hg, zero);
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
    const int32_t *nlft, const int32_t *nrht,
    const int32_t *nbot, const int32_t *ntop,
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
        FN(slopes)(b ? eta : H, U, V, nlft, nrht, nbot, ntop, size, ncells, half, zero,
                   sxH, syH, sxU, syU, sxV, syV);
    }
    FN(axis)(xl, xr, nxf, H, U, V, b, eta, sxH, sxU, sxV, size,
             xip, xcols, xsgn, ncells, f0, f1, f2, f3, dH, dU, dV, g, half, hg, zero);
    FN(axis)(yb, yt, nyf, H, V, U, b, eta, syH, syV, syU, size,
             yip, ycols, ysgn, ncells, f0, f1, f2, f3, dH, dV, dU, g, half, hg, zero);
    FN(boundary)(H, U, V, bcells, boff, size, dH, dU, dV, g, half, hg);
}

/* One row of heun_stage: q0 + a*scale, or with b q0 + (half*(a + b))*scale. */
static void FN(heun_row)(
    const T *q0, const T *a, const T *b, const T *scale, int64_t ncells, T half, T *q)
{
    int64_t c;
    if (!b) {
        for (c = 0; c < ncells; c++)
            q[c] = q0[c] + a[c] * scale[c];
        return;
    }
    for (c = 0; c < ncells; c++)
        q[c] = q0[c] + (half * (a[c] + b[c])) * scale[c];
}

/* One Heun stage of finite_diff_muscl (loops.py heun_stage): with bH NULL
 * the predictor q0 + a*scale, else the corrector q0 + (half*(a + b))*scale. */
void FN(heun_stage)(
    const T *H0, const T *U0, const T *V0,
    const T *aH, const T *aU, const T *aV,
    const T *bH, const T *bU, const T *bV,
    const T *scale, int64_t ncells, T half,
    T *H, T *U, T *V)
{
    FN(heun_row)(H0, aH, bH, scale, ncells, half, H);
    FN(heun_row)(U0, aU, bU, scale, ncells, half, U);
    FN(heun_row)(V0, aV, bV, scale, ncells, half, V);
}

#ifndef REPRO_TOPOLOGY_BUILDERS
#define REPRO_TOPOLOGY_BUILDERS

/* -- regrid topology (loops.py, same names): one instance each ---------- */

/* 1 when the link target n lies outside [0, ncells): the caller then runs
 * the NumPy form, which raises its own IndexError. */
static inline int bad_link(int32_t n, int64_t ncells) { return n < 0 || n >= ncells; }

/* AmrMesh.rebuild_neighbors: paint every cell's block of the padded
 * (nyf+2) x (nxf+2) int32 image (border -1), then probe one pixel past
 * the lower-left corner to the left and below, past the lower-right
 * corner to the right and past the upper-left corner above; a border
 * pixel is a domain side, where the cell points to itself. Returns 0,
 * 1 (cells overlap), 2 (gaps) or 3 (a level or block outside the
 * domain: the caller runs the NumPy form and its errors). */
int64_t mesh_neighbors(
    const int32_t *ci, const int32_t *cj, const int32_t *lev, int64_t ncells,
    int64_t nx, int64_t ny, int64_t max_level, int32_t *img,
    int32_t *nlft, int32_t *nrht, int32_t *nbot, int32_t *ntop)
{
    int64_t nxf = nx << max_level, nyf = ny << max_level;
    int64_t w = nxf + 2, painted = 0, c, k;
    int32_t overlap = 0;
    for (k = 0; k < w * (nyf + 2); k++)
        img[k] = -1;
    for (c = 0; c < ncells; c++) {
        int64_t s, x0, y0, dy, dx;
        if (lev[c] < 0 || lev[c] > max_level)
            return 3;
        s = (int64_t)1 << (max_level - lev[c]);
        x0 = (int64_t)ci[c] * s;
        y0 = (int64_t)cj[c] * s;
        if (x0 < 0 || y0 < 0 || x0 + s > nxf || y0 + s > nyf)
            return 3;
        for (dy = 0; dy < s; dy++) {
            int32_t *row = img + (y0 + dy + 1) * w + x0 + 1;
            for (dx = 0; dx < s; dx++) {
                overlap |= row[dx] >= 0;
                row[dx] = (int32_t)c;
            }
        }
        painted += s * s;
    }
    if (overlap)
        return 1;
    if (painted < nxf * nyf) /* no pixel painted twice: painted == covered */
        return 2;
    for (c = 0; c < ncells; c++) {
        int64_t s = (int64_t)1 << (max_level - lev[c]);
        int64_t corner = ((int64_t)cj[c] * s + 1) * w + (int64_t)ci[c] * s + 1;
        int32_t n;
        n = img[corner - 1];
        nlft[c] = n < 0 ? (int32_t)c : n;
        n = img[corner + s];
        nrht[c] = n < 0 ? (int32_t)c : n;
        n = img[corner - w];
        nbot[c] = n < 0 ? (int32_t)c : n;
        n = img[corner + s * w];
        ntop[c] = n < 0 ? (int32_t)c : n;
    }
    return 0;
}

/* FaceLists.from_mesh, count pass. counts: x faces a cell owns forward
 * (its right neighbor is not finer), x faces it owns back (its left
 * neighbor is coarser), the same two for y, then the wall cells of the
 * left, right, bottom and top sides. Returns the number of links outside
 * the mesh (nonzero: the caller runs the NumPy form). */
int64_t face_count(
    const int32_t *nlft, const int32_t *nrht,
    const int32_t *nbot, const int32_t *ntop,
    const int32_t *lev, int64_t ncells, int64_t *counts)
{
    int64_t c, xf = 0, xb = 0, yf = 0, yb = 0, wl = 0, wr = 0, wb = 0, wt = 0, bad = 0;
    for (c = 0; c < ncells; c++) {
        int32_t l = nlft[c], r = nrht[c], b = nbot[c], t = ntop[c];
        if (bad_link(l, ncells) || bad_link(r, ncells) || bad_link(b, ncells) || bad_link(t, ncells)) {
            bad++;
            continue;
        }
        xf += r != c && lev[r] <= lev[c];
        xb += l != c && lev[l] < lev[c];
        yf += t != c && lev[t] <= lev[c];
        yb += b != c && lev[b] < lev[c];
        wl += l == c;
        wr += r == c;
        wb += b == c;
        wt += t == c;
    }
    counts[0] = xf; counts[1] = xb; counts[2] = yf; counts[3] = yb;
    counts[4] = wl; counts[5] = wr; counts[6] = wb; counts[7] = wt;
    return bad;
}

/* FaceLists.from_mesh, fill pass into exact-size arrays: each axis lists
 * its forward-owned faces, then its back-owned ones, each in cell order;
 * a face is sized by its owner (the finer or equal cell). bnd holds the
 * wall cells left|right|bottom|top, each side in cell order. */
void face_fill(
    const int32_t *nlft, const int32_t *nrht,
    const int32_t *nbot, const int32_t *ntop,
    const int32_t *lev, int64_t ncells, double coarse_size, const int64_t *counts,
    int64_t *xl, int64_t *xr, double *xsize,
    int64_t *yb, int64_t *yt, double *ysize, int64_t *bnd)
{
    int64_t xf = 0, xbk = counts[0], yf = 0, ybk = counts[2];
    int64_t wl = 0, wr = counts[4], wb = wr + counts[5], wt = wb + counts[6];
    int64_t c;
    for (c = 0; c < ncells; c++) {
        int32_t l = nlft[c], r = nrht[c], b = nbot[c], t = ntop[c];
        double sz = coarse_size / (double)((int64_t)1 << lev[c]);
        if (r != c && lev[r] <= lev[c]) { xl[xf] = c; xr[xf] = r; xsize[xf] = sz; xf++; }
        if (l != c && lev[l] < lev[c]) { xl[xbk] = l; xr[xbk] = c; xsize[xbk] = sz; xbk++; }
        if (t != c && lev[t] <= lev[c]) { yb[yf] = c; yt[yf] = t; ysize[yf] = sz; yf++; }
        if (b != c && lev[b] < lev[c]) { yb[ybk] = b; yt[ybk] = c; ysize[ybk] = sz; ybk++; }
        if (l == c) bnd[wl++] = c;
        if (r == c) bnd[wr++] = c;
        if (b == c) bnd[wb++] = c;
        if (t == c) bnd[wt++] = c;
    }
}

/* refinement_flags after NumPy's bfloat16 quantization of H (float64).
 * floor = max(tiny, max|H| * tiny), where a NaN depth leaves tiny (as
 * Python's max does with np.max's NaN). Every stored link scatters its
 * relative jump |Hn - H| / max(|Hn|, |H|, floor) to both of its cells
 * with a branchless select. np.maximum would carry a NaN jump, and a NaN
 * indicator compares false both ways (flag 0), so a NaN is kept in the
 * cell's flag byte instead and the selects never see it. ind: ncells of
 * scratch. Returns the number of links outside the mesh. */
int64_t refinement_flags(
    const double *H, const int32_t *nlft, const int32_t *nrht,
    const int32_t *nbot, const int32_t *ntop, const int32_t *lev, int64_t ncells,
    int64_t max_level, double tiny, double refine, double coarsen,
    double *ind, int8_t *flags)
{
    const int32_t *nbr[4] = {nlft, nrht, nbot, ntop};
    double top = 0, floor_, scaled;
    int32_t nan_h = 0;
    int64_t c, d;
    for (c = 0; c < ncells; c++) {
        double a = fabs(H[c]);
        nan_h |= a != a;
        top = a > top ? a : top;
        ind[c] = 0;
        flags[c] = 0;
    }
    scaled = top * tiny;
    floor_ = (!nan_h && scaled > tiny) ? scaled : tiny;
    for (c = 0; c < ncells; c++) {
        double h = H[c], ah = fabs(h);
        for (d = 0; d < 4; d++) {
            int32_t n = nbr[d][c];
            double hn, ahn, scale, jump;
            if (bad_link(n, ncells))
                return 1;
            hn = H[n];
            ahn = fabs(hn);
            scale = ahn > ah ? ahn : ah;
            scale = scale > floor_ ? scale : floor_;
            jump = fabs(hn - h) / scale;
            ind[c] = jump > ind[c] ? jump : ind[c];
            ind[n] = jump > ind[n] ? jump : ind[n];
            flags[c] |= jump != jump;
            flags[n] |= jump != jump;
        }
    }
    for (c = 0; c < ncells; c++) {
        int8_t f = 0;
        if (!flags[c]) {
            if (ind[c] > refine) f = 1;
            if (ind[c] < coarsen) f = -1;
            if (f == 1 && lev[c] >= max_level) f = 0;
            if (f == -1 && lev[c] == 0) f = 0;
        }
        flags[c] = f;
    }
    return 0;
}

/* enforce_balance on a copy of the flags, in place. Level caps first;
 * then at most max_level + 2 Jacobi passes: a cell whose post-refinement
 * level sits 2+ above a stored neighbor's forces that neighbor to refine
 * (forced: ncells bytes of scratch, applied after the pass). Last, a
 * coarsen flag is cancelled when either end of a link would end up more
 * than one level apart; cancelling only clears -1 flags and the tests
 * read only +1 flags, so one pass in any order gives NumPy's result.
 * Returns the number of links outside the mesh. */
int64_t enforce_balance(
    int8_t *flags, const int32_t *lev, const int32_t *nlft, const int32_t *nrht,
    const int32_t *nbot, const int32_t *ntop, int64_t ncells, int64_t max_level,
    uint8_t *forced)
{
    const int32_t *nbr[4] = {nlft, nrht, nbot, ntop};
    int64_t c, d, pass;
    for (c = 0; c < ncells; c++)
        for (d = 0; d < 4; d++)
            if (bad_link(nbr[d][c], ncells))
                return 1;
    for (c = 0; c < ncells; c++) {
        if (flags[c] == 1 && lev[c] >= max_level) flags[c] = 0;
        if (flags[c] == -1 && lev[c] == 0) flags[c] = 0;
    }
    for (pass = 0; pass < max_level + 2; pass++) {
        int32_t any = 0;
        for (c = 0; c < ncells; c++)
            forced[c] = 0;
        for (c = 0; c < ncells; c++) {
            int32_t nl = lev[c] + (flags[c] == 1);
            for (d = 0; d < 4; d++) {
                int32_t n = nbr[d][c];
                if (nl - (lev[n] + (flags[n] == 1)) > 1)
                    forced[n] = 1;
            }
        }
        for (c = 0; c < ncells; c++) {
            if (forced[c] && flags[c] != 1 && lev[c] < max_level) {
                flags[c] = 1;
                any = 1;
            }
        }
        if (!any)
            break;
    }
    for (c = 0; c < ncells; c++) {
        int32_t nl = lev[c] + (flags[c] == 1);
        for (d = 0; d < 4; d++) {
            int32_t n = nbr[d][c];
            if (flags[c] == -1 && lev[n] + (flags[n] == 1) > lev[c]) flags[c] = 0;
            if (flags[n] == -1 && nl > lev[n]) flags[n] = 0;
        }
    }
    return 0;
}

#endif /* REPRO_TOPOLOGY_BUILDERS */
