#include "la/eig.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "util/logging.h"

namespace qaic {

namespace {

/** QL sweeps allowed per eigenvalue before the solver gives up. */
constexpr int kMaxQlIterations = 60;

/**
 * sqrt(a^2 + b^2) without the std::hypot library call: the plain formula
 * when its squares can neither overflow nor lose precision to underflow,
 * otherwise scaled by the larger magnitude.
 */
double
pythag(double a, double b)
{
    const double r2 = a * a + b * b;
    if (r2 > 1e-290 && r2 < 1e290)
        return std::sqrt(r2);
    a = std::abs(a);
    b = std::abs(b);
    if (a < b)
        std::swap(a, b);
    if (a == 0.0)
        return 0.0;
    const double r = b / a;
    return a * std::sqrt(1.0 + r * r);
}

/**
 * Householder reduction of the Hermitian n x n matrix in @p w to
 * tridiagonal form T = Q^dag A Q, Q = P_0 P_1 ... P_{n-3}.
 *
 * Step k reflects column k below the subdiagonal with P_k = I - u u^dag
 * (|u|^2 = 2, acting on indices k+1..n-1) and updates the trailing block
 * by the rank-2 form A <- A - q u^dag - u q^dag. Row k of @p w is free
 * after step k, so u is stored there (columns k+1..n-1; u_0 == 0 marks
 * "no reflector"). On return @p d holds the diagonal of T and @p sub its
 * complex subdiagonal, sub[k] = T(k+1, k). @p p is n entries of scratch.
 * All complex products are spelled out on raw real/imag parts.
 */
void
householderTridiagonalize(Cmplx *w, std::size_t n, double *d, Cmplx *sub,
                          Cmplx *p)
{
    for (std::size_t k = 0; k + 2 < n; ++k) {
        const std::size_t m = n - k - 1;
        // x = A(k+1.., k) = conj(A(k, k+1..)); u overwrites that row.
        Cmplx *u = w + k * n + k + 1;
        const double x0r = u[0].real();
        const double x0i = -u[0].imag();
        double tail2 = 0.0;
        for (std::size_t i = 1; i < m; ++i)
            tail2 += u[i].real() * u[i].real() + u[i].imag() * u[i].imag();
        if (tail2 == 0.0) {
            // Column already reduced: T(k+1, k) = x_0 and P_k = I.
            sub[k] = Cmplx(x0r, x0i);
            for (std::size_t i = 0; i < m; ++i)
                u[i] = Cmplx(0.0, 0.0);
            continue;
        }
        const double abs_x0 = std::sqrt(x0r * x0r + x0i * x0i);
        const double alpha = std::sqrt(abs_x0 * abs_x0 + tail2);
        // phi = x_0 / |x_0| (1 when x_0 = 0); u = x + phi alpha e_1,
        // scaled by 1/sqrt(alpha (alpha + |x_0|)) so that |u|^2 = 2.
        double phr = 1.0, phi = 0.0;
        if (abs_x0 > 0.0) {
            phr = x0r / abs_x0;
            phi = x0i / abs_x0;
        }
        sub[k] = Cmplx(-phr * alpha, -phi * alpha);
        const double inv_norm = 1.0 / std::sqrt(alpha * (alpha + abs_x0));
        u[0] = Cmplx((x0r + phr * alpha) * inv_norm,
                     (x0i + phi * alpha) * inv_norm);
        for (std::size_t i = 1; i < m; ++i)
            u[i] = Cmplx(u[i].real() * inv_norm, -u[i].imag() * inv_norm);

        // p = A22 u and K = (u^dag p) / 2; then q = p - K u (in place).
        Cmplx *a22 = w + (k + 1) * n + k + 1;
        double kk = 0.0;
        for (std::size_t i = 0; i < m; ++i) {
            const Cmplx *row = a22 + i * n;
            double pr = 0.0, pim = 0.0;
            for (std::size_t j = 0; j < m; ++j) {
                const double ar = row[j].real(), ai = row[j].imag();
                const double ur = u[j].real(), ui = u[j].imag();
                pr += ar * ur - ai * ui;
                pim += ar * ui + ai * ur;
            }
            p[i] = Cmplx(pr, pim);
            kk += u[i].real() * pr + u[i].imag() * pim;
        }
        kk *= 0.5;
        for (std::size_t i = 0; i < m; ++i)
            p[i] = Cmplx(p[i].real() - kk * u[i].real(),
                         p[i].imag() - kk * u[i].imag());

        // A22 -= q u^dag + u q^dag.
        for (std::size_t i = 0; i < m; ++i) {
            Cmplx *row = a22 + i * n;
            const double qir = p[i].real(), qii = p[i].imag();
            const double uir = u[i].real(), uii = u[i].imag();
            for (std::size_t j = 0; j < m; ++j) {
                const double ujr = u[j].real(), uji = u[j].imag();
                const double qjr = p[j].real(), qji = p[j].imag();
                row[j] -= Cmplx(qir * ujr + qii * uji + uir * qjr +
                                    uii * qji,
                                qii * ujr - qir * uji + uii * qjr -
                                    uir * qji);
            }
        }
    }
    if (n >= 2)
        sub[n - 2] = w[(n - 1) * n + n - 2];
    for (std::size_t i = 0; i < n; ++i)
        d[i] = w[i * n + i].real();
}

/**
 * Makes the Hermitian tridiagonal (d, sub) real symmetric with the
 * diagonal unitary D = diag(delta_i), delta_0 = 1 and
 * delta_{i+1} = delta_i sub_i / |sub_i|: D^dag T D has the real
 * subdiagonal e_i = |sub_i|. Writes @p e (e[n-1] = 0) and @p delta.
 */
void
realTridiagonal(const Cmplx *sub, std::size_t n, double *e, Cmplx *delta)
{
    double dr = 1.0, di = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
        delta[i] = Cmplx(dr, di);
        if (i + 1 == n) {
            e[i] = 0.0;
            break;
        }
        const double tr = sub[i].real(), ti = sub[i].imag();
        const double r = std::sqrt(tr * tr + ti * ti);
        e[i] = r;
        if (r > 0.0) {
            const double cr = tr / r, ci = ti / r;
            const double nr = dr * cr - di * ci;
            di = dr * ci + di * cr;
            dr = nr;
        }
    }
}

/**
 * Implicit-shift QL on the real symmetric tridiagonal (d, e) — e[i]
 * couples i and i+1 — with a Wilkinson-style shift. @p rt (real n x n,
 * row-major) starts as the identity and each plane rotation of (i, i+1)
 * is applied to its rows i and i+1, so on return row j holds the
 * eigenvector of d[j] (unsorted).
 */
void
implicitQl(double *d, double *e, double *rt, std::size_t n)
{
    const double eps = std::numeric_limits<double>::epsilon();
    for (std::size_t i = 0; i < n * n; ++i)
        rt[i] = 0.0;
    for (std::size_t i = 0; i < n; ++i)
        rt[i * n + i] = 1.0;
    for (std::size_t l = 0; l < n; ++l) {
        int iter = 0;
        for (;;) {
            std::size_t m = l;
            for (; m + 1 < n; ++m) {
                const double dd = std::abs(d[m]) + std::abs(d[m + 1]);
                if (std::abs(e[m]) <= eps * dd)
                    break;
            }
            if (m == l)
                break;
            QAIC_CHECK_LT(iter++, kMaxQlIterations)
                << "QL failed to converge";
            double g = (d[l + 1] - d[l]) / (2.0 * e[l]);
            double r = pythag(g, 1.0);
            g = d[m] - d[l] + e[l] / (g + (g >= 0.0 ? r : -r));
            double s = 1.0, c = 1.0, p = 0.0;
            bool underflow = false;
            for (std::size_t i = m; i-- > l;) {
                const double f = s * e[i];
                const double b = c * e[i];
                r = pythag(f, g);
                e[i + 1] = r;
                if (r == 0.0) {
                    // Recover from underflow: deflate and restart.
                    d[i + 1] -= p;
                    e[m] = 0.0;
                    underflow = true;
                    break;
                }
                s = f / r;
                c = g / r;
                g = d[i + 1] - p;
                r = (d[i] - g) * s + 2.0 * c * b;
                p = s * r;
                d[i + 1] = g + p;
                g = c * r - b;
                double *ri = rt + i * n;
                double *rj = rt + (i + 1) * n;
                for (std::size_t x = 0; x < n; ++x) {
                    const double a0 = ri[x], a1 = rj[x];
                    rj[x] = s * a0 + c * a1;
                    ri[x] = c * a0 - s * a1;
                }
            }
            if (underflow)
                continue;
            d[l] -= p;
            e[l] = g;
            e[m] = 0.0;
        }
    }
}

/**
 * v <- Q v = P_0 P_1 ... P_{n-3} v, applying the reflectors stored in
 * @p w by householderTridiagonalize last-first. P_k = I - u u^dag only
 * touches rows k+1..n-1: those rows get v -= u (u^dag v). @p s is n
 * entries of scratch.
 */
void
applyReflectors(const Cmplx *w, std::size_t n, Cmplx *v, Cmplx *s)
{
    for (std::size_t k = n >= 2 ? n - 2 : 0; k-- > 0;) {
        const Cmplx *u = w + k * n + k + 1;
        if (u[0].real() == 0.0 && u[0].imag() == 0.0)
            continue;
        const std::size_t m = n - k - 1;
        Cmplx *rows = v + (k + 1) * n;
        for (std::size_t j = 0; j < n; ++j)
            s[j] = Cmplx(0.0, 0.0);
        for (std::size_t i = 0; i < m; ++i) {
            // s += conj(u_i) v(i, :).
            const double ur = u[i].real(), ui = u[i].imag();
            const Cmplx *row = rows + i * n;
            for (std::size_t j = 0; j < n; ++j) {
                const double vr = row[j].real(), vi = row[j].imag();
                s[j] += Cmplx(ur * vr + ui * vi, ur * vi - ui * vr);
            }
        }
        for (std::size_t i = 0; i < m; ++i) {
            // v(i, :) -= u_i s.
            const double ur = u[i].real(), ui = u[i].imag();
            Cmplx *row = rows + i * n;
            for (std::size_t j = 0; j < n; ++j) {
                const double sr = s[j].real(), si = s[j].imag();
                row[j] -= Cmplx(ur * sr - ui * si, ur * si + ui * sr);
            }
        }
    }
}

} // namespace

void
hermitianEig(const CMatrix &a, EigResult &out, Workspace &ws,
             double herm_tol)
{
    QAIC_CHECK(a.isSquare());

    const std::size_t n = a.rows();
    Workspace::Handle wh = ws.acquire(n, n);
    // Real n x n rotation matrix, stored in a complex buffer's storage.
    Workspace::Handle rh = ws.acquire(n, n);
    // Rows: complex subdiagonal, reflector scratch (later e, then the
    // reflector application's scratch), diagonal phases.
    Workspace::Handle vh = ws.acquire(3, n);

    // One fused pass: copy into scratch and check Hermiticity.
    const Cmplx *ad = a.raw();
    Cmplx *wd = wh->raw();
    const double herm_tol2 = herm_tol * herm_tol;
    bool hermitian = true;
    for (std::size_t i = 0; i < n; ++i) {
        for (std::size_t j = 0; j < n; ++j) {
            const Cmplx x = ad[i * n + j];
            wd[i * n + j] = x;
            if (j > i) {
                const Cmplx y = ad[j * n + i];
                const double dr = x.real() - y.real();
                const double di = x.imag() + y.imag();
                if (dr * dr + di * di >= herm_tol2)
                    hermitian = false;
            } else if (j == i) {
                // Diagonal entries must be real: |x - conj(x)| =
                // 2|Im(x)|.
                const double im2 = 4.0 * x.imag() * x.imag();
                if (im2 >= herm_tol2)
                    hermitian = false;
            }
        }
    }
    QAIC_CHECK(hermitian) << "hermitianEig on non-Hermitian";

    out.values.resize(n);
    double *d = out.values.data();
    Cmplx *sub = vh->raw();
    Cmplx *scratch = sub + n;
    Cmplx *delta = sub + 2 * n;
    // A std::complex<double> array may be accessed as an array of
    // double ([complex.numbers]); the real arrays below rely on that.
    double *rt = reinterpret_cast<double *>(rh->raw());
    householderTridiagonalize(wd, n, d, sub, scratch);
    double *e = reinterpret_cast<double *>(scratch);
    realTridiagonal(sub, n, e, delta);
    implicitQl(d, e, rt, n);

    // Sort eigenpairs ascending (selection sort, swapping rows of rt).
    for (std::size_t k = 0; k + 1 < n; ++k) {
        std::size_t min_idx = k;
        for (std::size_t j = k + 1; j < n; ++j)
            if (d[j] < d[min_idx])
                min_idx = j;
        if (min_idx == k)
            continue;
        std::swap(d[k], d[min_idx]);
        std::swap_ranges(rt + k * n, rt + (k + 1) * n, rt + min_idx * n);
    }

    // Eigenvectors: V = Q D R, with R = rt^T.
    CMatrix &v = out.vectors;
    v.resize(n, n);
    Cmplx *vd = v.raw();
    for (std::size_t i = 0; i < n; ++i) {
        const double dr = delta[i].real(), di = delta[i].imag();
        for (std::size_t j = 0; j < n; ++j) {
            const double r = rt[j * n + i];
            vd[i * n + j] = Cmplx(dr * r, di * r);
        }
    }
    applyReflectors(wd, n, vd, scratch);
}

EigResult
hermitianEig(const CMatrix &a, double herm_tol)
{
    Workspace ws;
    EigResult out;
    hermitianEig(a, out, ws, herm_tol);
    return out;
}

SimultaneousEigResult
simultaneousEig(const CMatrix &x, const CMatrix &y, double degeneracy_tol)
{
    QAIC_CHECK(x.isSquare());
    QAIC_CHECK_EQ(x.rows(), y.rows());
    QAIC_CHECK(commutes(x, y, 1e-7)) << "simultaneousEig on non-commuting pair";

    const std::size_t n = x.rows();
    EigResult ex = hermitianEig(x);
    CMatrix v = ex.vectors;
    CMatrix b = v.dagger() * y * v;

    // Walk clusters of (near-)equal eigenvalues of x; re-diagonalize the
    // restriction of y to each cluster.
    std::size_t start = 0;
    while (start < n) {
        std::size_t end = start + 1;
        while (end < n &&
               ex.values[end] - ex.values[end - 1] < degeneracy_tol)
            ++end;
        std::size_t m = end - start;
        if (m > 1) {
            CMatrix sub(m, m);
            for (std::size_t i = 0; i < m; ++i)
                for (std::size_t j = 0; j < m; ++j)
                    sub(i, j) = b(start + i, start + j);
            // Symmetrize to wash out numerical noise before the check.
            sub = (sub + sub.dagger()) * Cmplx(0.5, 0.0);
            EigResult es = hermitianEig(sub);
            // Embed the cluster rotation and fold it into v and b.
            CMatrix w = CMatrix::identity(n);
            for (std::size_t i = 0; i < m; ++i)
                for (std::size_t j = 0; j < m; ++j)
                    w(start + i, start + j) = es.vectors(i, j);
            v = v * w;
            b = w.dagger() * b * w;
        }
        start = end;
    }

    SimultaneousEigResult out;
    out.vectors = v;
    out.xValues.resize(n);
    out.yValues.resize(n);
    CMatrix dx = v.dagger() * x * v;
    for (std::size_t i = 0; i < n; ++i) {
        out.xValues[i] = dx(i, i).real();
        out.yValues[i] = b(i, i).real();
    }
    return out;
}

} // namespace qaic
