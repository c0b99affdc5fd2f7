#include "weyl/weyl.h"

#include <algorithm>
#include <cmath>

#include "la/eig.h"
#include "la/lu.h"
#include "util/logging.h"

namespace qaic {

namespace {

/** Folds one coordinate into [0, pi/4] using c ~ c + pi/2 and c ~ -c. */
double
foldCoordinate(double c)
{
    const double half_pi = M_PI / 2.0;
    double r = std::fmod(c, half_pi);
    if (r < 0.0)
        r += half_pi;
    if (r > M_PI / 4.0)
        r = half_pi - r;
    // Clamp tiny negatives produced by rounding.
    return std::max(0.0, r);
}

/** Distance from @p x to the nearest integer multiple of pi. */
double
distanceToPiMultiple(double x)
{
    double r = std::fmod(x, M_PI);
    if (r < 0.0)
        r += M_PI;
    return std::min(r, M_PI - r);
}

/** U normalized to determinant one (SU(4) representative). */
CMatrix
toSu4(const CMatrix &u)
{
    Cmplx det = determinant(u);
    QAIC_CHECK_GT(std::abs(det), 0.5) << "non-unitary input to Weyl analysis";
    Cmplx root = std::pow(det, 0.25);
    return u * (Cmplx(1.0, 0.0) / root);
}

/** The symmetric unitary m = B^T B in the magic basis. */
CMatrix
gammaMatrix(const CMatrix &u)
{
    static const CMatrix q = magicBasis();
    CMatrix b = q.dagger() * toSu4(u) * q;
    return b.transpose() * b;
}

} // namespace

CMatrix
magicBasis()
{
    const double s = 1.0 / std::sqrt(2.0);
    const Cmplx i(0.0, 1.0);
    return CMatrix{{s, 0, 0, s * i},
                   {0, s * i, s, 0},
                   {0, s * i, -s, 0},
                   {s, 0, 0, -s * i}};
}

bool
WeylCoordinates::approxEqual(const WeylCoordinates &other, double tol) const
{
    return std::abs(c1 - other.c1) < tol && std::abs(c2 - other.c2) < tol &&
           std::abs(c3 - other.c3) < tol;
}

WeylCoordinates
weylCoordinates(const CMatrix &u)
{
    QAIC_CHECK(u.rows() == 4 && u.cols() == 4);
    QAIC_CHECK(u.isUnitary(1e-7)) << "Weyl analysis requires a unitary";

    CMatrix m = gammaMatrix(u);

    // m is symmetric unitary, so its real and imaginary parts are commuting
    // real-symmetric matrices; diagonalize them together to get eigenphases.
    CMatrix re = (m + m.conjugate()) * Cmplx(0.5, 0.0);
    CMatrix im = (m - m.conjugate()) * Cmplx(0.0, -0.5);
    SimultaneousEigResult sim = simultaneousEig(re, im);

    // Eigenvalues are e^{-2 i f_j} where the four f_j follow the Bell-state
    // sign patterns of (c1 XX + c2 YY + c3 ZZ):
    //   f_a =  c1 - c2 + c3,  f_b = -c1 + c2 + c3,
    //   f_c =  c1 + c2 - c3,  f_d = -c1 - c2 - c3.
    double f[4];
    for (int j = 0; j < 4; ++j)
        f[j] = -0.5 * std::atan2(sim.yValues[j], sim.xValues[j]);

    // The eigenvalue-to-pattern assignment is unknown; each f is only known
    // modulo pi. Search assignments of (f_a, f_b, f_c), scoring by how well
    // the leftover value matches f_d = -(f_a + f_b + f_c) (mod pi). All
    // consistent assignments fold to the same chamber point.
    double best_score = 1e300;
    WeylCoordinates best;
    int idx[4] = {0, 1, 2, 3};
    std::sort(idx, idx + 4);
    do {
        double fa = f[idx[0]], fb = f[idx[1]], fc = f[idx[2]],
               fd = f[idx[3]];
        double score = distanceToPiMultiple(fd + fa + fb + fc);
        if (score < best_score) {
            best_score = score;
            double raw[3] = {(fa + fc) / 2.0, (fb + fc) / 2.0,
                             (fa + fb) / 2.0};
            double folded[3] = {foldCoordinate(raw[0]),
                                foldCoordinate(raw[1]),
                                foldCoordinate(raw[2])};
            std::sort(folded, folded + 3, std::greater<double>());
            best = {folded[0], folded[1], folded[2]};
        }
    } while (std::next_permutation(idx, idx + 4));

    QAIC_CHECK_LT(best_score, 1e-5)
        << "no consistent Bell-pattern assignment (residual " << best_score
        << ")";
    return best;
}

MakhlinInvariants
makhlinInvariants(const CMatrix &u)
{
    QAIC_CHECK(u.rows() == 4 && u.cols() == 4);
    CMatrix m = gammaMatrix(u);
    Cmplx tr = m.trace();
    Cmplx tr2 = (m * m).trace();
    MakhlinInvariants inv;
    inv.g1 = tr * tr / 16.0;
    inv.g2 = ((tr * tr - tr2) / 4.0).real();
    return inv;
}

bool
locallyEquivalent(const CMatrix &a, const CMatrix &b, double tol)
{
    MakhlinInvariants ia = makhlinInvariants(a);
    MakhlinInvariants ib = makhlinInvariants(b);
    return std::abs(ia.g1 - ib.g1) < tol && std::abs(ia.g2 - ib.g2) < tol;
}

double
xyMinimumTime(const WeylCoordinates &c, double mu2_ghz)
{
    QAIC_CHECK_GT(mu2_ghz, 0.0);
    double gauge = std::max(c.c1, (c.c1 + c.c2 + c.c3) / 2.0);
    return gauge / (M_PI * mu2_ghz);
}

bool
kronFactor2x2(const CMatrix &u4, CMatrix *a, CMatrix *b, double tol)
{
    QAIC_CHECK(u4.rows() == 4 && u4.cols() == 4);
    // Pick the 2x2 block of largest Frobenius norm: for a true tensor
    // product u4 = a (x) b the block (r, c) equals a(r,c) * b, and the
    // largest block has |a(r,c)| >= 1/2, so it determines b robustly.
    std::size_t r0 = 0, c0 = 0;
    double best = -1.0;
    for (std::size_t r = 0; r < 2; ++r)
        for (std::size_t c = 0; c < 2; ++c) {
            double norm = 0.0;
            for (std::size_t i = 0; i < 2; ++i)
                for (std::size_t j = 0; j < 2; ++j)
                    norm += std::norm(u4(2 * r + i, 2 * c + j));
            if (norm > best) {
                best = norm;
                r0 = r;
                c0 = c;
            }
        }
    CMatrix braw(2, 2);
    for (std::size_t i = 0; i < 2; ++i)
        for (std::size_t j = 0; j < 2; ++j)
            braw(i, j) = u4(2 * r0 + i, 2 * c0 + j);
    Cmplx det = braw(0, 0) * braw(1, 1) - braw(0, 1) * braw(1, 0);
    if (std::abs(det) < 1e-12)
        return false;
    CMatrix bn = braw * (Cmplx(1.0, 0.0) / std::sqrt(det));
    // Project each block onto bn: a(r,c) = tr(block bn^dag) / 2.
    CMatrix an(2, 2);
    for (std::size_t r = 0; r < 2; ++r)
        for (std::size_t c = 0; c < 2; ++c) {
            Cmplx coeff(0.0, 0.0);
            for (std::size_t i = 0; i < 2; ++i)
                for (std::size_t j = 0; j < 2; ++j)
                    coeff += u4(2 * r + i, 2 * c + j) *
                             std::conj(bn(i, j));
            an(r, c) = coeff * 0.5;
        }
    if (!an.isUnitary(1e-6) || !bn.isUnitary(1e-6))
        return false;
    if (phaseDistance(an.kron(bn), u4) >= tol)
        return false;
    *a = an;
    *b = bn;
    return true;
}

namespace {

/** CAN(c1,c2,c3) built from its magic-basis eigenphases. */
CMatrix
canonicalGateMatrix(double c1, double c2, double c3)
{
    static const CMatrix q = magicBasis();
    const Cmplx i(0.0, 1.0);
    // Eigenphase pattern per magic-basis column (see kakDecompose).
    const double h[4] = {c1 - c2 + c3, c1 + c2 - c3, -c1 - c2 - c3,
                         -c1 + c2 + c3};
    CMatrix d = CMatrix::diag({std::exp(-i * h[0]), std::exp(-i * h[1]),
                               std::exp(-i * h[2]), std::exp(-i * h[3])});
    return q * d * q.dagger();
}

} // namespace

KakDecomposition
kakDecompose(const CMatrix &u)
{
    KakDecomposition out;
    QAIC_CHECK(u.rows() == 4 && u.cols() == 4);
    if (!u.isUnitary(1e-7))
        return out;

    static const CMatrix q = magicBasis();
    CMatrix su = toSu4(u);
    CMatrix b = q.dagger() * su * q;
    CMatrix m = b.transpose() * b;

    CMatrix re = (m + m.conjugate()) * Cmplx(0.5, 0.0);
    CMatrix im = (m - m.conjugate()) * Cmplx(0.0, -0.5);
    SimultaneousEigResult sim = simultaneousEig(re, im);

    // The eigenvectors of the real symmetric pair (re, im) can be chosen
    // real; strip any per-column phase the complex eigensolver left and
    // fail out if a genuinely complex vector remains (degenerate cluster
    // mixed by rounding) — the caller then keeps the original gates.
    CMatrix p(4, 4);
    for (std::size_t j = 0; j < 4; ++j) {
        std::size_t rmax = 0;
        for (std::size_t r = 1; r < 4; ++r)
            if (std::abs(sim.vectors(r, j)) >
                std::abs(sim.vectors(rmax, j)))
                rmax = r;
        Cmplx pivot = sim.vectors(rmax, j);
        if (std::abs(pivot) < 1e-9)
            return out;
        Cmplx phase = std::conj(pivot) / std::abs(pivot);
        for (std::size_t r = 0; r < 4; ++r) {
            Cmplx v = sim.vectors(r, j) * phase;
            if (std::abs(v.imag()) > 1e-6)
                return out;
            p(r, j) = Cmplx(v.real(), 0.0);
        }
    }
    if (!p.isUnitary(1e-6))
        return out;
    if (determinant(p).real() < 0.0)
        for (std::size_t r = 0; r < 4; ++r)
            p(r, 0) = -p(r, 0);

    // Eigenvalues of m are e^{-2 i f_j}; branch each f into (-pi/2, pi/2]
    // and repair the branch sum so det(k1') = e^{i sum f} = +1.
    double f[4];
    for (int j = 0; j < 4; ++j)
        f[j] = -0.5 * std::atan2(sim.yValues[j], sim.xValues[j]);
    double sum = f[0] + f[1] + f[2] + f[3];
    if (distanceToPiMultiple(sum) > 1e-5)
        return out;
    long half_turns = std::lround(sum / M_PI);
    if ((half_turns % 2 + 2) % 2 == 1)
        f[0] += M_PI;

    // k1' = b p diag(e^{+i f_j}) and k2' = p^T are real orthogonal and
    // b = k1' diag(e^{-i f_j}) k2' by construction; conjugating back out
    // of the magic basis turns the orthogonals into local unitaries.
    const Cmplx i(0.0, 1.0);
    CMatrix a_inv = CMatrix::diag({std::exp(i * f[0]), std::exp(i * f[1]),
                                   std::exp(i * f[2]),
                                   std::exp(i * f[3])});
    CMatrix k1 = b * p * a_inv;
    CMatrix k2 = p.transpose();
    CMatrix l1 = q * k1 * q.dagger();
    CMatrix l2 = q * k2 * q.dagger();

    // Position j of the magic basis carries eigenphase pattern h_j of
    // c1 XX + c2 YY + c3 ZZ:
    //   h_0 = c1 - c2 + c3, h_1 = c1 + c2 - c3,
    //   h_2 = -c1 - c2 - c3, h_3 = -c1 + c2 + c3,
    // and the f solved above satisfy h_j = f_j, so:
    out.c1 = (f[0] + f[1]) / 2.0;
    out.c2 = (f[1] + f[3]) / 2.0;
    out.c3 = (f[0] + f[3]) / 2.0;

    if (!kronFactor2x2(l1, &out.k1a, &out.k1b) ||
        !kronFactor2x2(l2, &out.k2a, &out.k2b))
        return out;

    // Self-check: the decomposition must reproduce u up to global phase.
    CMatrix rebuilt = out.k1a.kron(out.k1b) *
                      canonicalGateMatrix(out.c1, out.c2, out.c3) *
                      out.k2a.kron(out.k2b);
    if (phaseDistance(rebuilt, u) > 1e-7)
        return out;
    out.ok = true;
    return out;
}

} // namespace qaic
