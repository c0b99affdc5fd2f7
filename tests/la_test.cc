/**
 * @file
 * Unit and property tests for the dense linear-algebra substrate.
 */
#include <algorithm>
#include <cmath>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "device/device.h"
#include "la/cmatrix.h"
#include "la/eig.h"
#include "la/expm.h"
#include "la/lu.h"
#include "test_util.h"
#include "util/rng.h"

namespace qaic {
namespace {

using testing::randomComplex;
using testing::randomHermitian;
using testing::randomUnitary;

TEST(CMatrixTest, IdentityProperties)
{
    CMatrix id = CMatrix::identity(4);
    EXPECT_TRUE(id.isUnitary());
    EXPECT_TRUE(id.isHermitian());
    EXPECT_TRUE(id.isDiagonal());
    EXPECT_DOUBLE_EQ(id.trace().real(), 4.0);
    EXPECT_DOUBLE_EQ(id.frobeniusNorm(), 2.0);
}

TEST(CMatrixTest, InitializerListLayout)
{
    CMatrix m{{1, 2}, {3, Cmplx(0, 4)}};
    EXPECT_EQ(m.rows(), 2u);
    EXPECT_EQ(m.cols(), 2u);
    EXPECT_EQ(m(0, 1), Cmplx(2, 0));
    EXPECT_EQ(m(1, 0), Cmplx(3, 0));
    EXPECT_EQ(m(1, 1), Cmplx(0, 4));
}

TEST(CMatrixTest, MultiplyMatchesManual)
{
    CMatrix a{{1, 2}, {3, 4}};
    CMatrix b{{5, 6}, {7, 8}};
    CMatrix c = a * b;
    EXPECT_EQ(c(0, 0), Cmplx(19, 0));
    EXPECT_EQ(c(0, 1), Cmplx(22, 0));
    EXPECT_EQ(c(1, 0), Cmplx(43, 0));
    EXPECT_EQ(c(1, 1), Cmplx(50, 0));
}

TEST(CMatrixTest, DaggerIsConjugateTranspose)
{
    Rng rng(1);
    CMatrix a = randomComplex(5, rng);
    CMatrix d = a.dagger();
    for (std::size_t i = 0; i < 5; ++i)
        for (std::size_t j = 0; j < 5; ++j)
            EXPECT_EQ(d(i, j), std::conj(a(j, i)));
}

TEST(CMatrixTest, KronDimensionsAndValues)
{
    CMatrix a{{1, 2}, {3, 4}};
    CMatrix b{{0, 5}, {6, 0}};
    CMatrix k = a.kron(b);
    ASSERT_EQ(k.rows(), 4u);
    EXPECT_EQ(k(0, 1), Cmplx(5, 0));  // a00 * b01
    EXPECT_EQ(k(1, 0), Cmplx(6, 0));  // a00 * b10
    EXPECT_EQ(k(2, 3), Cmplx(20, 0)); // a11 * b01
    EXPECT_EQ(k(3, 2), Cmplx(24, 0)); // a11 * b10
}

TEST(CMatrixTest, KronOfUnitariesIsUnitary)
{
    Rng rng(2);
    CMatrix u = randomUnitary(4, rng);
    CMatrix v = randomUnitary(2, rng);
    EXPECT_TRUE(u.kron(v).isUnitary(1e-9));
}

TEST(CMatrixTest, ApplyMatchesMatrixVector)
{
    CMatrix a{{1, 2}, {3, 4}};
    std::vector<Cmplx> v{Cmplx(1, 0), Cmplx(0, 1)};
    auto out = a.apply(v);
    EXPECT_NEAR(std::abs(out[0] - Cmplx(1, 2)), 0.0, 1e-12);
    EXPECT_NEAR(std::abs(out[1] - Cmplx(3, 4)), 0.0, 1e-12);
}

TEST(CMatrixTest, PhaseDistanceIgnoresGlobalPhase)
{
    Rng rng(3);
    CMatrix u = randomUnitary(4, rng);
    CMatrix v = u * std::exp(Cmplx(0, 1.234));
    EXPECT_NEAR(phaseDistance(u, v), 0.0, 1e-7);
    EXPECT_NEAR(processFidelity(u, v), 1.0, 1e-9);
}

TEST(CMatrixTest, ProcessFidelityDiscriminates)
{
    Rng rng(4);
    CMatrix u = randomUnitary(4, rng);
    CMatrix v = randomUnitary(4, rng);
    EXPECT_LT(processFidelity(u, v), 0.99);
}

TEST(CMatrixTest, CommutatorOfCommutingIsZero)
{
    CMatrix d1 = CMatrix::diag({1, 2, 3});
    CMatrix d2 = CMatrix::diag({Cmplx(0, 1), 5, 7});
    EXPECT_TRUE(commutes(d1, d2));
    CMatrix x{{0, 1}, {1, 0}};
    CMatrix z = CMatrix::diag({1, -1});
    EXPECT_FALSE(commutes(x, z));
}

class HermitianEigSweep : public ::testing::TestWithParam<int>
{
};

TEST_P(HermitianEigSweep, ReconstructsMatrix)
{
    Rng rng(100 + GetParam());
    std::size_t n = static_cast<std::size_t>(GetParam());
    CMatrix h = randomHermitian(n, rng);
    EigResult eig = hermitianEig(h);

    EXPECT_TRUE(eig.vectors.isUnitary(1e-8));
    CMatrix recon = eig.vectors *
                    CMatrix::diag(std::vector<Cmplx>(eig.values.begin(),
                                                     eig.values.end())) *
                    eig.vectors.dagger();
    EXPECT_TRUE(recon.approxEqual(h, 1e-8));
    for (std::size_t i = 1; i < n; ++i)
        EXPECT_LE(eig.values[i - 1], eig.values[i]);
}

INSTANTIATE_TEST_SUITE_P(Dims, HermitianEigSweep,
                         ::testing::Values(1, 2, 3, 4, 8, 16, 32));

TEST(EigTest, DegenerateSpectrum)
{
    // Projector with eigenvalues {0, 0, 1, 1}.
    CMatrix h = CMatrix::diag({0, 0, 1, 1});
    EigResult eig = hermitianEig(h);
    EXPECT_NEAR(eig.values[0], 0.0, 1e-12);
    EXPECT_NEAR(eig.values[3], 1.0, 1e-12);
}

TEST(EigTest, SimultaneousDiagonalization)
{
    Rng rng(7);
    // Build commuting pair: shared eigenbasis with degenerate x-spectrum.
    CMatrix u = randomUnitary(6, rng);
    CMatrix dx = CMatrix::diag({1, 1, 1, 2, 2, 3});
    CMatrix dy = CMatrix::diag({5, 4, 3, 2, 1, 0});
    CMatrix x = u * dx * u.dagger();
    CMatrix y = u * dy * u.dagger();
    // Hermitize against rounding noise.
    x = (x + x.dagger()) * Cmplx(0.5, 0);
    y = (y + y.dagger()) * Cmplx(0.5, 0);

    SimultaneousEigResult sim = simultaneousEig(x, y);
    EXPECT_TRUE(sim.vectors.isUnitary(1e-8));
    CMatrix xd = sim.vectors.dagger() * x * sim.vectors;
    CMatrix yd = sim.vectors.dagger() * y * sim.vectors;
    EXPECT_TRUE(xd.isDiagonal(1e-7));
    EXPECT_TRUE(yd.isDiagonal(1e-7));
}

/**
 * Checks an eigendecomposition against the solver's accuracy contract:
 * ascending eigenvalues, and both the residual |H V - V diag(values)|
 * and the orthonormality defect |V^dag V - I| (Frobenius) within
 * 1e-12 max(1, |H|).
 */
void
expectAccurateEig(const CMatrix &h, const EigResult &eig)
{
    const std::size_t n = h.rows();
    ASSERT_EQ(eig.values.size(), n);
    ASSERT_EQ(eig.vectors.rows(), n);
    ASSERT_EQ(eig.vectors.cols(), n);
    for (std::size_t i = 1; i < n; ++i)
        EXPECT_LE(eig.values[i - 1], eig.values[i]);
    const double bound = 1e-12 * std::max(1.0, h.frobeniusNorm());
    CMatrix vl = eig.vectors *
                 CMatrix::diag(std::vector<Cmplx>(eig.values.begin(),
                                                  eig.values.end()));
    EXPECT_LE((h * eig.vectors - vl).frobeniusNorm(), bound);
    EXPECT_LE((eig.vectors.dagger() * eig.vectors - CMatrix::identity(n))
                  .frobeniusNorm(),
              bound);
}

/** Pauli string on n qubits, e.g. "XIZ" (qubit 0 leftmost). */
CMatrix
pauliString(const std::string &s)
{
    const CMatrix i2 = CMatrix::identity(2);
    const CMatrix x{{0, 1}, {1, 0}};
    const CMatrix y{{0, Cmplx(0, -1)}, {Cmplx(0, 1), 0}};
    const CMatrix z = CMatrix::diag({1, -1});
    CMatrix out = CMatrix::identity(1);
    for (char c : s)
        out = out.kron(c == 'X' ? x : c == 'Y' ? y : c == 'Z' ? z : i2);
    return out;
}

class HermitianEigBounds : public ::testing::TestWithParam<int>
{
};

TEST_P(HermitianEigBounds, RandomHermitianMeetsAccuracyContract)
{
    Rng rng(500 + GetParam());
    CMatrix h = randomHermitian(static_cast<std::size_t>(GetParam()), rng);
    expectAccurateEig(h, hermitianEig(h));
}

TEST_P(HermitianEigBounds, RealSymmetricMeetsAccuracyContract)
{
    // Real input keeps every reflector and phase real (the Weyl path).
    Rng rng(600 + GetParam());
    CMatrix g = randomHermitian(static_cast<std::size_t>(GetParam()), rng);
    CMatrix h = (g + g.conjugate()) * Cmplx(0.5, 0.0);
    expectAccurateEig(h, hermitianEig(h));
}

TEST_P(HermitianEigBounds, SmallNormInputMeetsAccuracyContract)
{
    Rng rng(700 + GetParam());
    CMatrix h = randomHermitian(static_cast<std::size_t>(GetParam()), rng) *
                Cmplx(1e-6, 0.0);
    expectAccurateEig(h, hermitianEig(h));
}

INSTANTIATE_TEST_SUITE_P(Dims, HermitianEigBounds,
                         ::testing::Values(1, 2, 3, 4, 8, 16, 32));

TEST(EigTest, DegenerateSpectraMeetAccuracyContract)
{
    // Identity (one n-fold eigenvalue), XX+YY (eigenvalues -2, 0, 0, 2)
    // and Pauli sums with highly degenerate spectra.
    const std::vector<CMatrix> cases = {
        CMatrix::identity(8),
        pauliString("XX") + pauliString("YY"),
        pauliString("XXI") + pauliString("YYI") + pauliString("IXX") +
            pauliString("IYY"),
        pauliString("ZZI") + pauliString("IZZ"),
        pauliString("XIII") + pauliString("IXII") + pauliString("IIXI") +
            pauliString("IIIX"),
    };
    for (const CMatrix &h : cases)
        expectAccurateEig(h, hermitianEig(h));

    EigResult xy = hermitianEig(pauliString("XX") + pauliString("YY"));
    const double expected[] = {-2.0, 0.0, 0.0, 2.0};
    for (std::size_t i = 0; i < 4; ++i)
        EXPECT_NEAR(xy.values[i], expected[i], 1e-14);
}

TEST(EigTest, ZeroMatrixGivesZeroSpectrumAndIdentityLikeBasis)
{
    for (std::size_t n : {1u, 2u, 5u, 8u}) {
        CMatrix h(n, n);
        EigResult eig = hermitianEig(h);
        expectAccurateEig(h, eig);
        for (double v : eig.values)
            EXPECT_EQ(v, 0.0);
    }
}

TEST(EigTest, DiagonalInputIsExactAndSorted)
{
    CMatrix h = CMatrix::diag({3.5, -1.0, 2.0, -1.0, 0.25});
    EigResult eig = hermitianEig(h);
    expectAccurateEig(h, eig);
    const double expected[] = {-1.0, -1.0, 0.25, 2.0, 3.5};
    for (std::size_t i = 0; i < 5; ++i)
        EXPECT_EQ(eig.values[i], expected[i]);
}

TEST(EigTest, TridiagonalInputWithComplexCouplings)
{
    // Already tridiagonal, with complex and zero couplings: no reflector
    // is needed, only the phase scaling and QL.
    const std::size_t n = 7;
    CMatrix h(n, n);
    Rng rng(31);
    for (std::size_t i = 0; i < n; ++i)
        h(i, i) = rng.gaussian();
    for (std::size_t i = 0; i + 1 < n; ++i) {
        Cmplx c = i == 3 ? Cmplx(0.0, 0.0)
                         : Cmplx(rng.gaussian(), rng.gaussian());
        h(i + 1, i) = c;
        h(i, i + 1) = std::conj(c);
    }
    expectAccurateEig(h, hermitianEig(h));
}

TEST(EigTest, GrapeLikeSparseHamiltonians)
{
    // Step Hamiltonians as GRAPE builds them: random amplitudes on the
    // drive and exchange channels of a line device (zero diagonal,
    // sparse Pauli structure), including steps where some channels are
    // switched off.
    for (int nq : {1, 2, 3}) {
        DeviceModel dev = DeviceModel::line(nq);
        const std::size_t dim = std::size_t(1) << nq;
        Rng rng(40 + nq);
        for (int trial = 0; trial < 20; ++trial) {
            CMatrix h(dim, dim);
            for (std::size_t k = 0; k < dev.channels().size(); ++k) {
                if (trial % 4 == 0 && k % 2 == 0)
                    continue;
                h += dev.channelOperator(k) *
                     Cmplx(2.0 * M_PI * dev.channels()[k].maxAmplitude *
                               rng.gaussian(),
                           0.0);
            }
            expectAccurateEig(h, hermitianEig(h, 1e-6));
        }
    }
}

TEST(EigTest, EigenvaluesMatchDiagonalizedSpectrum)
{
    // U diag(lambda) U^dag with a known, partly degenerate spectrum.
    Rng rng(9);
    const std::vector<double> lambda = {-3.0, -0.5, -0.5, 0.0, 1.0,
                                        1.0,  1.0,  4.0};
    CMatrix u = randomUnitary(8, rng);
    CMatrix h = u *
                CMatrix::diag(std::vector<Cmplx>(lambda.begin(),
                                                 lambda.end())) *
                u.dagger();
    h = (h + h.dagger()) * Cmplx(0.5, 0.0);
    EigResult eig = hermitianEig(h);
    expectAccurateEig(h, eig);
    for (std::size_t i = 0; i < lambda.size(); ++i)
        EXPECT_NEAR(eig.values[i], lambda[i], 1e-13);
}

using EigDeathTest = ::testing::Test;

TEST(EigDeathTest, RejectsNonHermitianOffDiagonal)
{
    CMatrix bad{{1.0, Cmplx(0.5, 0.2)}, {Cmplx(0.5, 0.2), 2.0}};
    EXPECT_DEATH(hermitianEig(bad), "hermitianEig on non-Hermitian");
}

TEST(LuTest, SolveRecoversSolution)
{
    Rng rng(8);
    CMatrix a = randomComplex(6, rng);
    std::vector<Cmplx> x_true;
    for (int i = 0; i < 6; ++i)
        x_true.push_back(Cmplx(rng.gaussian(), rng.gaussian()));
    std::vector<Cmplx> b = a.apply(x_true);
    std::vector<Cmplx> x = LuFactorization(a).solve(b);
    for (int i = 0; i < 6; ++i)
        EXPECT_NEAR(std::abs(x[i] - x_true[i]), 0.0, 1e-9);
}

TEST(LuTest, DeterminantOfKnownMatrix)
{
    CMatrix a{{2, 0}, {0, 3}};
    EXPECT_NEAR(std::abs(determinant(a) - Cmplx(6, 0)), 0.0, 1e-12);
    CMatrix swap{{0, 1}, {1, 0}};
    EXPECT_NEAR(std::abs(determinant(swap) - Cmplx(-1, 0)), 0.0, 1e-12);
}

TEST(LuTest, DeterminantOfUnitaryHasUnitModulus)
{
    Rng rng(9);
    CMatrix u = randomUnitary(8, rng);
    EXPECT_NEAR(std::abs(determinant(u)), 1.0, 1e-9);
}

TEST(LuTest, InverseTimesSelfIsIdentity)
{
    Rng rng(10);
    CMatrix a = randomComplex(5, rng);
    CMatrix inv = inverse(a);
    EXPECT_TRUE((a * inv).approxEqual(CMatrix::identity(5), 1e-8));
}

TEST(LuTest, SingularDetection)
{
    CMatrix a{{1, 2}, {2, 4}};
    LuFactorization lu(a);
    EXPECT_TRUE(lu.singular());
}

TEST(ExpmTest, ZeroGeneratorGivesIdentity)
{
    CMatrix h = CMatrix::zeros(4, 4);
    EXPECT_TRUE(expiHermitian(h, 1.0).approxEqual(CMatrix::identity(4)));
}

TEST(ExpmTest, PauliXRotation)
{
    // exp(-i t X) = cos(t) I - i sin(t) X.
    CMatrix x{{0, 1}, {1, 0}};
    double t = 0.7;
    CMatrix u = expiHermitian(x, t);
    EXPECT_NEAR(u(0, 0).real(), std::cos(t), 1e-12);
    EXPECT_NEAR(u(0, 1).imag(), -std::sin(t), 1e-12);
}

TEST(ExpmTest, HermitianExponentialIsUnitary)
{
    Rng rng(11);
    for (int trial = 0; trial < 5; ++trial) {
        CMatrix h = randomHermitian(8, rng);
        EXPECT_TRUE(expiHermitian(h, 0.37).isUnitary(1e-9));
    }
}

TEST(ExpmTest, EigAndPadeAgree)
{
    Rng rng(12);
    CMatrix h = randomHermitian(6, rng);
    double t = 0.9;
    CMatrix via_eig = expiHermitian(h, t);
    CMatrix via_pade = expmPade(h * Cmplx(0.0, -t));
    EXPECT_TRUE(via_eig.approxEqual(via_pade, 1e-9));
}

TEST(ExpmTest, PadeHandlesLargeNorm)
{
    Rng rng(13);
    CMatrix h = randomHermitian(4, rng) * Cmplx(40.0, 0.0);
    CMatrix via_eig = expiHermitian(h, 1.0);
    CMatrix via_pade = expmPade(h * Cmplx(0.0, -1.0));
    EXPECT_TRUE(via_eig.approxEqual(via_pade, 1e-7));
}

TEST(ExpmTest, GroupProperty)
{
    Rng rng(14);
    CMatrix h = randomHermitian(4, rng);
    CMatrix u1 = expiHermitian(h, 0.3);
    CMatrix u2 = expiHermitian(h, 0.5);
    CMatrix u3 = expiHermitian(h, 0.8);
    EXPECT_TRUE((u2 * u1).approxEqual(u3, 1e-9));
}

TEST(ExpmTest, DirectionalDerivativeMatchesFiniteDifference)
{
    Rng rng(15);
    CMatrix h = randomHermitian(4, rng);
    CMatrix k = randomHermitian(4, rng);
    double t = 0.6;

    CMatrix analytic = expiDirectionalDerivative(hermitianEig(h), k, t);

    double eps = 1e-6;
    CMatrix plus = expiHermitian(h + k * Cmplx(eps, 0), t);
    CMatrix minus = expiHermitian(h - k * Cmplx(eps, 0), t);
    CMatrix numeric = (plus - minus) * Cmplx(1.0 / (2.0 * eps), 0.0);

    EXPECT_TRUE(analytic.approxEqual(numeric, 1e-5));
}

TEST(ExpmTest, DirectionalDerivativeDegenerateSpectrum)
{
    // H with exact degeneracy exercises the confluent branch.
    CMatrix h = CMatrix::diag({1, 1, 2, 2});
    Rng rng(16);
    CMatrix k = randomHermitian(4, rng);
    double t = 0.8;
    CMatrix analytic = expiDirectionalDerivative(hermitianEig(h), k, t);
    double eps = 1e-6;
    CMatrix numeric = (expiHermitian(h + k * Cmplx(eps, 0), t) -
                       expiHermitian(h - k * Cmplx(eps, 0), t)) *
                      Cmplx(1.0 / (2.0 * eps), 0.0);
    EXPECT_TRUE(analytic.approxEqual(numeric, 1e-5));
}

} // namespace
} // namespace qaic
