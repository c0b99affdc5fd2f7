/**
 * @file
 * Tests for the GRAPE optimal-control unit: analytic-gradient correctness
 * against finite differences, convergence on known gates, pulse
 * verification, amplitude-limit respect, and minimal-duration search.
 */
#include <algorithm>
#include <cmath>
#include <vector>

#include <gtest/gtest.h>

#include "control/grape.h"
#include "control/pulse.h"
#include "ir/gate.h"
#include "la/cmatrix.h"
#include "la/eig.h"
#include "la/expm.h"

namespace qaic {
namespace {

GrapeOptions
fastOptions()
{
    GrapeOptions opt;
    opt.maxIterations = 300;
    opt.targetFidelity = 0.999;
    opt.dt = 0.5;
    opt.restarts = 2;
    opt.amplitudePenalty = 1e-5;
    opt.slopePenalty = 1e-5;
    return opt;
}

TEST(PulseTest, ConstantXyPulseImplementsIswap)
{
    // Drive the single XY channel at full amplitude for 12.5 ns: the
    // textbook iSWAP implementation (up to conjugation phase conventions).
    DeviceModel dev = DeviceModel::line(2);
    PulseSequence pulses;
    pulses.dt = 0.5;
    pulses.amplitudes.assign(dev.channels().size(), {});
    std::size_t steps = 25; // 12.5 ns.
    for (std::size_t k = 0; k < dev.channels().size(); ++k)
        pulses.amplitudes[k].assign(steps, 0.0);
    for (std::size_t k = 0; k < dev.channels().size(); ++k)
        if (dev.channels()[k].type == ControlChannel::Type::kXY)
            for (auto &v : pulses.amplitudes[k])
                v = -dev.mu2(); // negative sign gives +i phases.

    CMatrix u = pulseUnitary(dev, pulses);
    EXPECT_NEAR(processFidelity(u, makeIswap(0, 1).matrix()), 1.0, 1e-6);
}

TEST(PulseTest, CsvHasHeaderAndRows)
{
    DeviceModel dev = DeviceModel::line(2);
    PulseSequence pulses;
    pulses.dt = 1.0;
    pulses.amplitudes.assign(dev.channels().size(),
                             std::vector<double>(3, 0.01));
    std::string csv = pulses.toCsv(dev);
    EXPECT_NE(csv.find("time_ns"), std::string::npos);
    EXPECT_NE(csv.find("xy0-1"), std::string::npos);
    // Header + 3 rows.
    EXPECT_EQ(std::count(csv.begin(), csv.end(), '\n'), 4);
}

TEST(GrapeTest, GradientMatchesFiniteDifference)
{
    // Re-derive the loss used by GRAPE for a tiny problem and compare its
    // analytic gradient (via expiDirectionalDerivative inside optimize)
    // against central differences computed from pulseUnitary.
    DeviceModel dev(1, {});
    CMatrix target = makeX(0).matrix();

    PulseSequence pulses;
    pulses.dt = 1.0;
    pulses.amplitudes = {{0.03, -0.02, 0.05}, {0.01, 0.04, -0.03}};

    auto fidelity = [&](const PulseSequence &p) {
        CMatrix u = pulseUnitary(dev, p);
        return processFidelity(u, target);
    };

    // Analytic gradient of F wrt u_k[j], mirroring grape.cc internals.
    const double two_pi = 2.0 * M_PI;
    std::vector<CMatrix> ops;
    for (std::size_t k = 0; k < dev.channels().size(); ++k)
        ops.push_back(dev.channelOperator(k) * Cmplx(two_pi, 0.0));

    std::size_t steps = 3;
    std::vector<EigResult> eigs(steps);
    std::vector<CMatrix> prefix(steps + 1), suffix(steps + 1);
    for (std::size_t j = 0; j < steps; ++j) {
        CMatrix h(2, 2);
        for (std::size_t k = 0; k < ops.size(); ++k)
            h += ops[k] * Cmplx(pulses.amplitudes[k][j], 0.0);
        eigs[j] = hermitianEig(h);
    }
    prefix[0] = CMatrix::identity(2);
    for (std::size_t j = 0; j < steps; ++j)
        prefix[j + 1] = expiFromEig(eigs[j], pulses.dt) * prefix[j];
    suffix[steps] = CMatrix::identity(2);
    for (std::size_t j = steps; j > 0; --j)
        suffix[j - 1] = suffix[j] * expiFromEig(eigs[j - 1], pulses.dt);

    Cmplx z = frobeniusInner(target, prefix[steps]);
    for (std::size_t j = 0; j < steps; ++j) {
        CMatrix w = prefix[j] * target.dagger() * suffix[j + 1];
        for (std::size_t k = 0; k < ops.size(); ++k) {
            CMatrix du =
                expiDirectionalDerivative(eigs[j], ops[k], pulses.dt);
            Cmplx tr(0, 0);
            for (std::size_t a = 0; a < 2; ++a)
                for (std::size_t b = 0; b < 2; ++b)
                    tr += w(a, b) * du(b, a);
            double analytic = 2.0 * (std::conj(z) * tr).real() / 4.0;

            double eps = 1e-6;
            PulseSequence plus = pulses, minus = pulses;
            plus.amplitudes[k][j] += eps;
            minus.amplitudes[k][j] -= eps;
            double numeric =
                (fidelity(plus) - fidelity(minus)) / (2.0 * eps);
            EXPECT_NEAR(analytic, numeric, 1e-5)
                << "channel " << k << " step " << j;
        }
    }
}

TEST(GrapeTest, SingleQubitXGateConverges)
{
    DeviceModel dev(1, {});
    GrapeOptimizer grape(dev);
    // Theoretical minimum: pi/(2 pi mu1) = 5 ns at mu1 = 0.1 GHz.
    GrapeResult result =
        grape.optimize(makeX(0).matrix(), 7.0, fastOptions());
    EXPECT_TRUE(result.converged)
        << "fidelity only reached " << result.fidelity;
    EXPECT_GE(result.fidelity, 0.999);

    // The returned pulse must reproduce the claimed fidelity.
    CMatrix u = pulseUnitary(dev, result.pulses);
    EXPECT_NEAR(processFidelity(u, makeX(0).matrix()), result.fidelity,
                1e-9);
}

TEST(GrapeTest, HadamardConverges)
{
    DeviceModel dev(1, {});
    GrapeOptimizer grape(dev);
    GrapeResult result =
        grape.optimize(makeH(0).matrix(), 12.0, fastOptions());
    EXPECT_TRUE(result.converged)
        << "fidelity only reached " << result.fidelity;
}

TEST(GrapeTest, RespectsAmplitudeLimits)
{
    DeviceModel dev(1, {});
    GrapeOptimizer grape(dev);
    GrapeResult result =
        grape.optimize(makeX(0).matrix(), 7.0, fastOptions());
    for (std::size_t k = 0; k < result.pulses.amplitudes.size(); ++k) {
        double limit = dev.channels()[k].maxAmplitude;
        for (double v : result.pulses.amplitudes[k])
            EXPECT_LE(std::abs(v), limit + 1e-12);
    }
}

TEST(GrapeTest, FidelityTraceIsRecorded)
{
    DeviceModel dev(1, {});
    GrapeOptimizer grape(dev);
    GrapeResult result =
        grape.optimize(makeH(0).matrix(), 10.0, fastOptions());
    ASSERT_FALSE(result.trace.empty());
    EXPECT_NEAR(result.trace.back(), result.fidelity, 1e-12);
    // Optimization should improve substantially over the starting point.
    EXPECT_GT(result.trace.back(), result.trace.front());
}

TEST(GrapeTest, TwoQubitIswapConverges)
{
    DeviceModel dev = DeviceModel::line(2);
    GrapeOptimizer grape(dev);
    GrapeOptions opt = fastOptions();
    opt.maxIterations = 500;
    // Interaction bound is 12.5 ns; give some slack.
    GrapeResult result =
        grape.optimize(makeIswap(0, 1).matrix(), 16.0, opt);
    EXPECT_TRUE(result.converged)
        << "fidelity only reached " << result.fidelity;

    CMatrix u = pulseUnitary(dev, result.pulses);
    EXPECT_GE(processFidelity(u, makeIswap(0, 1).matrix()), 0.999);
}

TEST(GrapeTest, TwoQubitCnotConverges)
{
    DeviceModel dev = DeviceModel::line(2);
    GrapeOptimizer grape(dev);
    GrapeOptions opt = fastOptions();
    opt.maxIterations = 600;
    GrapeResult result =
        grape.optimize(makeCnot(0, 1).matrix(), 25.0, opt);
    EXPECT_TRUE(result.converged)
        << "fidelity only reached " << result.fidelity;
}

TEST(GrapeTest, DurationSearchFindsXGateSpeedLimit)
{
    DeviceModel dev(1, {});
    GrapeOptimizer grape(dev);
    GrapeOptions opt = fastOptions();
    opt.maxIterations = 250;
    auto search =
        grape.minimizeDuration(makeX(0).matrix(), 3.0, 12.0, 1.0, opt);
    ASSERT_TRUE(search.found);
    // Quantum speed limit is 5 ns; allow discretization slack.
    EXPECT_GE(search.minimalDuration, 4.0);
    EXPECT_LE(search.minimalDuration, 8.0);
    EXPECT_FALSE(search.probes.empty());
}

TEST(GrapeTest, DurationSearchReusesProbesOfEqualStepCount)
{
    // Replays the search without reuse — optimize() at every probed
    // duration, same growth and bisection rules — and requires the
    // memoized search to report the same probes and the same answer.
    DeviceModel dev(1, {});
    GrapeOptimizer grape(dev);
    GrapeOptions opt = fastOptions();
    opt.maxIterations = 150;
    const CMatrix target = makeX(0).matrix();
    const double t_lo = 2.0, t_hi = 12.0, resolution = 0.1;

    struct Replayed
    {
        double duration;
        GrapeResult result;
    };
    std::vector<Replayed> replay;
    bool found = false;
    double minimal = 0.0;
    auto probe = [&](double t) {
        replay.push_back({t, grape.optimize(target, t, opt)});
        const bool ok = replay.back().result.converged;
        if (ok && (!found || t < minimal)) {
            found = true;
            minimal = t;
        }
        return ok;
    };
    double lo = 0.0, hi = t_lo;
    while (hi < t_hi && !probe(hi)) {
        lo = hi;
        hi = std::min(t_hi, hi * 1.6);
    }
    ASSERT_TRUE(found);
    hi = minimal;
    while (hi - lo > resolution) {
        const double mid = 0.5 * (lo + hi);
        if (probe(mid))
            hi = minimal;
        else
            lo = mid;
    }

    auto search = grape.minimizeDuration(target, t_lo, t_hi, resolution, opt);
    ASSERT_TRUE(search.found);
    EXPECT_EQ(search.minimalDuration, minimal);
    ASSERT_EQ(search.probes.size(), replay.size());
    std::vector<std::size_t> seen;
    int reused = 0;
    for (std::size_t i = 0; i < replay.size(); ++i) {
        const auto &p = search.probes[i];
        const GrapeResult &r = replay[i].result;
        EXPECT_EQ(p.duration, replay[i].duration) << "probe " << i;
        EXPECT_EQ(p.fidelity, r.fidelity) << "probe " << i;
        EXPECT_EQ(p.converged, r.converged) << "probe " << i;
        EXPECT_EQ(p.iterations, r.iterations) << "probe " << i;
        EXPECT_EQ(p.steps, static_cast<std::size_t>(std::max(
                               2LL, std::llround(p.duration / opt.dt))));
        const bool repeat =
            std::find(seen.begin(), seen.end(), p.steps) != seen.end();
        EXPECT_EQ(p.reused, repeat) << "probe " << i;
        reused += p.reused ? 1 : 0;
        seen.push_back(p.steps);
    }
    // A 0.1 ns resolution at dt = 0.5 must revisit step counts.
    EXPECT_GT(reused, 0);
    EXPECT_EQ(search.best.pulses.amplitudes,
              grape.optimize(target, minimal, opt).pulses.amplitudes);
}

/** (duration, converged, iterations, fidelity, reused) of one pinned probe. */
struct PinnedProbe
{
    double duration;
    bool converged;
    int iterations;
    double fidelity;
    bool reused;
};

void
expectProbes(const GrapeOptimizer::DurationSearch &search,
             const std::vector<PinnedProbe> &pinned)
{
    ASSERT_EQ(search.probes.size(), pinned.size());
    for (std::size_t i = 0; i < pinned.size(); ++i) {
        const auto &p = search.probes[i];
        EXPECT_NEAR(p.duration, pinned[i].duration, 1e-9) << "probe " << i;
        EXPECT_EQ(p.converged, pinned[i].converged) << "probe " << i;
        EXPECT_EQ(p.iterations, pinned[i].iterations) << "probe " << i;
        EXPECT_NEAR(p.fidelity, pinned[i].fidelity, 1e-6) << "probe " << i;
        EXPECT_EQ(p.reused, pinned[i].reused) << "probe " << i;
    }
}

TEST(GrapeTest, PinnedTwoQubitCnotSearch)
{
    // Probe sequence of the cyclic-Jacobi solver (GRAPE defaults): the
    // eigensolver may change rounding, not the search.
    DeviceModel dev = DeviceModel::line(2);
    GrapeOptimizer grape(dev);
    auto search = grape.minimizeDuration(makeCnot(0, 1).matrix(), 8.0,
                                         60.0, 0.5, GrapeOptions{});
    ASSERT_TRUE(search.found);
    EXPECT_NEAR(search.minimalDuration, 14.72, 1e-9);
    expectProbes(search, {{8.0, false, 400, 0.804633981, false},
                          {12.8, false, 400, 0.977146317, false},
                          {20.48, true, 55, 0.999411546, false},
                          {16.64, true, 179, 0.999009936, false},
                          {14.72, true, 324, 0.999002966, false},
                          {13.76, false, 400, 0.988557247, false},
                          {14.24, false, 400, 0.988557247, true}});
}

TEST(GrapeTest, PinnedThreeQubitCnotChainSearch)
{
    // A dim-8 search (one restart, 200 iterations), pinned likewise.
    DeviceModel dev = DeviceModel::line(3);
    GrapeOptimizer grape(dev);
    GrapeOptions opt;
    opt.maxIterations = 200;
    opt.restarts = 1;
    Gate chain = makeAggregate({makeCnot(0, 1), makeCnot(1, 2)});
    auto search =
        grape.minimizeDuration(chain.matrix(), 10.0, 80.0, 0.5, opt);
    ASSERT_TRUE(search.found);
    EXPECT_NEAR(search.minimalDuration, 33.76, 1e-9);
    expectProbes(search, {{10.0, false, 200, 0.642107784, false},
                          {16.0, false, 200, 0.867848667, false},
                          {25.6, false, 200, 0.995123394, false},
                          {40.96, true, 122, 0.999067930, false},
                          {33.28, false, 200, 0.852568910, false},
                          {37.12, true, 77, 0.999075879, false},
                          {35.2, true, 157, 0.999014629, false},
                          {34.24, true, 111, 0.999020179, false},
                          {33.76, true, 111, 0.999020179, true}});
}

TEST(GrapeTest, ImpossibleDurationFails)
{
    DeviceModel dev(1, {});
    GrapeOptimizer grape(dev);
    GrapeOptions opt = fastOptions();
    opt.maxIterations = 150;
    // 1 ns is far below the 5 ns speed limit for an X gate.
    GrapeResult result = grape.optimize(makeX(0).matrix(), 1.0, opt);
    EXPECT_FALSE(result.converged);
    EXPECT_LT(result.fidelity, 0.9);
}

} // namespace
} // namespace qaic
