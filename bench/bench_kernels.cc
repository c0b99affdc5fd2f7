/**
 * @file
 * Microbenchmarks for the la/kernels fast-path layer, with the naive
 * cmatrix.h implementations measured in the same binary as the pinned
 * baselines. Emits BENCH_kernels.json (ns/op, speedup vs. baseline,
 * CachingOracle hit rates) — the machine-readable perf trajectory that
 * the CI bench-smoke job archives per commit.
 *
 * Usage: bench_kernels [--quick] [--json FILE]
 */
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <string>

#include "bench_common.h"
#include "ir/gate.h"
#include "la/eig.h"
#include "la/expm.h"
#include "la/kernels.h"
#include "oracle/oracle.h"
#include "util/rng.h"

using namespace qaic;
using namespace qaic::bench;

namespace {

CMatrix
randomComplex(std::size_t n, Rng &rng)
{
    CMatrix m(n, n);
    for (std::size_t i = 0; i < n; ++i)
        for (std::size_t j = 0; j < n; ++j)
            m(i, j) = Cmplx(rng.gaussian(), rng.gaussian());
    return m;
}

CMatrix
randomHermitian(std::size_t n, Rng &rng)
{
    CMatrix a = randomComplex(n, rng);
    return (a + a.dagger()) * Cmplx(0.5, 0.0);
}

/** The pre-kernel-layer spectral exponential, kept as the baseline. */
CMatrix
naiveExpiFromEig(const EigResult &eig, double t)
{
    const std::size_t n = eig.vectors.rows();
    CMatrix phases(n, n);
    for (std::size_t i = 0; i < n; ++i)
        phases(i, i) = std::exp(Cmplx(0.0, -t * eig.values[i]));
    return eig.vectors * phases * eig.vectors.dagger();
}

/** Sum of squared magnitudes of the strict upper triangle. */
double
offDiagonalNorm2(const CMatrix &a)
{
    double s = 0.0;
    for (std::size_t p = 0; p < a.rows(); ++p)
        for (std::size_t q = p + 1; q < a.cols(); ++q)
            s += std::norm(a(p, q));
    return s;
}

/**
 * One cyclic Jacobi sweep over all pivots of Hermitian @p a, accumulating
 * the applied rotations into @p v. The rotation updates are spelled out
 * on the raw real/imag parts, as in the solver that replaced it, so the
 * comparison measures the algorithm rather than __muldc3 calls.
 */
void
jacobiSweep(CMatrix &a, CMatrix &v)
{
    const std::size_t n = a.rows();
    Cmplx *ad = a.raw();
    Cmplx *vd = v.raw();
    for (std::size_t p = 0; p < n; ++p) {
        for (std::size_t q = p + 1; q < n; ++q) {
            const double apq_re = a(p, q).real();
            const double apq_im = a(p, q).imag();
            const double r2 = apq_re * apq_re + apq_im * apq_im;
            // r and the pivot phase, spelled out to avoid the complex
            // abs (hypot) and division (__divdc3) library calls.
            const double r = std::sqrt(r2);
            if (r < 1e-300)
                continue;
            const double inv_r = 1.0 / r;
            const double phase_re = apq_re * inv_r;
            const double phase_im = apq_im * inv_r;
            double app = a(p, p).real();
            double aqq = a(q, q).real();
            double tau = (aqq - app) / (2.0 * r);
            double t = (tau >= 0.0 ? 1.0 : -1.0) /
                       (std::abs(tau) + std::sqrt(1.0 + tau * tau));
            double c = 1.0 / std::sqrt(1.0 + t * t);
            double s = t * c;
            // s * e^{+i phi} and s * e^{-i phi}.
            const double spr = s * phase_re;
            const double spi = s * phase_im;
            const double snr = spr;
            const double sni = -spi;

            // Column update: A <- A * J.
            for (std::size_t i = 0; i < n; ++i) {
                Cmplx *row = ad + i * n;
                const double pr = row[p].real(), pi = row[p].imag();
                const double qr = row[q].real(), qi = row[q].imag();
                row[p] = Cmplx(c * pr - (snr * qr - sni * qi),
                               c * pi - (snr * qi + sni * qr));
                row[q] = Cmplx(spr * pr - spi * pi + c * qr,
                               spr * pi + spi * pr + c * qi);
            }
            // Row update: A <- J^dag * A.
            {
                Cmplx *prow = ad + p * n;
                Cmplx *qrow = ad + q * n;
                for (std::size_t j = 0; j < n; ++j) {
                    const double pr = prow[j].real(), pi = prow[j].imag();
                    const double qr = qrow[j].real(), qi = qrow[j].imag();
                    prow[j] = Cmplx(c * pr - (spr * qr - spi * qi),
                                    c * pi - (spr * qi + spi * qr));
                    qrow[j] = Cmplx(snr * pr - sni * pi + c * qr,
                                    snr * pi + sni * pr + c * qi);
                }
            }
            // Accumulate eigenvectors: V <- V * J.
            for (std::size_t i = 0; i < n; ++i) {
                Cmplx *row = vd + i * n;
                const double pr = row[p].real(), pi = row[p].imag();
                const double qr = row[q].real(), qi = row[q].imag();
                row[p] = Cmplx(c * pr - (snr * qr - sni * qi),
                               c * pi - (snr * qi + sni * qr));
                row[q] = Cmplx(spr * pr - spi * pi + c * qr,
                               spr * pi + spi * pr + c * qi);
            }
        }
    }
}

/**
 * The cyclic complex Jacobi eigensolver that hermitianEig used before
 * the Householder + implicit QL solver, kept as the baseline: sweeps
 * to an off-diagonal norm of 1e-14 relative, then selection-sorts.
 */
void
jacobiEig(const CMatrix &a, EigResult &out, Workspace &ws)
{
    const std::size_t n = a.rows();
    Workspace::Handle wh = ws.acquire(n, n);
    CMatrix &work = *wh;
    work = a;
    double fro2 = 0.0;
    for (std::size_t i = 0; i < n; ++i)
        for (std::size_t j = 0; j < n; ++j)
            fro2 += std::norm(a(i, j));
    CMatrix &v = out.vectors;
    v = CMatrix::identity(n);
    const double scale = std::max(1.0, std::sqrt(fro2));
    const double tol2 = 1e-28 * scale * scale;
    for (int sweep = 0; offDiagonalNorm2(work) > tol2 && sweep < 60;
         ++sweep)
        jacobiSweep(work, v);
    out.values.resize(n);
    for (std::size_t i = 0; i < n; ++i)
        out.values[i] = work(i, i).real();
    for (std::size_t k = 0; k + 1 < n; ++k) {
        std::size_t min_idx = k;
        for (std::size_t j = k + 1; j < n; ++j)
            if (out.values[j] < out.values[min_idx])
                min_idx = j;
        if (min_idx == k)
            continue;
        std::swap(out.values[k], out.values[min_idx]);
        for (std::size_t i = 0; i < n; ++i)
            std::swap(v(i, k), v(i, min_idx));
    }
}

} // namespace

int
main(int argc, char **argv)
{
    bool quick = false;
    std::string json_path;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--quick") == 0)
            quick = true;
        else if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc)
            json_path = argv[++i];
    }
    const long long reps = quick ? 2000 : 20000;

    std::printf("=== Kernel microbenchmarks (%s, %lld reps/size) ===\n\n",
                quick ? "quick" : "full", reps);
    BenchReport report("kernels");
    Rng rng(42);
    Workspace ws;

    for (std::size_t n : {4ul, 8ul, 16ul}) {
        CMatrix a = randomComplex(n, rng);
        CMatrix b = randomComplex(n, rng);
        CMatrix h = randomHermitian(n, rng);
        EigResult eig = hermitianEig(h);
        CMatrix dest;
        char name[64];

        // GEMM: temporary-spawning operator* vs. multiplyInto.
        double base = measureNs(reps, [&] { CMatrix c = a * b; });
        double fast = measureNs(reps, [&] { multiplyInto(dest, a, b); });
        std::snprintf(name, sizeof(name), "gemm/n=%zu", n);
        report.add(name, fast, reps, base);

        // A * B^dag: materialized dagger vs. the fused kernel.
        base = measureNs(reps, [&] { CMatrix c = a * b.dagger(); });
        fast = measureNs(reps, [&] { multiplyDaggerInto(dest, a, b); });
        std::snprintf(name, sizeof(name), "gemm_dagger/n=%zu", n);
        report.add(name, fast, reps, base);

        // A^dag * B.
        base = measureNs(reps, [&] { CMatrix c = a.dagger() * b; });
        fast = measureNs(reps, [&] { multiplyAdjointInto(dest, a, b); });
        std::snprintf(name, sizeof(name), "gemm_adjoint/n=%zu", n);
        report.add(name, fast, reps, base);

        // Scaled accumulate (the step-Hamiltonian build).
        CMatrix acc(n, n);
        base = measureNs(reps, [&] { acc += b * Cmplx(0.5, 0.0); });
        fast = measureNs(
            reps, [&] { addScaledInPlace(acc, b, Cmplx(0.5, 0.0)); });
        std::snprintf(name, sizeof(name), "axpy/n=%zu", n);
        report.add(name, fast, reps, base);

        // Spectral exponential.
        base = measureNs(reps,
                         [&] { CMatrix u = naiveExpiFromEig(eig, 0.5); });
        fast = measureNs(reps,
                         [&] { expiFromEigInto(dest, eig, 0.5, ws); });
        std::snprintf(name, sizeof(name), "expi_from_eig/n=%zu", n);
        report.add(name, fast, reps, base);

        // Hermitian eigendecomposition: the former cyclic Jacobi vs.
        // Householder + implicit QL, both reusing one EigResult and
        // workspace.
        long long eig_reps = reps / 10;
        EigResult scratch_eig;
        base = measureNs(eig_reps,
                         [&] { jacobiEig(h, scratch_eig, ws); });
        fast = measureNs(eig_reps,
                         [&] { hermitianEig(h, scratch_eig, ws); });
        std::snprintf(name, sizeof(name), "hermitian_eig/n=%zu", n);
        report.add(name, fast, eig_reps, base);

        // GRAPE gradient kernel: value API vs. allocation-free variant.
        base = measureNs(eig_reps, [&] {
            CMatrix d = expiDirectionalDerivative(eig, h, 0.5);
        });
        fast = measureNs(eig_reps, [&] {
            expiDirectionalDerivativeInto(dest, eig, h, 0.5, ws);
        });
        std::snprintf(name, sizeof(name), "directional_deriv/n=%zu", n);
        report.add(name, fast, eig_reps, base);

        // Pade exponential (no naive twin — tracked absolute).
        CMatrix gen = h * Cmplx(0.0, -0.5);
        fast = measureNs(eig_reps, [&] { CMatrix e = expmPade(gen); });
        std::snprintf(name, sizeof(name), "expm_pade/n=%zu", n);
        report.add(name, fast, eig_reps);
    }

    // CachingOracle: miss-path pricing vs. cached lookups, plus the
    // observed hit rate from the new stats() counters.
    {
        CachingOracle oracle(std::make_shared<AnalyticOracle>());
        const Gate gates[] = {makeH(0),           makeT(1),
                              makeRx(0, 0.7),     makeRz(1, 1.3),
                              makeCnot(0, 1),     makeCz(0, 1),
                              makeRzz(0, 1, 0.9), makeSwap(0, 1)};
        double miss_start = nowNs();
        for (const Gate &g : gates)
            oracle.latencyNs(g);
        double miss_ns = (nowNs() - miss_start) / 8.0;

        const long long lookup_reps = quick ? 200 : 2000;
        double hit_ns = measureNs(lookup_reps, [&] {
            for (const Gate &g : gates)
                oracle.latencyNs(g);
        }) / 8.0;

        CachingOracle::Stats stats = oracle.stats();
        BenchReport::Record &r =
            report.add("oracle_cached_lookup", hit_ns,
                       lookup_reps * 8, miss_ns);
        r.extra.emplace_back("hit_rate", stats.hitRate());
        r.extra.emplace_back("entries",
                             static_cast<double>(stats.entries));
        r.extra.emplace_back("peak_inflight",
                             static_cast<double>(stats.peakInflight));
    }

    for (const BenchReport::Record &r : report.records()) {
        if (r.baselineNsPerOp > 0.0)
            std::printf("  %-24s %10.1f ns/op  (baseline %10.1f, "
                        "speedup %5.2fx)\n",
                        r.name.c_str(), r.nsPerOp, r.baselineNsPerOp,
                        r.baselineNsPerOp / r.nsPerOp);
        else
            std::printf("  %-24s %10.1f ns/op\n", r.name.c_str(),
                        r.nsPerOp);
    }
    std::printf("\n");
    return report.writeFile(json_path) ? 0 : 1;
}
