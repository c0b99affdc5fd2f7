#include "control/grape.h"

#include <algorithm>
#include <cmath>
#include <map>

#include "la/eig.h"
#include "la/expm.h"
#include "la/kernels.h"
#include "util/failpoint.h"
#include "util/logging.h"
#include "util/parallel.h"
#include "util/rng.h"

namespace qaic {

namespace {

// Forces optimize() to report non-convergence without burning
// iterations, so tests can drive the analytic-fallback (degraded)
// path of the GRAPE latency oracle deterministically.
QAIC_DEFINE_FAILPOINT(nonconvergeFp, "grape_nonconverge",
                      "GRAPE optimize() reports non-convergence");

/** Adam state for one variable tensor. */
struct Adam
{
    double beta1 = 0.9;
    double beta2 = 0.999;
    double eps = 1e-8;
    int step = 0;
    std::vector<double> m;
    std::vector<double> v;

    explicit Adam(std::size_t n) : m(n, 0.0), v(n, 0.0) {}

    /** In-place descent update of @p x along @p grad. */
    void
    update(std::vector<double> &x, const std::vector<double> &grad,
           double lr)
    {
        ++step;
        double c1 = 1.0 - std::pow(beta1, step);
        double c2 = 1.0 - std::pow(beta2, step);
        for (std::size_t i = 0; i < x.size(); ++i) {
            m[i] = beta1 * m[i] + (1.0 - beta1) * grad[i];
            v[i] = beta2 * v[i] + (1.0 - beta2) * grad[i] * grad[i];
            double mhat = m[i] / c1;
            double vhat = v[i] / c2;
            x[i] -= lr * mhat / (std::sqrt(vhat) + eps);
        }
    }
};

/** Piecewise-constant steps of a @p duration_ns pulse: at least 2. */
std::size_t
stepCount(double duration_ns, double dt)
{
    return std::max<std::size_t>(
        2, static_cast<std::size_t>(std::llround(duration_ns / dt)));
}

/** Everything one restart produces; selection happens afterwards. */
struct RestartOutcome
{
    double fidelity = 0.0;
    int iterations = 0;
    std::vector<double> trace;
    std::vector<double> u;
};

} // namespace

GrapeOptimizer::GrapeOptimizer(DeviceModel device)
    : device_(std::move(device))
{
    const double two_pi = 2.0 * M_PI;
    channels_.resize(device_.channels().size());
    for (std::size_t k = 0; k < channels_.size(); ++k) {
        const CMatrix op = device_.channelOperator(k) * Cmplx(two_pi, 0.0);
        const Cmplx *od = op.raw();
        for (std::size_t i = 0; i < op.rows() * op.cols(); ++i)
            if (od[i].real() != 0.0 || od[i].imag() != 0.0)
                channels_[k].push_back({i, od[i]});
    }
}

GrapeResult
GrapeOptimizer::optimize(const CMatrix &target, double duration_ns,
                         const GrapeOptions &options) const
{
    const std::size_t dim = std::size_t(1) << device_.numQubits();
    QAIC_CHECK_EQ(target.rows(), dim);
    QAIC_CHECK(target.isUnitary(1e-7)) << "GRAPE target must be unitary";
    QAIC_CHECK_GT(duration_ns, 0.0);

    if (nonconvergeFp.shouldFail()) {
        GrapeResult injected;
        injected.pulses.dt = options.dt;
        return injected; // fidelity 0, converged false
    }

    const std::size_t num_ch = channels_.size();
    const std::size_t steps = stepCount(duration_ns, options.dt);
    const std::size_t num_vars = num_ch * steps;
    const double dsq = static_cast<double>(dim) * static_cast<double>(dim);

    std::vector<double> umax(num_ch);
    for (std::size_t k = 0; k < num_ch; ++k)
        umax[k] = device_.channels()[k].maxAmplitude;

    CMatrix target_dag = target.dagger();

    // A usable warm start seeds one extra restart ahead of the random
    // ones, so the outcome set is a superset of the cold run's.
    const bool warm = options.warmStart != nullptr &&
                      options.warmStart->size() == num_ch &&
                      !options.warmStart->front().empty();
    const int cold_restarts = std::max(1, options.restarts);
    const int restarts = cold_restarts + (warm ? 1 : 0);

    // Pre-draw every random restart's initial guess in the sequential
    // draw order, so results are identical whether restarts then run
    // sequentially or fanned out over the pool.
    Rng rng(options.seed);
    std::vector<std::vector<double>> init(restarts);
    for (int r = warm ? 1 : 0; r < restarts; ++r) {
        init[r].resize(num_vars);
        for (double &v : init[r])
            v = rng.gaussian(0.4);
    }
    if (warm) {
        // Resample the stored waveform to this probe's step count
        // (linear interpolation at step midpoints) and invert the tanh
        // amplitude constraint, clamping strictly inside the bounds.
        init[0].resize(num_vars);
        for (std::size_t k = 0; k < num_ch; ++k) {
            const std::vector<double> &src = (*options.warmStart)[k];
            const double m = static_cast<double>(src.size());
            for (std::size_t j = 0; j < steps; ++j) {
                double pos = (static_cast<double>(j) + 0.5) /
                                 static_cast<double>(steps) * m -
                             0.5;
                pos = std::clamp(pos, 0.0, m - 1.0);
                const std::size_t lo = static_cast<std::size_t>(pos);
                const std::size_t hi =
                    std::min<std::size_t>(lo + 1, src.size() - 1);
                const double frac = pos - static_cast<double>(lo);
                const double amp =
                    src[lo] + frac * (src[hi] - src[lo]);
                const double ratio =
                    std::clamp(amp / umax[k], -1.0 + 1e-7, 1.0 - 1e-7);
                init[0][k * steps + j] = std::atanh(ratio);
            }
        }
    }

    /**
     * One full Adam descent from init[restart]. All per-iteration
     * buffers are hoisted here and the inner loops run through the
     * allocation-free la/kernels routines; @p eig_threads > 1 fans the
     * per-timestep eigendecompositions and gradient contractions out
     * over the pool (workers write disjoint eigs[j]/us[j]/grad[i]
     * slots, so results do not depend on scheduling).
     */
    auto runRestart = [&](int restart, int eig_threads,
                          RestartOutcome &out) {
        std::vector<double> vars = init[restart];
        Adam adam(num_vars);
        std::vector<double> grad(num_vars);
        std::vector<double> u(num_vars);
        out.trace.reserve(options.maxIterations);

        const int eworkers =
            resolveThreadCount(eig_threads, steps);
        std::vector<Workspace> wss(eworkers);
        std::vector<CMatrix> hs(eworkers, CMatrix(dim, dim));

        std::vector<EigResult> eigs(steps);
        std::vector<CMatrix> us(steps); // per-step unitaries
        std::vector<CMatrix> prefix(steps + 1);
        std::vector<CMatrix> suffix(steps + 1);
        prefix[0] = CMatrix::identity(dim);
        suffix[steps] = CMatrix::identity(dim);

        double fid = 0.0;
        int iters = 0;
        for (iters = 0; iters < options.maxIterations; ++iters) {
            // Iteration-granular deadline: stop where we stand; the
            // caller sees converged=false and degrades.
            if (options.deadline.expired())
                break;
            for (std::size_t i = 0; i < num_vars; ++i)
                u[i] = umax[i / steps] * std::tanh(vars[i]);

            // Forward pass: step Hamiltonians accumulated over each
            // channel's nonzeros, eigendecompositions and step
            // unitaries, fanned out.
            parallelFor(steps, eworkers, [&](std::size_t j, int w) {
                CMatrix &h = hs[w];
                h.setZero();
                Cmplx *hd = h.raw();
                for (std::size_t k = 0; k < num_ch; ++k) {
                    const double amp = u[k * steps + j];
                    if (amp == 0.0)
                        continue;
                    for (const ChannelEntry &c : channels_[k])
                        hd[c.index] += Cmplx(amp * c.value.real(),
                                             amp * c.value.imag());
                }
                hermitianEig(h, eigs[j], wss[w], 1e-6);
                expiFromEigInto(us[j], eigs[j], options.dt, wss[w]);
            });

            // Propagator prefix/suffix scans (inherently sequential).
            for (std::size_t j = 0; j < steps; ++j)
                multiplyInto(prefix[j + 1], us[j], prefix[j]);
            for (std::size_t j = steps; j > 0; --j)
                multiplyInto(suffix[j - 1], suffix[j], us[j - 1]);

            Cmplx z = frobeniusInner(target, prefix[steps]);
            fid = std::norm(z) / dsq;
            out.trace.push_back(fid);
            if (fid >= options.targetFidelity)
                break;

            // Backward pass: dF/du_k[j] = 2 Re(conj(z) Tr(W_j dU_j))/d^2
            // with W_j = P_{j-1} Ut^dag S_j. Everything is contracted in
            // the eigenbasis of step j: with Wt = V^dag W V, the Loewner
            // matrix G, and Mbar(b,a) = conj(G(b,a) Wt(a,b)), the
            // per-step gradient operator P = V Mbar V^dag satisfies
            // Tr(W dU_k) = sum_{s,r} K_k(s,r) conj(P(r,s)) — six GEMMs
            // per step total and only a sparse O(nnz(K)) contraction per
            // channel; no dU is ever materialized.
            parallelFor(steps, eworkers, [&](std::size_t j, int w) {
                Workspace &lws = wss[w];
                Workspace::Handle t1 = lws.acquire(dim, dim);
                Workspace::Handle t2 = lws.acquire(dim, dim);
                Workspace::Handle wt = lws.acquire(dim, dim);
                Workspace::Handle g = lws.acquire(dim, dim);
                Workspace::Handle p = lws.acquire(dim, dim);
                const CMatrix &v = eigs[j].vectors;

                multiplyInto(*t1, prefix[j], target_dag);
                multiplyInto(*t2, *t1, suffix[j + 1]); // W
                multiplyInto(*t1, *t2, v);             // W V
                multiplyAdjointInto(*wt, v, *t1);      // V^dag W V
                loewnerInto(*g, eigs[j].values, options.dt);

                // Mbar(b,a) = conj(G(b,a) * Wt(a,b)), built in t2.
                {
                    const Cmplx *wtd = wt->raw();
                    const Cmplx *gd = g->raw();
                    Cmplx *md = t2->raw();
                    for (std::size_t b = 0; b < dim; ++b) {
                        const Cmplx *grow = gd + b * dim;
                        Cmplx *mrow = md + b * dim;
                        for (std::size_t a = 0; a < dim; ++a) {
                            const double gr = grow[a].real();
                            const double gi = grow[a].imag();
                            const Cmplx wab = wtd[a * dim + b];
                            const double wr = wab.real();
                            const double wi = wab.imag();
                            mrow[a] = Cmplx(gr * wr - gi * wi,
                                            -(gr * wi + gi * wr));
                        }
                    }
                }
                multiplyInto(*t1, v, *t2);        // V Mbar
                multiplyDaggerInto(*p, *t1, v);   // P = V Mbar V^dag

                const Cmplx *pd = p->raw();
                for (std::size_t k = 0; k < num_ch; ++k) {
                    // Tr(W dU_k) = sum_{r,s} K(r,s) conj(P(r,s)) over the
                    // channel's nonzeros only.
                    double tr_re = 0.0, tr_im = 0.0;
                    for (const ChannelEntry &c : channels_[k]) {
                        const double kr = c.value.real();
                        const double ki = c.value.imag();
                        const double pr = pd[c.index].real();
                        const double pi = pd[c.index].imag();
                        tr_re += kr * pr + ki * pi;
                        tr_im += ki * pr - kr * pi;
                    }
                    Cmplx tr(tr_re, tr_im);
                    double dfid = 2.0 * (std::conj(z) * tr).real() / dsq;

                    std::size_t i = k * steps + j;
                    // Loss = 1 - F + penalties; descend.
                    double gpen = -dfid;
                    double un = u[i] / umax[k];
                    gpen += 2.0 * options.amplitudePenalty * un /
                            (umax[k] * double(num_vars));
                    // Slope penalty on neighbouring steps.
                    if (options.slopePenalty > 0.0) {
                        double left = j > 0 ? u[k * steps + j - 1] : 0.0;
                        double right =
                            j + 1 < steps ? u[k * steps + j + 1] : 0.0;
                        gpen += 2.0 * options.slopePenalty *
                                (2.0 * u[i] - left - right) /
                                (umax[k] * umax[k] * double(num_vars));
                    }
                    // Chain rule through u = umax * tanh(v).
                    double du_dv = umax[k] - u[i] * u[i] / umax[k];
                    grad[i] = gpen * du_dv;
                }
            });
            adam.update(vars, grad, options.learningRate);
        }

        out.fidelity = fid;
        out.iterations = iters;
        out.u = std::move(u);
    };

    // Scheduling policy: multiple restarts own the pool (one worker per
    // restart, eigs sequential inside); a single restart spends the pool
    // on the per-timestep fan-out instead.
    const int pool = resolveThreadCount(
        options.threads, std::max<std::size_t>(restarts, steps));

    std::vector<RestartOutcome> outcomes(restarts);
    std::vector<char> ran(restarts, 0);
    if (restarts > 1 && pool > 1) {
        parallelFor(restarts, std::min(pool, restarts),
                    [&](std::size_t r, int) {
                        runRestart(static_cast<int>(r), 1, outcomes[r]);
                        ran[r] = 1;
                    });
    } else {
        for (int r = 0; r < restarts; ++r) {
            runRestart(r, pool, outcomes[r]);
            ran[r] = 1;
            // Sequential early exit: later restarts are skipped once one
            // converges (the selection below replicates this cut-off for
            // the parallel path).
            if (outcomes[r].fidelity >= options.targetFidelity)
                break;
        }
    }

    // Winner selection, replicating the sequential scan: track the best
    // fidelity in restart order and stop at the first converged restart.
    GrapeResult best;
    for (int r = 0; r < restarts && ran[r]; ++r) {
        RestartOutcome &o = outcomes[r];
        if (o.fidelity > best.fidelity) {
            best.fidelity = o.fidelity;
            best.iterations = o.iterations;
            best.converged = o.fidelity >= options.targetFidelity;
            best.trace = std::move(o.trace);
            best.pulses.dt = options.dt;
            best.pulses.amplitudes.assign(num_ch, {});
            for (std::size_t k = 0; k < num_ch; ++k) {
                best.pulses.amplitudes[k].resize(steps);
                for (std::size_t j = 0; j < steps; ++j)
                    best.pulses.amplitudes[k][j] = o.u[k * steps + j];
            }
        }
        if (best.converged)
            break;
    }
    return best;
}

GrapeOptimizer::DurationSearch
GrapeOptimizer::minimizeDuration(const CMatrix &target, double t_lo,
                                 double t_hi, double resolution_ns,
                                 const GrapeOptions &options) const
{
    QAIC_CHECK(t_lo > 0.0 && t_hi >= t_lo && resolution_ns > 0.0);
    DurationSearch search;

    // Results by step count: a probe that rounds to an earlier probe's
    // step count would rerun the identical optimization.
    std::map<std::size_t, GrapeResult> done;
    auto probe = [&](double t) -> bool {
        const std::size_t steps = stepCount(t, options.dt);
        auto [it, fresh] = done.try_emplace(steps);
        if (fresh)
            it->second = optimize(target, t, options);
        const GrapeResult &r = it->second;
        search.probes.push_back(
            {t, r.fidelity, r.converged, r.iterations, steps, !fresh});
        if (r.converged &&
            (!search.found || t < search.minimalDuration)) {
            search.found = true;
            search.minimalDuration = t;
            search.best = r;
        }
        return r.converged;
    };

    // Phase 1: grow from t_lo until a converging duration is found.
    // Probe-granular deadline: an expired budget ends the search with
    // whatever has been found so far (possibly nothing — the caller
    // degrades to analytic pricing).
    double lo = 0.0;
    double hi = t_lo;
    while (hi < t_hi && !options.deadline.expired() && !probe(hi)) {
        lo = hi;
        hi = std::min(t_hi, hi * 1.6);
        if (hi == lo)
            break;
    }
    if (!search.found) {
        if (options.deadline.expired() || hi < t_hi || !probe(t_hi))
            return search;
        lo = hi;
        hi = t_hi;
    }

    // Phase 2: bisect [lo (fails), hi (converges)] to resolution.
    hi = search.minimalDuration;
    while (hi - lo > resolution_ns && !options.deadline.expired()) {
        double mid = 0.5 * (lo + hi);
        if (probe(mid))
            hi = search.minimalDuration;
        else
            lo = mid;
    }
    return search;
}

} // namespace qaic
