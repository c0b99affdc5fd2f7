/**
 * @file
 * GRAPE (GRadient Ascent Pulse Engineering) quantum optimal control.
 *
 * Reproduces the paper's optimal-control unit (Section 3.5, [32]) on CPU:
 * piecewise-constant controls, *exact* hand-coded gradients of the gate
 * fidelity via the Daleckii–Krein derivative of the matrix exponential in
 * the eigenbasis of each step Hamiltonian (no first-order approximation),
 * Adam updates, tanh amplitude constraints, and optional amplitude/slope
 * regularizers mirroring the "realistic experimental concerns" of [32].
 *
 * A binary-search wrapper finds the minimal pulse duration that reaches a
 * target fidelity — the quantity the compiler consumes as instruction
 * latency.
 */
#ifndef QAIC_CONTROL_GRAPE_H
#define QAIC_CONTROL_GRAPE_H

#include <cstddef>
#include <cstdint>
#include <vector>

#include "control/pulse.h"
#include "device/device.h"
#include "la/cmatrix.h"
#include "util/deadline.h"

namespace qaic {

/** Knobs for a GRAPE run. */
struct GrapeOptions
{
    /** Iteration cap per restart. */
    int maxIterations = 400;
    /** Stop as soon as this gate fidelity is reached. */
    double targetFidelity = 0.999;
    /** Adam step size in the unconstrained (pre-tanh) variables. */
    double learningRate = 0.08;
    /** Weight of the mean-square-amplitude regularizer. */
    double amplitudePenalty = 1e-4;
    /** Weight of the slew-rate (finite-difference) regularizer. */
    double slopePenalty = 1e-4;
    /** Time-step length in ns. */
    double dt = 0.5;
    /** Independent random restarts; the best result wins. */
    int restarts = 2;
    /** PRNG seed for the initial pulse guesses. */
    std::uint64_t seed = 7;
    /**
     * Worker threads: 1 (the default) runs sequentially, <= 0 picks the
     * hardware concurrency. Multiple restarts fan out one-per-worker;
     * otherwise the per-timestep eigendecompositions and gradient
     * contractions fan out within the iteration. Results are identical
     * for every thread count (restart seeds are pre-drawn and workers
     * write disjoint outputs). Sequential is the default because GRAPE
     * often already runs inside a compileBatch worker — opt in where
     * the synthesis owns the machine.
     */
    int threads = 1;
    /**
     * Optional warm start: per-channel amplitude series (GHz) of a
     * previously optimized pulse, e.g. from a persistent pulse library
     * (oracle/pulselib.h). When set (and the channel count matches the
     * device), it seeds one extra restart *ahead* of the random ones —
     * linearly resampled to the probe's step count and clamped into the
     * amplitude bounds — so the result is never worse than the purely
     * cold run of the same options, and a near-match typically converges
     * in a handful of iterations. The pointee must outlive the call;
     * determinism is unaffected (the random restarts still draw the
     * same pre-drawn seeds).
     */
    const std::vector<std::vector<double>> *warmStart = nullptr;
    /**
     * Wall-clock budget, checked at iteration granularity inside every
     * restart and between duration probes. On expiry the optimizer
     * stops where it stands and reports converged=false — the caller
     * (the GRAPE latency oracle) degrades to analytic pricing rather
     * than erroring. Defaults to no deadline, which keeps results
     * bitwise deterministic; deadline-degraded results are the one
     * documented exception to determinism.
     */
    Deadline deadline;
};

/** Outcome of a GRAPE run. */
struct GrapeResult
{
    PulseSequence pulses;
    /** Achieved gate fidelity |Tr(U_target^dag U)|^2 / d^2. */
    double fidelity = 0.0;
    /** Iterations consumed by the winning restart. */
    int iterations = 0;
    /** True if targetFidelity was reached. */
    bool converged = false;
    /** Fidelity per iteration of the winning restart (Figure 3 data). */
    std::vector<double> trace;
};

/** GRAPE engine bound to one device model. */
class GrapeOptimizer
{
  public:
    /** Binds the optimizer to @p device (channel operators are cached
     *  as nonzero lists). */
    explicit GrapeOptimizer(DeviceModel device);

    /**
     * Optimizes a pulse of fixed duration toward @p target.
     *
     * @param target Unitary on the device's full register (dim 2^n).
     * @param duration_ns Pulse length; rounded to a whole number of steps.
     * @param options Hyper-parameters.
     */
    GrapeResult optimize(const CMatrix &target, double duration_ns,
                         const GrapeOptions &options = {}) const;

    /** One duration probe made by minimizeDuration. */
    struct DurationProbe
    {
        double duration = 0.0;
        double fidelity = 0.0;
        bool converged = false;
        /** Iterations of the winning restart. */
        int iterations = 0;
        /** Time steps the duration rounds to: max(2, llround(t / dt)). */
        std::size_t steps = 0;
        /**
         * True if an earlier probe of the same search had the same step
         * count, so its result was reused instead of re-optimizing.
         */
        bool reused = false;
    };

    /** Result of the minimal-duration search. */
    struct DurationSearch
    {
        /** True if any probed duration converged. */
        bool found = false;
        /** Shortest converging duration (ns). */
        double minimalDuration = 0.0;
        /** GRAPE result at that duration. */
        GrapeResult best;
        /** Every probe made, in search order. */
        std::vector<DurationProbe> probes;
    };

    /**
     * Finds the minimal duration in [t_lo, t_hi] reaching target fidelity:
     * grows by 1.6x from @p t_lo until a duration converges (probing
     * @p t_hi last), then bisects to @p resolution_ns. optimize() sees a
     * duration only through its step count, so a probe that rounds to
     * the step count of an earlier probe reuses that probe's result.
     */
    DurationSearch minimizeDuration(const CMatrix &target, double t_lo,
                                    double t_hi, double resolution_ns,
                                    const GrapeOptions &options = {}) const;

    const DeviceModel &device() const { return device_; }

  private:
    /** One nonzero of a 2*pi-scaled channel operator (row-major index). */
    struct ChannelEntry
    {
        std::size_t index = 0;
        Cmplx value;
    };

    DeviceModel device_;
    /**
     * Per channel, the nonzeros of 2*pi times its operator in row-major
     * order: the step-Hamiltonian build and the gradient contraction
     * touch only these (channel operators are sparse Pauli sums).
     */
    std::vector<std::vector<ChannelEntry>> channels_;
};

} // namespace qaic

#endif // QAIC_CONTROL_GRAPE_H
