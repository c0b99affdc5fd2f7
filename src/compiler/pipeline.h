/**
 * @file
 * Composable pass-pipeline compiler API.
 *
 * The paper's Figure 5 presents compilation as a sequence of
 * interchangeable stages (frontend lowering, commutativity detection +
 * CLS, mapping, a gate-based or aggregating backend, scheduling). This
 * header makes that structure explicit:
 *
 *  - Pass               one stage: name() + run(CompilationContext&).
 *  - CompilationContext the evolving artifacts a compilation owns —
 *                       working circuit, routing result, physical
 *                       circuit, schedule, diagnostics, per-pass
 *                       wall-clock metrics — plus the shared services
 *                       (device, resolved options, latency oracle,
 *                       commutation checker) the passes consume.
 *  - Pipeline           an ordered pass list; Pipeline::forStrategy
 *                       yields the canonical list for each Strategy,
 *                       and custom pipelines compose the same passes
 *                       in new orders (see docs/ARCHITECTURE.md).
 *  - compileStrategy    the one strategy-driven compile (forStrategy
 *                       plus the optimizer's latency guard) that every
 *                       front door calls.
 *
 * Option resolution (the single documented place where user-supplied
 * CompilerOptions are reconciled with the device) lives here as
 * resolveCompilerOptions(); the legacy Compiler facade and the batch
 * front door both go through it.
 */
#ifndef QAIC_COMPILER_PIPELINE_H
#define QAIC_COMPILER_PIPELINE_H

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "compiler/compiler.h"
#include "util/status.h"
#include "verify/lint.h"

namespace qaic {

/**
 * Reconciles user-supplied options with the target device. This is the
 * only place such rewriting happens; precedence, highest first:
 *
 *  1. The device's control limits override any user-set model.mu1/mu2 —
 *     pricing instructions with limits the hardware does not have would
 *     make every latency meaningless.
 *  2. options.maxInstructionWidth overrides options.aggregation.maxWidth
 *     so the aggregation pass can never emit an instruction the optimal
 *     control unit refuses to price.
 *
 * Everything else (seed, GRAPE knobs, remaining aggregation knobs) is
 * taken verbatim. The input is not mutated.
 */
CompilerOptions resolveCompilerOptions(const DeviceModel &device,
                                       const CompilerOptions &options);

/**
 * Builds the caching latency oracle described by @p resolved (analytic
 * by default, true-GRAPE search when useGrapeOracle is set). The options
 * must already be resolved against the device.
 */
std::shared_ptr<CachingOracle>
makeCachingOracle(const CompilerOptions &resolved);

/** Wall-clock record of one executed pass. */
struct PassMetrics
{
    /** Pass::name() of the pass that ran. */
    std::string pass;
    /** Wall-clock duration of Pass::run (milliseconds). */
    double wallMs = 0.0;
    /** Instruction count of the working/physical circuit after the pass. */
    int instructionsAfter = 0;
};

/**
 * Everything a single compilation owns while flowing through a
 * Pipeline. Passes read and write the artifact fields directly; the
 * services (device, options, oracle, checker) are fixed for the run.
 *
 * The oracle may be shared across many contexts (that is the batch
 * amortization story — CachingOracle is internally synchronized); the
 * commutation checker must not be, so each context carries its own
 * unless an external one is supplied by a single-threaded caller.
 */
class CompilationContext
{
  public:
    /**
     * @param device Target device (must outlive the context).
     * @param options User options; resolved internally via
     *        resolveCompilerOptions.
     * @param oracle Shared latency oracle; created from the resolved
     *        options when null.
     * @param checker External commutation checker to reuse (single
     *        threaded callers only); the context owns one when null.
     */
    CompilationContext(const DeviceModel &device, CompilerOptions options,
                       std::shared_ptr<CachingOracle> oracle = nullptr,
                       CommutationChecker *checker = nullptr);

    const DeviceModel &device() const { return device_; }
    const CompilerOptions &options() const { return options_; }
    CachingOracle &oracle() { return *oracle_; }
    std::shared_ptr<CachingOracle> oracleHandle() const { return oracle_; }
    CommutationChecker &checker() { return *checker_; }

    /** Resets the artifacts for a new input; services are retained. */
    void reset(const Circuit &logical, Strategy strategy);

    /**
     * Assembles the CompilationResult, moving the artifacts out
     * (Pipeline::compile uses this). The artifacts are left
     * valid-but-unspecified; reset() restores them.
     */
    CompilationResult takeResult();

    // --- Artifacts (owned by the run, mutated by passes) -------------

    /** Strategy label recorded in the result. */
    Strategy strategy = Strategy::kIsa;
    /**
     * The circuit as it flows through frontend and mapping passes; after
     * mapping it is the routed circuit on physical qubit ids.
     */
    Circuit working{1};
    /** Mapping pass output. */
    RoutingResult routing;
    /** Backend output: the final physical instruction stream. */
    Circuit physical{1};
    /** Scheduling pass output. */
    Schedule schedule;
    /**
     * Stage markers guarding pipeline composition: backend passes
     * require mapped, schedule passes require backendDone (a
     * mis-composed custom pipeline panics instead of silently
     * returning a degenerate result). A custom pass feeding a
     * pre-routed or pre-lowered circuit may set these itself.
     */
    bool mapped = false;
    bool backendDone = false;
    /** Diagonal blocks contracted by commutativity detection. */
    int diagonalBlocks = 0;
    /** One entry per executed pass, in execution order. */
    std::vector<PassMetrics> passMetrics;
    /** Dataflow-analysis reports appended by AnalysisPass instances. */
    std::vector<AnalysisReport> analyses;
    /** Accumulated by the Opt*Pass instances (opt/opt.h). */
    OptStats optStats;

  private:
    const DeviceModel &device_;
    CompilerOptions options_;
    std::shared_ptr<CachingOracle> oracle_;
    std::unique_ptr<CommutationChecker> ownedChecker_;
    CommutationChecker *checker_ = nullptr;
};

/**
 * One compilation stage. Implementations must be reusable across runs.
 *
 * Besides name() and run(), every pass declares a contract over the
 * CircuitInvariant catalogue (verify/lint.h). Pipeline::compile checks
 * it when CompilerOptions::checkInvariants is set: before the pass, the
 * required set must be covered by the invariants known to hold; after
 * it, the known set becomes (known & preserved) | established and every
 * bit in it is re-verified against the context. (`requiredInvariants`
 * rather than the more natural `requires` because `requires` is a C++20
 * keyword.)
 */
class Pass
{
  public:
    virtual ~Pass() = default;

    /** Stable identifier (used in metrics and pipeline introspection). */
    virtual std::string name() const = 0;

    /**
     * Transforms the context in place. A non-OK return is a recoverable
     * per-compilation failure (bad user input the pass is the first to
     * notice, an expired deadline): Pipeline::compile stops and
     * propagates it. Library bugs still panic inside the pass.
     */
    virtual Status run(CompilationContext &context) = 0;

    /** Invariants that must hold on entry (default: none). */
    virtual InvariantSet requiredInvariants() const { return kNoInvariants; }

    /** Invariants guaranteed to hold on exit regardless of entry state
     *  (default: none). */
    virtual InvariantSet establishedInvariants() const
    {
        return kNoInvariants;
    }

    /** Invariants that survive the pass if they held on entry (default:
     *  all — override when a pass invalidates earlier guarantees). */
    virtual InvariantSet preservedInvariants() const
    {
        return kAllInvariants;
    }
};

/**
 * An ordered, immutable-after-build list of passes.
 *
 * Build one with forStrategy() — which also stamps the Strategy the
 * results are labeled with — or compose your own:
 *
 *   Pipeline p;
 *   p.add(std::make_unique<FrontendLoweringPass>())
 *    .add(std::make_unique<MappingPass>())
 *    .add(std::make_unique<AggregationBackendPass>())
 *    .add(std::make_unique<AsapSchedulePass>())
 *    .label(Strategy::kAggregation);
 *   CompilationContext ctx(device, options);
 *   CompilationResult r = p.compile(circuit, ctx);
 */
class Pipeline
{
  public:
    Pipeline() = default;
    Pipeline(Pipeline &&) = default;
    Pipeline &operator=(Pipeline &&) = default;

    /** Appends @p pass; returns *this for chaining. */
    Pipeline &add(std::unique_ptr<Pass> pass);

    /** Constructs a pass of type @p PassT in place. */
    template <typename PassT, typename... Args>
    Pipeline &
    emplace(Args &&...args)
    {
        return add(std::make_unique<PassT>(std::forward<Args>(args)...));
    }

    /**
     * Sets the Strategy label stamped on this pipeline's results.
     * forStrategy pipelines come pre-labeled; custom pipelines default
     * to kIsa and may pick the nearest value here.
     */
    Pipeline &label(Strategy strategy);

    /**
     * Runs every pass over @p logical in order, timing each, and
     * assembles the result (labeled with this pipeline's Strategy).
     * The context's artifacts are reset first; its services (oracle,
     * checker) persist across calls, so repeated compiles share
     * latency caches exactly like the legacy Compiler.
     *
     * Error handling (docs/ARCHITECTURE.md, "Error handling"):
     *
     *  - The *input* circuit is structurally linted on every compile
     *    (cheap, always on); a violation is user input's fault and
     *    returns kInvalidArgument.
     *  - A pass returning non-OK (unroutable placement, oversized
     *    circuit, expired deadline) stops the run and propagates the
     *    Status with the pass named in the context.
     *  - When CompilerOptions::checkInvariants is set, pass contracts
     *    are additionally verified: each pass's required set must be
     *    covered by the invariants known to hold, and after every pass
     *    the known set — (known & preserved) | established — is
     *    re-verified against the context. A violation here means a
     *    *pass* broke its contract — a library bug — and panics with a
     *    report naming the pass, gate index and invariant.
     *  - CompilerOptions::deadlineMs (when non-zero) installs a compile
     *    deadline visible to the latency oracle; expiry between passes
     *    returns kDeadlineExceeded, while expiry inside a GRAPE search
     *    degrades that instruction to the analytic model and the
     *    compile finishes with CompilationResult::degraded set.
     */
    StatusOr<CompilationResult> compile(const Circuit &logical,
                                        CompilationContext &context) const;

    /**
     * The canonical pass list implementing @p strategy (Figure 5),
     * labeled with it. When @p analyze is set, the dataflow analyzer
     * (analysis/pass.h) runs after frontend lowering and after
     * mapping, recording machine-verified reports in
     * CompilationContext::analyses. When @p optimize is set, the
     * optimizing pass suite (opt/opt.h) runs on the logical circuit
     * between frontend lowering and the CLS frontend / mapping:
     * analyzer-seeded peephole, phase-polynomial resynthesis, Weyl
     * resynthesis, and a closing peephole sweep.
     */
    static Pipeline forStrategy(Strategy strategy, bool analyze = false,
                                bool optimize = false);

    /** Pass names in execution order. */
    std::vector<std::string> passNames() const;

    std::size_t size() const { return passes_.size(); }

  private:
    std::vector<std::unique_ptr<Pass>> passes_;
    Strategy label_ = Strategy::kIsa;
};

/**
 * Compiles @p logical with @p optimized and makes the optimizer's
 * never-worse promise hold for the *routed schedule*, not just the
 * optimizer's gate-weight proxy: when the pass suite actually rewrote
 * the circuit, the @p plain pipeline (same strategy, optimize off) is
 * run too and whichever result has the lower makespan is kept. A
 * fallback to the plain result zeroes OptStats and sets
 * OptStats::latencyFallbacks so callers can count how often the
 * routing heuristics disagreed with the weight model. When the
 * optimizer left the circuit alone — or the optimized compile failed —
 * the plain pipeline is never run, so unchanged circuits pay nothing.
 * The plain compile runs in a fresh context with a *cold* oracle
 * (sharing only the commutation checker, whose cache is exact): GRAPE
 * pricing is history-sensitive, so the baseline must reproduce what a
 * plain compile from scratch actually produces, not what the
 * optimized compile's warmed cache would price it at.
 */
StatusOr<CompilationResult>
compileWithLatencyGuard(const Pipeline &optimized, const Pipeline &plain,
                        const Circuit &logical,
                        CompilationContext &context);

/**
 * Compiles @p logical under @p strategy — the one place that turns a
 * strategy into a compile. Builds Pipeline::forStrategy with the
 * context's analyze/optimize options and runs it; when optimize is set
 * the run goes through compileWithLatencyGuard against the plain
 * (optimize-off) twin. The Compiler facade, compileBatch and the
 * compilation service all compile through here.
 */
StatusOr<CompilationResult> compileStrategy(const Circuit &logical,
                                            Strategy strategy,
                                            CompilationContext &context);

// --- Canonical passes (Figure 5 boxes) -------------------------------

/** Frontend lowering: flatten to 1- and 2-qubit gates (Toffoli, etc.). */
class FrontendLoweringPass : public Pass
{
  public:
    std::string name() const override { return "frontend-lowering"; }
    Status run(CompilationContext &context) override;

    InvariantSet
    requiredInvariants() const override
    {
        return kStructuralInvariants;
    }

    InvariantSet
    establishedInvariants() const override
    {
        return invariantBit(CircuitInvariant::kFullyLowered);
    }
};

/**
 * Commutativity detection (Section 3.3.1) followed by CLS logical
 * scheduling (3.3.2) with a gate-based logical cost model; the working
 * circuit is rewritten into the scheduled order, which the
 * order-respecting backend schedulers preserve.
 */
class ClsFrontendPass : public Pass
{
  public:
    /** @param maxBlockWidth Widest diagonal block to contract. */
    explicit ClsFrontendPass(int maxBlockWidth = 10)
        : maxBlockWidth_(maxBlockWidth)
    {
    }

    std::string name() const override { return "cls-frontend"; }
    Status run(CompilationContext &context) override;

    InvariantSet
    requiredInvariants() const override
    {
        // Commutation groups are built over lowered gates; diagonal-
        // block contraction emits aggregates, so structural soundness
        // must already hold.
        return kStructuralInvariants |
               invariantBit(CircuitInvariant::kFullyLowered) |
               invariantBit(CircuitInvariant::kGdgAcyclic);
    }

  private:
    int maxBlockWidth_;
};

/**
 * Mapping + topological constraint resolution (Section 3.4.1): routes a
 * few candidate placements (two bisection seeds plus the row-major
 * identity, near-optimal for chain-structured interaction graphs) and
 * keeps the one needing fewest SWAPs. Leaves the routed circuit in
 * context.working and the full RoutingResult in context.routing.
 */
class MappingPass : public Pass
{
  public:
    std::string name() const override { return "mapping"; }
    Status run(CompilationContext &context) override;

    InvariantSet
    requiredInvariants() const override
    {
        return kStructuralInvariants |
               invariantBit(CircuitInvariant::kFullyLowered);
    }

    InvariantSet
    establishedInvariants() const override
    {
        return invariantBit(CircuitInvariant::kMappingConsistent) |
               invariantBit(CircuitInvariant::kCouplingLegal);
    }
};

/**
 * Gate-based backend (Figure 5 left column): lowers the routed circuit
 * to physical gates, optionally applying the known manual iSWAP tricks
 * (direct SWAP/ZZ pulses, 1q fusion) first.
 */
class GateBackendPass : public Pass
{
  public:
    explicit GateBackendPass(bool hand_optimize = false)
        : handOptimize_(hand_optimize)
    {
    }

    std::string
    name() const override
    {
        return handOptimize_ ? "gate-backend-handopt" : "gate-backend";
    }
    Status run(CompilationContext &context) override;

    InvariantSet
    requiredInvariants() const override
    {
        return kStructuralInvariants |
               invariantBit(CircuitInvariant::kFullyLowered) |
               invariantBit(CircuitInvariant::kCouplingLegal);
    }

  private:
    bool handOptimize_;
};

/**
 * Aggregating backend (Figure 5 right column): merges the routed
 * circuit into aggregated instructions priced by the optimal control
 * unit (Section 3.4.2).
 */
class AggregationBackendPass : public Pass
{
  public:
    std::string name() const override { return "aggregation-backend"; }
    Status run(CompilationContext &context) override;

    InvariantSet
    requiredInvariants() const override
    {
        // Aggregation merges along commutation groups, so it also
        // depends on a coherent gate dependence graph.
        return kStructuralInvariants |
               invariantBit(CircuitInvariant::kFullyLowered) |
               invariantBit(CircuitInvariant::kCouplingLegal) |
               invariantBit(CircuitInvariant::kGdgAcyclic);
    }
};

/** Program-order ASAP scheduling of the physical instruction stream. */
class AsapSchedulePass : public Pass
{
  public:
    std::string name() const override { return "schedule-asap"; }
    Status run(CompilationContext &context) override;

    InvariantSet
    requiredInvariants() const override
    {
        return kStructuralInvariants |
               invariantBit(CircuitInvariant::kCouplingLegal);
    }

    InvariantSet
    establishedInvariants() const override
    {
        return invariantBit(CircuitInvariant::kScheduleConsistent);
    }
};

/** Commutativity-aware list scheduling of the physical stream (Alg. 1). */
class ClsSchedulePass : public Pass
{
  public:
    std::string name() const override { return "schedule-cls"; }
    Status run(CompilationContext &context) override;

    InvariantSet
    requiredInvariants() const override
    {
        return kStructuralInvariants |
               invariantBit(CircuitInvariant::kCouplingLegal);
    }

    InvariantSet
    establishedInvariants() const override
    {
        return invariantBit(CircuitInvariant::kScheduleConsistent);
    }
};

} // namespace qaic

#endif // QAIC_COMPILER_PIPELINE_H
