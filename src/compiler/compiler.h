/**
 * @file
 * Strategy selectors, options, results, and the Compiler facade.
 *
 * Compilation itself is organized as an explicit pass pipeline (see
 * compiler/pipeline.h and docs/ARCHITECTURE.md): a Pipeline is an
 * ordered list of Pass objects transforming a CompilationContext, and
 * Pipeline::forStrategy(Strategy) yields the canonical pass list for
 * each of the paper's six configurations (Figure 5):
 *
 *  - kIsa            : program-order scheduling, per-physical-gate pulses
 *                      (the left column of Figure 5; the 1.0 baseline).
 *  - kCls            : commutativity detection + CLS logical scheduling,
 *                      then the standard gate-based backend.
 *  - kHandOpt        : gate-based backend with the known manual iSWAP
 *                      tricks (direct SWAP/ZZ pulses, 1q fusion).
 *  - kClsHandOpt     : CLS frontend + hand-optimized backend (the
 *                      "CLS + hand optimization" bar of Figure 9).
 *  - kAggregation    : backend instruction aggregation with optimal
 *                      control pulses, without CLS.
 *  - kClsAggregation : the paper's full proposal.
 *
 * The Compiler class below is a thin facade over that API, kept for
 * source compatibility and for the common case of compiling several
 * circuits against one device with a shared latency cache. Batch
 * compilation across a thread pool lives in compiler/batch.h.
 */
#ifndef QAIC_COMPILER_COMPILER_H
#define QAIC_COMPILER_COMPILER_H

#include <memory>
#include <string>
#include <vector>

#include "aggregate/aggregate.h"
#include "analysis/diagnostics.h"
#include "device/device.h"
#include "gdg/commute.h"
#include "ir/circuit.h"
#include "mapping/mapping.h"
#include "opt/options.h"
#include "oracle/oracle.h"
#include "schedule/schedule.h"
#include "util/status.h"

namespace qaic {

struct PassMetrics;

/** Compilation strategy selector. */
enum class Strategy
{
    kIsa,
    kCls,
    kHandOpt,
    kClsHandOpt,
    kAggregation,
    kClsAggregation,
};

/** All strategies, in presentation order. */
inline constexpr Strategy kAllStrategies[] = {
    Strategy::kIsa,         Strategy::kCls,
    Strategy::kHandOpt,     Strategy::kClsHandOpt,
    Strategy::kAggregation, Strategy::kClsAggregation,
};

/** Human-readable strategy name. */
std::string strategyName(Strategy strategy);

/**
 * Inverse of strategyName, also accepting the CLI short forms
 * (isa | cls | handopt | cls-handopt | agg | cls-agg).
 * @return true and sets @p strategy on success.
 */
bool strategyFromName(const std::string &name, Strategy *strategy);

/**
 * Default for CompilerOptions::checkInvariants: Debug builds verify
 * pass contracts on every compile, optimized builds opt in explicitly
 * (CLI `--check-invariants`) to keep hot-path compiles verifier-free.
 */
#ifdef NDEBUG
inline constexpr bool kCheckInvariantsDefault = false;
#else
inline constexpr bool kCheckInvariantsDefault = true;
#endif

/**
 * Compiler configuration, as supplied by the user. Before use it is
 * reconciled with the target device by resolveCompilerOptions()
 * (pipeline.h), which overrides model.mu1/mu2 from the device and
 * aggregation.maxWidth from maxInstructionWidth; accessors such as
 * Compiler::options() return the resolved form.
 */
struct CompilerOptions
{
    /** Maximum aggregated-instruction width (optimal-control limit). */
    int maxInstructionWidth = 10;
    /** Analytic latency-model constants. */
    AnalyticModelParams model;
    /**
     * Price instructions with real GRAPE searches (exact, slow) instead
     * of the analytic model. Widths beyond grapeOptions.maxWidth fall
     * back to the model either way.
     */
    bool useGrapeOracle = false;
    GrapeLatencyOracle::Options grapeOptions;
    /** Seed for the placement heuristic. */
    std::uint64_t seed = 1;
    /** Aggregation pass knobs (maxWidth is synced from above). */
    AggregationOptions aggregation;
    /**
     * SWAP-routing knobs: router selection (lookahead by default — with
     * its never-worse guard it can only reduce SWAP counts) and the
     * lookahead window/weights. Negative knobs are clamped to 0 by
     * resolveCompilerOptions.
     */
    RoutingOptions routing;
    /**
     * Backing file of the persistent pulse library (oracle/pulselib.h);
     * empty disables persistence. When set, makeCachingOracle loads the
     * file (if present) into the latency cache, GRAPE syntheses are
     * warm-started from stored waveforms, and new results are flushed
     * back on oracle destruction — so every qaicc/compileBatch run gets
     * faster with the traffic the library has already served.
     */
    std::string pulseLibraryPath;
    /**
     * Verify pass contracts while compiling: before each pass the
     * pipeline checks that every invariant the pass requires was
     * established by an earlier pass, and after it re-checks the
     * invariants now claimed to hold (verify/lint.h), failing with a
     * report naming the pass, gate index and violated invariant. On by
     * default in Debug builds; `qaicc --check-invariants` enables it
     * anywhere. Zero cost when off.
     */
    bool checkInvariants = kCheckInvariantsDefault;
    /**
     * Run the abstract-interpretation dataflow analyzer
     * (analysis/analyzer.h) during compilation: an AnalysisPass after
     * frontend lowering and another after mapping, each recording a
     * machine-verified AnalysisReport in CompilationResult::analyses.
     * Off by default — analysis is read-only but not free.
     */
    bool analyze = false;
    /**
     * Run the optimizing pass suite (src/opt) on the logical circuit
     * between frontend lowering and mapping: a commutation-aware
     * peephole (seeded with the analyzer's verified fixes), phase-
     * polynomial region resynthesis and Weyl two-qubit-run resynthesis,
     * each behind its own toggle in `optimizer`. Every rewrite is
     * machine-checked and guarded never-worse in two-qubit content;
     * what fired is reported in CompilationResult::optStats. Off by
     * default; `qaicc --opt` enables it.
     */
    bool optimize = false;
    /** Per-pass toggles and limits for the optimizer. */
    OptimizerOptions optimizer;
    /**
     * Wall-clock budget for one compile, in milliseconds; 0 (the
     * default) means no deadline. Checked between passes and at GRAPE
     * iteration granularity: expiry between passes fails the compile
     * with kDeadlineExceeded, while expiry inside a GRAPE search
     * degrades that instruction to the analytic latency model and the
     * compile finishes with CompilationResult::degraded set. Deadline-
     * degraded results are the documented exception to the bitwise
     * determinism guarantee (the cut-off point depends on wall-clock
     * speed).
     */
    double deadlineMs = 0.0;
};

/** Everything a compilation run produces. */
struct CompilationResult
{
    Strategy strategy = Strategy::kIsa;
    /** Final instruction stream on physical qubits. */
    Circuit physicalCircuit;
    /** Its schedule; makespan is the paper's "circuit latency". */
    Schedule schedule;
    /** Mapping stage output. */
    RoutingResult routing;
    /** Total pulse-time latency in ns (schedule makespan). */
    double latencyNs = 0.0;
    /** SWAPs inserted by routing. */
    int swapCount = 0;
    /** Final instruction count. */
    int instructionCount = 0;
    /** Aggregated instructions among them. */
    int aggregateCount = 0;
    /** Widest final instruction. */
    int maxWidth = 0;
    /** Diagonal blocks contracted by commutativity detection. */
    int diagonalBlocks = 0;
    /**
     * True when the compile finished on a degraded path instead of
     * failing outright — currently: the compile deadline (or a GRAPE
     * non-convergence) forced analytic fallback latencies for at least
     * one instruction. The result is structurally valid but its
     * latencies are not GRAPE-exact; degradedReason says why.
     */
    bool degraded = false;
    /** Human-readable degradation cause; empty when !degraded. */
    std::string degradedReason;
    /** Per-pass wall-clock metrics, in execution order. */
    std::vector<PassMetrics> passMetrics;
    /**
     * Dataflow-analysis reports, one per executed AnalysisPass (empty
     * unless CompilerOptions::analyze was set), in pipeline order.
     */
    std::vector<AnalysisReport> analyses;
    /**
     * What the optimizing pass suite did (all zero unless
     * CompilerOptions::optimize was set).
     */
    OptStats optStats;

    CompilationResult();
    CompilationResult(const CompilationResult &);
    CompilationResult(CompilationResult &&) noexcept;
    CompilationResult &operator=(const CompilationResult &);
    CompilationResult &operator=(CompilationResult &&) noexcept;
    ~CompilationResult();
};

/**
 * End-to-end compiler bound to a device — a forwarding shim over
 * compileStrategy (pipeline.h) that persists the latency oracle and
 * commutation checker across compiles so repeated instructions are
 * priced once.
 */
class Compiler
{
  public:
    /** Creates a compiler for @p device with @p options. */
    explicit Compiler(DeviceModel device, CompilerOptions options = {});

    /**
     * Compiles @p logical under @p strategy, reporting recoverable
     * failures (malformed input circuit, unroutable placement on a
     * disconnected topology, oversized circuit, expired deadline) as a
     * Status instead of terminating. Library bugs still panic.
     */
    StatusOr<CompilationResult> tryCompile(const Circuit &logical,
                                           Strategy strategy);

    /**
     * Compiles @p logical under @p strategy; exits the process with the
     * error message on recoverable failure. A convenience for tools and
     * benchmarks with no error path of their own — callers that can
     * recover should use tryCompile.
     */
    CompilationResult compile(const Circuit &logical, Strategy strategy);

    /** The (caching) oracle used for instruction latencies. */
    LatencyOracle &oracle() { return *oracle_; }

    /** The shared oracle handle (e.g. to pass to compileBatch). */
    std::shared_ptr<CachingOracle> oracleHandle() const { return oracle_; }

    /** The device this compiler targets. */
    const DeviceModel &device() const { return device_; }

    /** Options resolved against the device (see CompilerOptions docs). */
    const CompilerOptions &options() const { return options_; }

  private:
    DeviceModel device_;
    CompilerOptions options_;
    CommutationChecker checker_;
    std::shared_ptr<CachingOracle> oracle_;
};

} // namespace qaic

#endif // QAIC_COMPILER_COMPILER_H
