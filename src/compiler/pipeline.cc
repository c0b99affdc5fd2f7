#include "compiler/pipeline.h"

#include <algorithm>
#include <chrono>

#include "analysis/pass.h"
#include "compiler/decompose.h"
#include "compiler/handopt.h"
#include "opt/opt.h"
#include "util/deadline.h"
#include "util/logging.h"

namespace qaic {

CompilerOptions
resolveCompilerOptions(const DeviceModel &device,
                       const CompilerOptions &options)
{
    CompilerOptions resolved = options;
    // Keep the latency model consistent with the device's control limits
    // and the aggregation pass consistent with the width cap.
    resolved.model.mu1 = device.mu1();
    resolved.model.mu2 = device.mu2();
    resolved.aggregation.maxWidth = resolved.maxInstructionWidth;
    // Routing knobs must be non-negative; clamping here keeps the
    // routers free of per-call sanitization.
    resolved.routing.lookaheadWindow =
        std::max(0, resolved.routing.lookaheadWindow);
    resolved.routing.extendedWeight =
        std::max(0.0, resolved.routing.extendedWeight);
    resolved.routing.decayDelta =
        std::max(0.0, resolved.routing.decayDelta);
    return resolved;
}

std::shared_ptr<CachingOracle>
makeCachingOracle(const CompilerOptions &resolved)
{
    // A persistent pulse library is shared by the caching front (durable
    // latency hits) and the GRAPE oracle (waveform warm starts); it
    // flushes new entries back to disk when the oracle is destroyed.
    std::shared_ptr<PulseLibrary> library;
    if (!resolved.pulseLibraryPath.empty()) {
        library =
            std::make_shared<PulseLibrary>(resolved.pulseLibraryPath);
        // A missing file is fine (the first run seeds it); a corrupt
        // one has already been quarantined by load(), so warn and
        // continue cold — persistence failures never fail compiles.
        Status loaded = library->load();
        if (!loaded.isOk() && loaded.code() != StatusCode::kNotFound)
            QAIC_WARN() << loaded.toString()
                        << "; continuing with an empty pulse library";
    }
    std::shared_ptr<LatencyOracle> inner;
    if (resolved.useGrapeOracle)
        inner = std::make_shared<GrapeLatencyOracle>(resolved.grapeOptions,
                                                     resolved.model,
                                                     library);
    else
        inner = std::make_shared<AnalyticOracle>(resolved.model);
    // In GRAPE mode the inner oracle owns all library I/O: it consults
    // with its own keys (a duplicate read here would be wasted work)
    // and stores successful syntheses only (letting the cache also
    // store would durably freeze its analytic fallbacks as if they
    // were GRAPE results).
    return std::make_shared<CachingOracle>(
        std::move(inner), std::move(library),
        /*library_io=*/!resolved.useGrapeOracle);
}

CompilationContext::CompilationContext(const DeviceModel &device,
                                       CompilerOptions options,
                                       std::shared_ptr<CachingOracle> oracle,
                                       CommutationChecker *checker)
    : device_(device), options_(resolveCompilerOptions(device, options)),
      oracle_(std::move(oracle))
{
    if (!oracle_)
        oracle_ = makeCachingOracle(options_);
    if (checker) {
        checker_ = checker;
    } else {
        ownedChecker_ = std::make_unique<CommutationChecker>();
        checker_ = ownedChecker_.get();
    }
}

void
CompilationContext::reset(const Circuit &input, Strategy s)
{
    strategy = s;
    working = input;
    routing = RoutingResult();
    physical = Circuit(1);
    schedule = Schedule();
    diagonalBlocks = 0;
    mapped = false;
    backendDone = false;
    passMetrics.clear();
    analyses.clear();
    optStats = OptStats();
}

CompilationResult
CompilationContext::takeResult()
{
    // Instructions but no schedule means the pipeline had no schedule
    // pass — latencyNs would silently read 0.
    QAIC_CHECK(physical.size() == 0 || !schedule.ops.empty())
        << "pipeline produced instructions but no schedule; add a "
           "schedule pass";
    CompilationResult result;
    result.strategy = strategy;
    result.latencyNs = schedule.makespan();
    result.swapCount = routing.swapCount;
    result.instructionCount = static_cast<int>(physical.size());
    result.diagonalBlocks = diagonalBlocks;
    for (const Gate &g : physical.gates()) {
        result.maxWidth = std::max(result.maxWidth, g.width());
        if (g.kind == GateKind::kAggregate)
            ++result.aggregateCount;
    }
    result.physicalCircuit = std::move(physical);
    result.schedule = std::move(schedule);
    result.routing = std::move(routing);
    result.passMetrics = std::move(passMetrics);
    result.analyses = std::move(analyses);
    result.optStats = optStats;
    return result;
}

Pipeline &
Pipeline::add(std::unique_ptr<Pass> pass)
{
    QAIC_CHECK(pass != nullptr);
    passes_.push_back(std::move(pass));
    return *this;
}

Pipeline &
Pipeline::label(Strategy strategy)
{
    label_ = strategy;
    return *this;
}

namespace {

/**
 * Re-checks every invariant in @p known against the context's current
 * artifacts. The structural/lowering bits run over the circuit the
 * pipeline is currently shaping (working before a backend, physical
 * after); mapping/coupling/schedule bits dispatch to their dedicated
 * checkers.
 */
LintReport
verifyContextInvariants(const CompilationContext &context,
                        InvariantSet known)
{
    LintReport report;
    const Circuit &current =
        context.backendDone ? context.physical : context.working;
    lintGates(current, known, &report);
    if (known & invariantBit(CircuitInvariant::kGdgAcyclic)) {
        // A fresh checker: the context's one is not ours to mutate
        // (external checkers are single-threaded-caller property).
        CommutationChecker checker;
        lintGdg(current, &checker, &report);
    }
    if (known & invariantBit(CircuitInvariant::kMappingConsistent))
        lintMapping(context.routing, context.device(), &report);
    if (known & invariantBit(CircuitInvariant::kCouplingLegal))
        lintCoupling(current, context.device(), &report);
    if (known & invariantBit(CircuitInvariant::kScheduleConsistent))
        lintSchedule(context.schedule, context.physical, context.device(),
                     &report);
    return report;
}

} // namespace

StatusOr<CompilationResult>
Pipeline::compile(const Circuit &logical,
                  CompilationContext &context) const
{
    context.reset(logical, label_);
    const bool check = context.options().checkInvariants;

    // The input circuit is user data, so its structural soundness is
    // linted on every compile, even with checkInvariants off: the scan
    // is linear and it is the only gate between arbitrary caller input
    // and passes that index arrays by qubit id. The (more expensive)
    // GDG acyclicity probe stays behind checkInvariants.
    {
        InvariantSet input_bits = kStructuralInvariants;
        if (check)
            input_bits |= invariantBit(CircuitInvariant::kGdgAcyclic);
        LintReport report = verifyContextInvariants(context, input_bits);
        if (!report.ok())
            return invalidArgumentError(
                "invariant violation in the input circuit:\n" +
                report.toString());
    }
    InvariantSet known = kNoInvariants;
    if (check)
        known = kStructuralInvariants |
                invariantBit(CircuitInvariant::kGdgAcyclic);

    // Install the compile deadline for this thread; the GRAPE oracle
    // picks it up via currentCompileDeadline(). Once the oracle has
    // degraded an instruction under this deadline, the compile is past
    // the expensive part and finishing it (flagged degraded) beats
    // throwing the work away, so the between-pass expiry check only
    // fires while the degraded count is still at its starting value.
    const Deadline deadline =
        context.options().deadlineMs > 0.0
            ? Deadline::afterMs(context.options().deadlineMs)
            : Deadline::never();
    ScopedCompileDeadline scoped_deadline(deadline);
    const std::uint64_t degraded_before = context.oracle().degradedCount();

    for (const std::unique_ptr<Pass> &pass : passes_) {
        if (check) {
            // A contract violation is a mis-built pipeline — a library
            // (or custom-pass) bug, not a property of the input — so it
            // panics rather than returning a Status.
            const InvariantSet missing =
                pass->requiredInvariants() & ~known;
            if (missing != kNoInvariants)
                QAIC_PANIC()
                    << "pipeline contract violation: pass '"
                    << pass->name() << "' requires "
                    << invariantSetNames(missing)
                    << " which no earlier pass established";
        }
        auto t0 = std::chrono::steady_clock::now();
        Status pass_status = pass->run(context);
        if (!pass_status.isOk())
            return pass_status.withContext("pass '" + pass->name() + "'");
        auto t1 = std::chrono::steady_clock::now();
        if (check) {
            known = (known & pass->preservedInvariants()) |
                    pass->establishedInvariants();
            LintReport report = verifyContextInvariants(context, known);
            if (!report.ok())
                QAIC_PANIC() << "invariant violation after pass '"
                             << pass->name() << "':\n"
                             << report.toString();
        }
        PassMetrics m;
        m.pass = pass->name();
        m.wallMs =
            std::chrono::duration<double, std::milli>(t1 - t0).count();
        m.instructionsAfter = static_cast<int>(
            context.backendDone ? context.physical.size()
                                : context.working.size());
        context.passMetrics.push_back(std::move(m));
        if (deadline.expired() &&
            context.oracle().degradedCount() == degraded_before) {
            return deadlineExceededError(
                "compile deadline expired after pass '" + pass->name() +
                "'");
        }
    }
    CompilationResult result = context.takeResult();
    const std::uint64_t degraded_after = context.oracle().degradedCount();
    if (degraded_after > degraded_before) {
        result.degraded = true;
        result.degradedReason =
            "GRAPE synthesis fell back to analytic latencies for " +
            std::to_string(degraded_after - degraded_before) +
            " instruction(s)";
    }
    return result;
}

Pipeline
Pipeline::forStrategy(Strategy strategy, bool analyze, bool optimize)
{
    Pipeline p;
    p.label(strategy);
    p.emplace<FrontendLoweringPass>();
    if (analyze)
        p.emplace<AnalysisPass>("logical");
    if (optimize) {
        // Analyzer-seeded peephole first (its fixes open up regions and
        // runs), the resynthesis passes, then a closing sweep to mop up
        // the inverse pairs and mergeable rotations they exposed.
        p.emplace<OptPeepholePass>(/*seed_with_analyzer=*/true);
        p.emplace<OptPhasePolyPass>();
        p.emplace<OptWeylPass>();
        p.emplace<OptPeepholePass>(/*seed_with_analyzer=*/false);
    }
    const bool with_cls = strategy == Strategy::kCls ||
                          strategy == Strategy::kClsHandOpt ||
                          strategy == Strategy::kClsAggregation;
    if (with_cls)
        p.emplace<ClsFrontendPass>();
    p.emplace<MappingPass>();
    if (analyze)
        p.emplace<AnalysisPass>("routed");
    switch (strategy) {
      case Strategy::kIsa:
      case Strategy::kCls:
        p.emplace<GateBackendPass>(/*hand_optimize=*/false);
        p.emplace<AsapSchedulePass>();
        break;
      case Strategy::kHandOpt:
      case Strategy::kClsHandOpt:
        p.emplace<GateBackendPass>(/*hand_optimize=*/true);
        p.emplace<AsapSchedulePass>();
        break;
      case Strategy::kAggregation:
        p.emplace<AggregationBackendPass>();
        p.emplace<AsapSchedulePass>();
        break;
      case Strategy::kClsAggregation:
        p.emplace<AggregationBackendPass>();
        p.emplace<ClsSchedulePass>();
        break;
    }
    return p;
}

std::vector<std::string>
Pipeline::passNames() const
{
    std::vector<std::string> names;
    names.reserve(passes_.size());
    for (const std::unique_ptr<Pass> &pass : passes_)
        names.push_back(pass->name());
    return names;
}

StatusOr<CompilationResult>
compileWithLatencyGuard(const Pipeline &optimized, const Pipeline &plain,
                        const Circuit &logical,
                        CompilationContext &context)
{
    StatusOr<CompilationResult> opt = optimized.compile(logical, context);
    if (!opt.isOk() || !opt.value().optStats.changed())
        return opt;
    // The optimizer rewrote the circuit; make sure the rewrite also won
    // end to end. Routing heuristics are not monotone in gate weight,
    // so a lighter circuit can occasionally schedule worse — keep the
    // plain result then. The baseline compiles in a *fresh* context
    // with a cold oracle: GRAPE pricing is history-sensitive (nearest-
    // fingerprint warm starts, rounded-parameter cache keys), so
    // sharing the optimized compile's oracle would price the baseline
    // against pulses synthesized for the *rewritten* circuit and the
    // comparison would drift from what a plain compile actually
    // produces. The commutation checker is shared — its cache is
    // exact, so reuse changes speed, never answers. A plain-compile
    // *failure* is not a reason to discard the (valid, verified)
    // optimized result.
    CompilationContext plain_context(context.device(), context.options(),
                                     nullptr, &context.checker());
    StatusOr<CompilationResult> base =
        plain.compile(logical, plain_context);
    if (!base.isOk() ||
        base.value().latencyNs >= opt.value().latencyNs)
        return opt;
    CompilationResult kept = std::move(base).value();
    kept.optStats = OptStats{};
    kept.optStats.latencyFallbacks = 1;
    return kept;
}

StatusOr<CompilationResult>
compileStrategy(const Circuit &logical, Strategy strategy,
                CompilationContext &context)
{
    const CompilerOptions &options = context.options();
    Pipeline pipeline =
        Pipeline::forStrategy(strategy, options.analyze, options.optimize);
    if (!options.optimize)
        return pipeline.compile(logical, context);
    return compileWithLatencyGuard(
        pipeline, Pipeline::forStrategy(strategy, options.analyze),
        logical, context);
}

// --- Passes ----------------------------------------------------------

namespace {

/** Adapter pricing logical gates by their gate-based lowering cost. */
class IsaCostOracle : public LatencyOracle
{
  public:
    IsaCostOracle(int num_qubits, LatencyOracle *physical)
        : numQubits_(num_qubits), physical_(physical)
    {
    }

    double
    latencyNs(const Gate &gate) override
    {
        Circuit single(numQubits_);
        single.add(gate);
        Circuit phys = decomposeToPhysical(single);
        return scheduleAsap(phys, *physical_).makespan();
    }

    std::string name() const override { return "isa-cost"; }

  private:
    int numQubits_;
    LatencyOracle *physical_;
};

} // namespace

Status
FrontendLoweringPass::run(CompilationContext &context)
{
    context.working = decomposeCcx(context.working);
    return Status();
}

Status
ClsFrontendPass::run(CompilationContext &context)
{
    context.working = detectDiagonalBlocks(
        context.working, maxBlockWidth_, &context.diagonalBlocks);
    IsaCostOracle logical_cost(context.working.numQubits(),
                               &context.oracle());
    Schedule ls =
        scheduleCls(context.working, &context.checker(), logical_cost);
    context.working = ls.toCircuit(context.working.numQubits());
    return Status();
}

Status
MappingPass::run(CompilationContext &context)
{
    // A circuit wider than the device is the user's configuration
    // mistake (circuit vs. topology choice), so it fails this
    // compilation rather than the process.
    if (context.working.numQubits() > context.device().numQubits()) {
        return invalidArgumentError(
            "circuit uses " + std::to_string(context.working.numQubits()) +
            " qubits but the device has only " +
            std::to_string(context.device().numQubits()));
    }
    // Routing is cheap relative to everything else, so route a few
    // candidate placements (two bisection seeds plus the trivial
    // row-major identity, which is near-optimal for chain-structured
    // interaction graphs) and keep the one needing fewest SWAPs. A
    // placement whose operands land in disconnected components is
    // skipped; only when every candidate fails is the error surfaced.
    bool have = false;
    Status last_error;
    for (int variant = 0; variant < 3; ++variant) {
        std::vector<int> placement;
        if (variant < 2) {
            placement = initialPlacement(context.working, context.device(),
                                         context.options().seed + variant);
        } else {
            placement.resize(context.working.numQubits());
            for (std::size_t q = 0; q < placement.size(); ++q)
                placement[q] = static_cast<int>(q);
        }
        StatusOr<RoutingResult> routed =
            routeOnDevice(context.working, context.device(), placement,
                          context.options().routing);
        if (!routed.isOk()) {
            last_error = routed.status();
            continue;
        }
        if (!have || routed->swapCount < context.routing.swapCount) {
            context.routing = std::move(routed).value();
            have = true;
        }
    }
    if (!have)
        return last_error;
    context.working = context.routing.physical;
    context.mapped = true;
    return Status();
}

Status
GateBackendPass::run(CompilationContext &context)
{
    QAIC_CHECK(context.mapped)
        << "gate backend requires a mapped circuit; add MappingPass "
           "(or set context.mapped for pre-routed input)";
    if (handOptimize_) {
        Circuit ho = handOptimize(context.working);
        context.physical =
            decomposeToPhysical(ho, /*lower_aggregates=*/false);
    } else {
        context.physical = decomposeToPhysical(context.working);
    }
    context.backendDone = true;
    return Status();
}

Status
AggregationBackendPass::run(CompilationContext &context)
{
    QAIC_CHECK(context.mapped)
        << "aggregation backend requires a mapped circuit; add "
           "MappingPass (or set context.mapped for pre-routed input)";
    AggregationResult agg = aggregateInstructions(
        context.working, &context.checker(), context.oracle(),
        context.options().aggregation);
    context.physical = std::move(agg.circuit);
    context.backendDone = true;
    return Status();
}

Status
AsapSchedulePass::run(CompilationContext &context)
{
    QAIC_CHECK(context.backendDone)
        << "scheduling requires a backend pass first";
    context.schedule = scheduleAsap(context.physical, context.oracle());
    return Status();
}

Status
ClsSchedulePass::run(CompilationContext &context)
{
    QAIC_CHECK(context.backendDone)
        << "scheduling requires a backend pass first";
    context.schedule =
        scheduleCls(context.physical, &context.checker(), context.oracle());
    return Status();
}

} // namespace qaic
