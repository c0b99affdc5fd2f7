/**
 * @file
 * Tests for the pass-pipeline API (compiler/pipeline.h) and the batch
 * front door (compiler/batch.h): canonical pass ordering per strategy,
 * per-pass metrics, exact equivalence between the Pipeline path and the
 * legacy Compiler facade, batch-vs-sequential determinism, concurrent
 * CachingOracle access, and option-resolution precedence.
 */
#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "compiler/batch.h"
#include "compiler/compiler.h"
#include "compiler/pipeline.h"
#include "control/grape.h"
#include "ir/gate.h"
#include "workloads/graphs.h"
#include "workloads/qaoa.h"
#include "workloads/suite.h"
#include "workloads/uccsd.h"

namespace qaic {
namespace {

TEST(StrategyNameTest, RoundTripsAllStrategies)
{
    for (Strategy s : kAllStrategies) {
        Strategy parsed;
        ASSERT_TRUE(strategyFromName(strategyName(s), &parsed))
            << strategyName(s);
        EXPECT_EQ(parsed, s);
    }
}

TEST(StrategyNameTest, AcceptsCliShortForms)
{
    const std::pair<const char *, Strategy> cases[] = {
        {"isa", Strategy::kIsa},
        {"cls", Strategy::kCls},
        {"handopt", Strategy::kHandOpt},
        {"cls-handopt", Strategy::kClsHandOpt},
        {"agg", Strategy::kAggregation},
        {"cls-agg", Strategy::kClsAggregation},
    };
    for (const auto &[name, expected] : cases) {
        Strategy parsed;
        ASSERT_TRUE(strategyFromName(name, &parsed)) << name;
        EXPECT_EQ(parsed, expected) << name;
    }
    Strategy unused;
    EXPECT_FALSE(strategyFromName("nope", &unused));
    EXPECT_FALSE(strategyFromName("", &unused));
}

TEST(OptionResolutionTest, DevicePrecedenceAndWidthSync)
{
    DeviceModel device = DeviceModel::line(3, /*mu1=*/0.2, /*mu2=*/0.05);
    CompilerOptions user;
    user.model.mu1 = 99.0; // Must lose to the device's limits.
    user.model.mu2 = 99.0;
    user.maxInstructionWidth = 4;
    user.aggregation.maxWidth = 123; // Must lose to maxInstructionWidth.
    user.seed = 7;

    CompilerOptions resolved = resolveCompilerOptions(device, user);
    EXPECT_DOUBLE_EQ(resolved.model.mu1, 0.2);
    EXPECT_DOUBLE_EQ(resolved.model.mu2, 0.05);
    EXPECT_EQ(resolved.aggregation.maxWidth, 4);
    EXPECT_EQ(resolved.seed, 7u);

    // The caller's options are never mutated (the old Compiler
    // constructor silently rewrote them).
    EXPECT_DOUBLE_EQ(user.model.mu1, 99.0);
    EXPECT_EQ(user.aggregation.maxWidth, 123);
}

TEST(OptionResolutionTest, FacadeExposesResolvedOptions)
{
    DeviceModel device = DeviceModel::line(3, 0.2, 0.05);
    Compiler compiler(device, {});
    EXPECT_DOUBLE_EQ(compiler.options().model.mu1, 0.2);
    EXPECT_DOUBLE_EQ(compiler.options().model.mu2, 0.05);
    EXPECT_EQ(compiler.options().aggregation.maxWidth,
              compiler.options().maxInstructionWidth);
}

TEST(PipelineTest, CanonicalPassOrderingPerStrategy)
{
    using Names = std::vector<std::string>;
    const std::pair<Strategy, Names> expected[] = {
        {Strategy::kIsa,
         {"frontend-lowering", "mapping", "gate-backend",
          "schedule-asap"}},
        {Strategy::kCls,
         {"frontend-lowering", "cls-frontend", "mapping", "gate-backend",
          "schedule-asap"}},
        {Strategy::kHandOpt,
         {"frontend-lowering", "mapping", "gate-backend-handopt",
          "schedule-asap"}},
        {Strategy::kClsHandOpt,
         {"frontend-lowering", "cls-frontend", "mapping",
          "gate-backend-handopt", "schedule-asap"}},
        {Strategy::kAggregation,
         {"frontend-lowering", "mapping", "aggregation-backend",
          "schedule-asap"}},
        {Strategy::kClsAggregation,
         {"frontend-lowering", "cls-frontend", "mapping",
          "aggregation-backend", "schedule-cls"}},
    };
    for (const auto &[strategy, names] : expected)
        EXPECT_EQ(Pipeline::forStrategy(strategy).passNames(), names)
            << strategyName(strategy);
}

TEST(PipelineTest, PerPassMetricsPopulated)
{
    Circuit circuit = qaoaMaxcut(lineGraph(6));
    DeviceModel device = DeviceModel::gridFor(6);
    Pipeline pipeline = Pipeline::forStrategy(Strategy::kClsAggregation);
    CompilationContext context(device, {});
    CompilationResult r = pipeline.compile(circuit, context).value();

    // forStrategy pre-labels the pipeline; no separate strategy
    // argument to get wrong.
    EXPECT_EQ(r.strategy, Strategy::kClsAggregation);
    ASSERT_EQ(r.passMetrics.size(), pipeline.size());
    EXPECT_EQ(r.passMetrics.size(), pipeline.passNames().size());
    for (std::size_t i = 0; i < r.passMetrics.size(); ++i) {
        EXPECT_EQ(r.passMetrics[i].pass, pipeline.passNames()[i]);
        EXPECT_GE(r.passMetrics[i].wallMs, 0.0);
        EXPECT_GT(r.passMetrics[i].instructionsAfter, 0);
    }
}

TEST(PipelineTest, ContextIsReusableAcrossCompiles)
{
    Circuit circuit = qaoaMaxcut(lineGraph(5));
    DeviceModel device = DeviceModel::gridFor(5);
    CompilationContext context(device, {});
    Pipeline pipeline = Pipeline::forStrategy(Strategy::kClsAggregation);
    CompilationResult first =
        pipeline.compile(circuit, context).value();
    CompilationResult second =
        pipeline.compile(circuit, context).value();
    EXPECT_EQ(first.latencyNs, second.latencyNs);
    EXPECT_EQ(first.instructionCount, second.instructionCount);
    EXPECT_EQ(first.passMetrics.size(), second.passMetrics.size());
    // The second run amortizes the first one's latency cache.
    EXPECT_GT(context.oracle().hits(), 0u);
}

TEST(PipelineTest, CustomPipelineCompilesValid)
{
    // A configuration no Strategy value names: aggregation without the
    // CLS frontend, CLS-scheduled at the physical level.
    Circuit circuit = qaoaMaxcut(lineGraph(5));
    DeviceModel device = DeviceModel::gridFor(5);
    Pipeline custom;
    custom.emplace<FrontendLoweringPass>();
    custom.emplace<MappingPass>();
    custom.emplace<AggregationBackendPass>();
    custom.emplace<ClsSchedulePass>();

    custom.label(Strategy::kAggregation);

    CompilationContext context(device, {});
    CompilationResult r = custom.compile(circuit, context).value();
    EXPECT_EQ(r.strategy, Strategy::kAggregation);
    EXPECT_GT(r.latencyNs, 0.0);
    std::string error;
    EXPECT_TRUE(r.schedule.validate(device.numQubits(), &error)) << error;
}

TEST(PipelineDeathTest, MiscomposedPipelinePanics)
{
    Circuit circuit = qaoaMaxcut(lineGraph(4));
    DeviceModel device = DeviceModel::gridFor(4);

    // The run-time stage guards inside the passes, not the contract
    // layer: disable invariant checking so the legacy panics fire in
    // Debug and Release alike (the contract layer would reject the
    // no_mapping pipeline first with its own message, tested below).
    CompilerOptions unchecked;
    unchecked.checkInvariants = false;

    // Schedule with no backend: must panic, not return latency 0.
    Pipeline no_backend;
    no_backend.emplace<FrontendLoweringPass>();
    no_backend.emplace<MappingPass>();
    no_backend.emplace<AsapSchedulePass>();
    CompilationContext c1(device, unchecked);
    EXPECT_DEATH(no_backend.compile(circuit, c1),
                 "scheduling requires a backend");

    // Backend with no mapping: must panic, not process an unrouted
    // circuit.
    Pipeline no_mapping;
    no_mapping.emplace<FrontendLoweringPass>();
    no_mapping.emplace<AggregationBackendPass>();
    CompilationContext c2(device, unchecked);
    EXPECT_DEATH(no_mapping.compile(circuit, c2),
                 "requires a mapped circuit");

    // Backend but no schedule pass: must panic, not report latency 0.
    Pipeline no_schedule;
    no_schedule.emplace<FrontendLoweringPass>();
    no_schedule.emplace<MappingPass>();
    no_schedule.emplace<AggregationBackendPass>();
    CompilationContext c3(device, unchecked);
    EXPECT_DEATH(no_schedule.compile(circuit, c3),
                 "no schedule");
}

TEST(PipelineDeathTest, ContractViolationNamesPassAndInvariant)
{
    Circuit circuit = qaoaMaxcut(lineGraph(4));
    DeviceModel device = DeviceModel::gridFor(4);
    CompilerOptions checked;
    checked.checkInvariants = true;

    // A backend without mapping: the contract layer rejects it before
    // the pass runs, naming the pass and the missing invariant.
    Pipeline no_mapping;
    no_mapping.emplace<FrontendLoweringPass>();
    no_mapping.emplace<AggregationBackendPass>();
    CompilationContext c1(device, checked);
    EXPECT_DEATH(no_mapping.compile(circuit, c1),
                 "pipeline contract violation: pass 'aggregation-backend' "
                 "requires.*coupling-legal");

    // Scheduling straight after lowering: coupling legality was never
    // established either.
    Pipeline no_backend;
    no_backend.emplace<FrontendLoweringPass>();
    no_backend.emplace<AsapSchedulePass>();
    CompilationContext c2(device, checked);
    EXPECT_DEATH(no_backend.compile(circuit, c2),
                 "pipeline contract violation: pass 'schedule-asap' "
                 "requires coupling-legal");
}

/** The acceptance-criteria equivalence: every strategy, Pipeline path
 *  vs legacy Compiler facade, identical result metrics. */
TEST(PipelineTest, MatchesLegacyFacadeOnAllStrategies)
{
    const Circuit circuits[] = {qaoaMaxcut(lineGraph(6)), uccsdAnsatz(4)};
    for (const Circuit &circuit : circuits) {
        DeviceModel device = DeviceModel::gridFor(circuit.numQubits());
        for (Strategy s : kAllStrategies) {
            Compiler legacy(device);
            CompilationResult a = legacy.compile(circuit, s);

            CompilationContext context(device, {});
            CompilationResult b =
                Pipeline::forStrategy(s).compile(circuit, context).value();

            EXPECT_EQ(b.strategy, s) << strategyName(s);
            EXPECT_EQ(a.latencyNs, b.latencyNs) << strategyName(s);
            EXPECT_EQ(a.swapCount, b.swapCount) << strategyName(s);
            EXPECT_EQ(a.instructionCount, b.instructionCount)
                << strategyName(s);
            EXPECT_EQ(a.aggregateCount, b.aggregateCount)
                << strategyName(s);
            EXPECT_EQ(a.maxWidth, b.maxWidth) << strategyName(s);
            EXPECT_EQ(a.diagonalBlocks, b.diagonalBlocks)
                << strategyName(s);
        }
    }
}

TEST(BatchTest, MatchesSequentialOnWorkloadSuite)
{
    // Down-scaled suite workloads across every strategy, compiled on 4
    // threads with a shared cache — results must be bitwise identical
    // to the sequential facade for the same (default) seed, both on the
    // plain path and on the optimizer's latency-guarded path.
    std::vector<BatchJob> jobs;
    for (const char *name : {"MAXCUT-line", "Ising-n30", "UCCSD-n4"}) {
        Circuit circuit = benchmarkByName(name, 0.3).circuit;
        DeviceModel device = DeviceModel::gridFor(circuit.numQubits());
        for (Strategy s : kAllStrategies)
            jobs.push_back({circuit, device, s});
    }

    for (bool optimize : {false, true}) {
        SCOPED_TRACE(optimize ? "optimize=true" : "optimize=false");
        CompilerOptions options;
        options.optimize = optimize;
        std::vector<CompilationResult> batch = unwrapBatch(
            compileBatch(std::span<const BatchJob>(jobs), options,
                         /*threads=*/4));
        ASSERT_EQ(batch.size(), jobs.size());

        // The guard only runs its plain twin when the optimizer rewrote
        // the circuit, so make sure the optimized batch exercises it.
        int guarded = 0;
        for (const CompilationResult &r : batch)
            guarded += r.optStats.changed() || r.optStats.latencyFallbacks;
        EXPECT_EQ(guarded > 0, optimize);

        for (std::size_t i = 0; i < jobs.size(); ++i) {
            Compiler sequential(jobs[i].device, options);
            CompilationResult expected =
                sequential.compile(jobs[i].circuit, jobs[i].strategy);
            EXPECT_EQ(batch[i].latencyNs, expected.latencyNs) << i;
            EXPECT_EQ(batch[i].swapCount, expected.swapCount) << i;
            EXPECT_EQ(batch[i].instructionCount, expected.instructionCount)
                << i;
            EXPECT_EQ(batch[i].aggregateCount, expected.aggregateCount)
                << i;
            EXPECT_EQ(batch[i].optStats.latencyFallbacks,
                      expected.optStats.latencyFallbacks)
                << i;
            std::string error;
            EXPECT_TRUE(batch[i].schedule.validate(
                jobs[i].device.numQubits(), &error))
                << i << ": " << error;
        }
    }
}

TEST(BatchTest, HomogeneousOverloadAndThreadCounts)
{
    DeviceModel device = DeviceModel::gridFor(6);
    std::vector<Circuit> circuits;
    for (int n = 0; n < 4; ++n)
        circuits.push_back(qaoaMaxcut(lineGraph(6)));

    std::vector<CompilationResult> one = unwrapBatch(
        compileBatch(device, circuits, Strategy::kClsAggregation, {},
                     /*threads=*/1));
    std::vector<CompilationResult> four = unwrapBatch(
        compileBatch(device, circuits, Strategy::kClsAggregation, {},
                     /*threads=*/4));
    ASSERT_EQ(one.size(), circuits.size());
    ASSERT_EQ(four.size(), circuits.size());
    for (std::size_t i = 0; i < circuits.size(); ++i) {
        EXPECT_EQ(one[i].latencyNs, four[i].latencyNs) << i;
        EXPECT_EQ(one[i].instructionCount, four[i].instructionCount) << i;
    }
}

TEST(BatchTest, SharesOracleAcrossJobs)
{
    DeviceModel device = DeviceModel::gridFor(6);
    std::vector<Circuit> circuits(4, qaoaMaxcut(lineGraph(6)));
    auto oracle =
        makeCachingOracle(resolveCompilerOptions(device, {}));
    compileBatch(device, circuits, Strategy::kClsAggregation, {},
                 /*threads=*/4, oracle);
    // Identical circuits: later jobs must hit the cache the earlier
    // ones (or the CLS logical cost model) filled.
    EXPECT_GT(oracle->hits(), 0u);
    EXPECT_GT(oracle->entries(), 0u);
}

TEST(BatchTest, EmptyBatchIsFine)
{
    DeviceModel device = DeviceModel::gridFor(4);
    std::vector<Circuit> none;
    EXPECT_TRUE(compileBatch(device, none, Strategy::kIsa).empty());
}

TEST(CachingOracleTest, ConcurrentAccessIsConsistent)
{
    // Thread-sanitizer-friendly: 8 threads hammer one shared cache with
    // the same gate set, no sleeps; every returned value must equal the
    // single-threaded reference and the counters must account for every
    // call.
    auto reference = std::make_shared<AnalyticOracle>();
    std::vector<Gate> gates = {makeH(0),          makeT(1),
                               makeRx(0, 0.7),    makeRz(1, 1.3),
                               makeCnot(0, 1),    makeCz(0, 1),
                               makeRzz(0, 1, 0.9), makeSwap(0, 1)};
    std::vector<double> expected;
    for (const Gate &g : gates)
        expected.push_back(reference->latencyNs(g));

    CachingOracle shared(std::make_shared<AnalyticOracle>());
    constexpr int kThreads = 8;
    constexpr int kRounds = 50;
    std::atomic<int> mismatches{0};
    std::vector<std::thread> pool;
    for (int t = 0; t < kThreads; ++t)
        pool.emplace_back([&] {
            for (int round = 0; round < kRounds; ++round)
                for (std::size_t i = 0; i < gates.size(); ++i)
                    if (shared.latencyNs(gates[i]) != expected[i])
                        mismatches.fetch_add(1);
        });
    for (std::thread &t : pool)
        t.join();

    EXPECT_EQ(mismatches.load(), 0);
    EXPECT_EQ(shared.hits() + shared.misses(),
              static_cast<std::size_t>(kThreads) * kRounds *
                  gates.size());
    // Every distinct key was computed at least once, and the cache
    // absorbed virtually everything else.
    EXPECT_GE(shared.misses(), shared.entries());
    EXPECT_GT(shared.hits(), shared.misses());

    // The stats() snapshot must agree with the individual accessors and
    // account for every in-flight pricing having drained.
    CachingOracle::Stats stats = shared.stats();
    EXPECT_EQ(stats.hits, shared.hits());
    EXPECT_EQ(stats.misses, shared.misses());
    EXPECT_EQ(stats.entries, shared.entries());
    EXPECT_EQ(stats.inflight, 0u);
    EXPECT_EQ(shared.inflight(), 0u);
    EXPECT_GE(stats.peakInflight, 1u);
    EXPECT_LE(stats.peakInflight, static_cast<std::size_t>(kThreads));
    EXPECT_NEAR(stats.hitRate(),
                static_cast<double>(stats.hits) /
                    static_cast<double>(stats.hits + stats.misses),
                1e-12);
}

TEST(CachingOracleTest, StatsSnapshotIsNeverTorn)
{
    // Regression: stats() used to be assembled from getters that each
    // took the lock separately, so a sampler racing the worker pool
    // could observe counters from different moments (e.g. more entries
    // than misses). Hammer the cache from a pool while a sampler takes
    // snapshots and check the cross-counter invariants on every one.
    CachingOracle shared(std::make_shared<AnalyticOracle>());
    std::vector<Gate> gates;
    for (int i = 0; i < 64; ++i)
        gates.push_back(makeRx(0, 0.01 + 0.07 * i));

    std::atomic<bool> done{false};
    std::atomic<int> violations{0};
    std::thread sampler([&] {
        while (!done.load()) {
            CachingOracle::Stats s = shared.stats();
            if (s.entries > s.misses)
                violations.fetch_add(1);
            if (s.inflight > s.peakInflight)
                violations.fetch_add(1);
            if (s.hits + s.misses < s.entries)
                violations.fetch_add(1);
            if (s.libraryHits > s.misses)
                violations.fetch_add(1);
        }
    });

    constexpr int kThreads = 8;
    constexpr int kRounds = 40;
    std::vector<std::thread> pool;
    for (int t = 0; t < kThreads; ++t)
        pool.emplace_back([&] {
            for (int round = 0; round < kRounds; ++round)
                for (const Gate &g : gates)
                    shared.latencyNs(g);
        });
    for (std::thread &t : pool)
        t.join();
    done.store(true);
    sampler.join();

    EXPECT_EQ(violations.load(), 0);
    CachingOracle::Stats s = shared.stats();
    EXPECT_EQ(s.hits + s.misses,
              static_cast<std::size_t>(kThreads) * kRounds * gates.size());
    EXPECT_EQ(s.entries, gates.size());
    EXPECT_EQ(s.inflight, 0u);
}

/** Pulses from two GRAPE results must agree exactly. */
void
expectIdenticalPulses(const GrapeResult &a, const GrapeResult &b)
{
    ASSERT_EQ(a.pulses.amplitudes.size(), b.pulses.amplitudes.size());
    for (std::size_t k = 0; k < a.pulses.amplitudes.size(); ++k) {
        ASSERT_EQ(a.pulses.amplitudes[k].size(),
                  b.pulses.amplitudes[k].size());
        for (std::size_t j = 0; j < a.pulses.amplitudes[k].size(); ++j)
            EXPECT_DOUBLE_EQ(a.pulses.amplitudes[k][j],
                             b.pulses.amplitudes[k][j])
                << "channel " << k << " step " << j;
    }
}

TEST(GrapeParallelTest, RestartFanOutMatchesSequentialUnderFixedSeed)
{
    // Non-converging budget: every restart runs to the iteration cap on
    // both paths, so the parallel fan-out must match the sequential
    // scan bit for bit (restart seeds are pre-drawn).
    DeviceModel pair = DeviceModel::line(2);
    GrapeOptimizer grape(pair);
    GrapeOptions options;
    options.maxIterations = 25;
    options.restarts = 3;
    options.seed = 1234;
    CMatrix target = makeCnot(0, 1).matrix();

    GrapeOptions sequential = options;
    sequential.threads = 1;
    GrapeResult expected = grape.optimize(target, 12.0, sequential);

    for (int threads : {2, 3, 8}) {
        GrapeOptions parallel = options;
        parallel.threads = threads;
        GrapeResult got = grape.optimize(target, 12.0, parallel);
        EXPECT_DOUBLE_EQ(got.fidelity, expected.fidelity)
            << threads << " threads";
        EXPECT_EQ(got.iterations, expected.iterations);
        EXPECT_EQ(got.converged, expected.converged);
        ASSERT_EQ(got.trace.size(), expected.trace.size());
        for (std::size_t i = 0; i < got.trace.size(); ++i)
            EXPECT_DOUBLE_EQ(got.trace[i], expected.trace[i]);
        expectIdenticalPulses(got, expected);
    }
}

TEST(GrapeParallelTest, ConvergedRunSelectsSameWinnerAcrossThreadCounts)
{
    // Converging case: the sequential path early-exits at the first
    // converged restart; the parallel path runs every restart but its
    // selection scan must reproduce the same winner.
    DeviceModel pair = DeviceModel::line(2);
    GrapeOptimizer grape(pair);
    GrapeOptions options;
    options.maxIterations = 200;
    options.restarts = 2;

    GrapeOptions sequential = options;
    sequential.threads = 1;
    GrapeResult expected =
        grape.optimize(makeIswap(0, 1).matrix(), 16.0, sequential);
    ASSERT_TRUE(expected.converged);

    GrapeOptions parallel = options;
    parallel.threads = 4;
    GrapeResult got =
        grape.optimize(makeIswap(0, 1).matrix(), 16.0, parallel);
    EXPECT_TRUE(got.converged);
    EXPECT_DOUBLE_EQ(got.fidelity, expected.fidelity);
    EXPECT_EQ(got.iterations, expected.iterations);
    expectIdenticalPulses(got, expected);
}

TEST(GrapeParallelTest, SingleRestartTimestepFanOutIsDeterministic)
{
    // With one restart the pool fans out per-timestep eigs and gradient
    // contractions instead; workers write disjoint slots, so any thread
    // count must reproduce the sequential trajectory exactly.
    DeviceModel pair = DeviceModel::line(2);
    GrapeOptimizer grape(pair);
    GrapeOptions options;
    options.maxIterations = 40;
    options.restarts = 1;

    GrapeOptions sequential = options;
    sequential.threads = 1;
    GrapeResult expected =
        grape.optimize(makeIswap(0, 1).matrix(), 16.0, sequential);

    GrapeOptions parallel = options;
    parallel.threads = 4;
    GrapeResult got =
        grape.optimize(makeIswap(0, 1).matrix(), 16.0, parallel);
    EXPECT_DOUBLE_EQ(got.fidelity, expected.fidelity);
    ASSERT_EQ(got.trace.size(), expected.trace.size());
    for (std::size_t i = 0; i < got.trace.size(); ++i)
        EXPECT_DOUBLE_EQ(got.trace[i], expected.trace[i]);
    expectIdenticalPulses(got, expected);
}

} // namespace
} // namespace qaic
