/**
 * @file
 * The optimizing pass suite (src/opt) and the rewrite plumbing it
 * leans on: commutation-aware peephole cancellation, phase-polynomial
 * region resynthesis, Weyl-coordinate run re-emission, batched
 * analyzer-fix application, and the HandOpt stats accounting fixed
 * alongside. Every rewrite asserted here is cross-checked with the
 * equivalence engine — the suite's never-worse and soundness claims
 * are properties under test, not documentation.
 */
#include <algorithm>
#include <cmath>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "analysis/analyzer.h"
#include "analysis/diagnostics.h"
#include "compiler/compiler.h"
#include "compiler/decompose.h"
#include "compiler/handopt.h"
#include "compiler/pipeline.h"
#include "device/topology.h"
#include "gdg/commute.h"
#include "ir/circuit.h"
#include "ir/gate.h"
#include "opt/cost.h"
#include "opt/opt.h"
#include "opt/peephole.h"
#include "opt/phasepoly_synth.h"
#include "opt/weyl_synth.h"
#include "test_util.h"
#include "verify/verify.h"
#include "workloads/suite.h"

namespace qaic {
namespace {

void
expectEquivalent(const Circuit &a, const Circuit &b, const std::string &what)
{
    EquivalenceReport report = analyzeCircuitsEquivalent(a, b);
    EXPECT_NE(report.verdict, EquivalenceVerdict::kNotEquivalent)
        << what << ": " << report.note;
    if (a.numQubits() <= 8) {
        EXPECT_TRUE(report.equivalent()) << what << ": " << report.note;
    }
}

// ---------------------------------------------------------------------
// Peephole: commutation-aware cancellation and rotation merging.
// ---------------------------------------------------------------------

TEST(PeepholeTest, CancelsInversePairAcrossCommutingGate)
{
    // Rz on the control commutes with CNOT, so the pair cancels even
    // though it is not adjacent — the rule handopt's cancelPass lacks.
    Circuit c(2);
    c.add(makeCnot(0, 1));
    c.add(makeRz(0, 0.7));
    c.add(makeCnot(0, 1));
    Circuit original = c;

    OptimizerOptions options;
    CommutationChecker checker;
    PeepholeStats stats = runPeephole(c, options, checker, false);

    EXPECT_EQ(stats.cancelledPairs, 1);
    ASSERT_EQ(c.size(), 1u);
    EXPECT_EQ(c.gates()[0].kind, GateKind::kRz);
    expectEquivalent(original, c, "slide-cancel");
}

TEST(PeepholeTest, MergesRotationsAndDropsVanishingPairs)
{
    Circuit c(3);
    c.add(makeRz(0, 0.4));
    c.add(makeH(1));
    c.add(makeRz(0, 0.5)); // merges with gate 0 across disjoint H
    c.add(makeRx(2, 1.1));
    c.add(makeRx(2, -1.1)); // folds to zero and vanishes
    Circuit original = c;

    OptimizerOptions options;
    CommutationChecker checker;
    PeepholeStats stats = runPeephole(c, options, checker, false);

    EXPECT_TRUE(stats.changed());
    ASSERT_EQ(c.size(), 2u);
    expectEquivalent(original, c, "rotation merge");
}

TEST(PeepholeTest, MergesSymmetricRzzRegardlessOfOrientation)
{
    Circuit c(2);
    c.add(makeRzz(0, 1, 0.3));
    c.add(makeRzz(1, 0, 0.4));
    Circuit original = c;

    OptimizerOptions options;
    CommutationChecker checker;
    PeepholeStats stats = runPeephole(c, options, checker, false);

    EXPECT_EQ(stats.mergedRotations, 1);
    ASSERT_EQ(c.size(), 1u);
    EXPECT_EQ(c.gates()[0].kind, GateKind::kRzz);
    expectEquivalent(original, c, "rzz merge");
}

// ---------------------------------------------------------------------
// Phase-polynomial resynthesis.
// ---------------------------------------------------------------------

TEST(PhasePolyTest, CollapsesDuplicateParityLadders)
{
    // The same Ising edge written twice: canonical form folds both
    // rotations onto one parity term, so synthesis needs 2 CNOTs where
    // the source spent 4.
    Circuit c(2);
    c.add(makeCnot(0, 1));
    c.add(makeRz(1, 0.3));
    c.add(makeCnot(0, 1));
    c.add(makeCnot(0, 1));
    c.add(makeRz(1, 0.4));
    c.add(makeCnot(0, 1));
    Circuit original = c;

    PhasePolyStats stats = resynthesizePhasePolynomials(c);

    EXPECT_EQ(stats.rewrites, 1);
    EXPECT_LT(c.twoQubitGateCount(), original.twoQubitGateCount());
    expectEquivalent(original, c, "duplicate parity");
}

TEST(PhasePolyTest, RewritesXConjugatedLadderPeepholeCannotSee)
{
    // X on the control conjugates the second ladder onto the same
    // parity with a flipped sign. No inverse pair is ever adjacent (X
    // does not commute with CNOT on its control), so the peephole is
    // blind here — only the canonical form sees the 4-CNOT region is
    // worth 2.
    Circuit c(2);
    c.add(makeCnot(0, 1));
    c.add(makeRz(1, 0.4));
    c.add(makeCnot(0, 1));
    c.add(makeX(0));
    c.add(makeCnot(0, 1));
    c.add(makeRz(1, 0.9));
    c.add(makeCnot(0, 1));
    c.add(makeX(0));
    Circuit original = c;

    OptimizerOptions options;
    CommutationChecker checker;
    Circuit peep = c;
    PeepholeStats pstats = runPeephole(peep, options, checker, false);
    EXPECT_FALSE(pstats.changed());

    PhasePolyStats stats = resynthesizePhasePolynomials(c);

    EXPECT_EQ(stats.rewrites, 1);
    EXPECT_LT(c.twoQubitGateCount(), original.twoQubitGateCount());
    expectEquivalent(original, c, "x-conjugated ladder");
}

TEST(PhasePolyTest, IdGateIsAHardRegionBarrier)
{
    // A virtual kId splits what would otherwise be one foldable region
    // into two already-optimal halves: nothing may be rewritten across
    // it (it carries scheduling semantics the optimizer must not eat).
    Circuit c(2);
    c.add(makeCnot(0, 1));
    c.add(makeRz(1, 0.3));
    c.add(makeCnot(0, 1));
    c.add(makeId(1));
    c.add(makeCnot(0, 1));
    c.add(makeRz(1, 0.4));
    c.add(makeCnot(0, 1));
    const std::size_t before = c.size();

    PhasePolyStats stats = resynthesizePhasePolynomials(c);

    EXPECT_EQ(stats.regions, 2);
    EXPECT_EQ(stats.rewrites, 0);
    ASSERT_EQ(c.size(), before);
    EXPECT_EQ(c.gates()[3].kind, GateKind::kId);
}

TEST(PhasePolyTest, AggregatesAreBarriersAndKeepTheirLabels)
{
    // Aggregates are opaque: their members are never inlined into a
    // region, and the pulse survives with label and member list intact
    // even when in-domain gates sit on both sides.
    Circuit c(2);
    c.add(makeCnot(0, 1));
    c.add(makeRz(1, 0.3));
    c.add(makeCnot(0, 1));
    c.add(makeAggregate({makeCnot(0, 1), makeRz(1, 0.2), makeCnot(0, 1)},
                        "dblk"));
    c.add(makeCnot(0, 1));
    c.add(makeRz(1, 0.4));
    c.add(makeCnot(0, 1));
    Circuit original = c;

    OptimizerOptions options;
    OptStats stats = optimizeCircuit(c, options);

    int aggregates = 0;
    for (const Gate &g : c.gates())
        if (g.kind == GateKind::kAggregate) {
            ++aggregates;
            ASSERT_TRUE(g.payload != nullptr);
            EXPECT_EQ(g.payload->label, "dblk");
            EXPECT_EQ(g.payload->members.size(), 3u);
        }
    EXPECT_EQ(aggregates, 1);
    EXPECT_LE(twoQubitSequenceWeight(c.gates()),
              twoQubitSequenceWeight(original.gates()));
    expectEquivalent(original, c, "aggregate barrier");
    (void)stats;
}

// ---------------------------------------------------------------------
// Weyl (KAK) run resynthesis.
// ---------------------------------------------------------------------

TEST(WeylSynthTest, RewritesCnotMirrorToOneSwap)
{
    Circuit c(2);
    c.add(makeCnot(0, 1));
    c.add(makeCnot(1, 0));
    c.add(makeCnot(0, 1));
    Circuit original = c;

    WeylStats stats = resynthesizeWeylRuns(c);

    EXPECT_EQ(stats.runs, 1);
    EXPECT_EQ(stats.rewrites, 1);
    ASSERT_EQ(c.size(), 1u);
    EXPECT_EQ(c.gates()[0].kind, GateKind::kSwap);
    expectEquivalent(original, c, "cnot mirror");
}

TEST(WeylSynthTest, NeverWorseAndEquivalentOnRandomPairRuns)
{
    for (std::uint64_t seed = 1; seed <= 6; ++seed) {
        Circuit c = testing::randomPauliRotationCircuit(2, 12, seed);
        Circuit original = c;
        const double before = twoQubitSequenceWeight(c.gates());

        resynthesizeWeylRuns(c);

        EXPECT_LE(twoQubitSequenceWeight(c.gates()), before)
            << "seed " << seed;
        expectEquivalent(original, c,
                         "weyl seed " + std::to_string(seed));
    }
}

// ---------------------------------------------------------------------
// Batched analyzer-fix application (the stale-index bug).
// ---------------------------------------------------------------------

TEST(ApplySuggestedFixesTest, SequentialApplicationMiscompiles)
{
    // Two disjoint fixes against one snapshot: a merge that shrinks
    // the gate list and a later pair deletion. Feeding the second
    // through applySuggestedFix after the first re-indexes the circuit
    // and deletes the wrong gates — the exact miscompile the batched
    // entry point exists to prevent.
    Circuit c(3);
    c.add(makeRz(0, 0.3));
    c.add(makeRz(0, 0.4));
    c.add(makeH(1));
    c.add(makeH(1));
    c.add(makeX(2));

    SuggestedFix merge;
    merge.removeGates = {0, 1};
    merge.insertGates = {makeRz(0, 0.7)};
    SuggestedFix cancel;
    cancel.removeGates = {2, 3};

    Circuit stale = applySuggestedFix(applySuggestedFix(c, merge), cancel);
    EquivalenceReport broken = analyzeCircuitsEquivalent(c, stale);
    EXPECT_EQ(broken.verdict, EquivalenceVerdict::kNotEquivalent)
        << "sequential application should demonstrate the stale-index "
           "miscompile this regression test pins down";

    AppliedFixes batched = applySuggestedFixes(c, {merge, cancel});
    EXPECT_EQ(batched.applied.size(), 2u);
    EXPECT_TRUE(batched.deferred.empty());
    ASSERT_EQ(batched.circuit.size(), 2u);
    EXPECT_EQ(batched.circuit.gates()[0].kind, GateKind::kRz);
    EXPECT_EQ(batched.circuit.gates()[1].kind, GateKind::kX);
    expectEquivalent(c, batched.circuit, "batched fixes");
}

TEST(ApplySuggestedFixesTest, OverlappingFixesAreDeferredNotMisapplied)
{
    Circuit c(2);
    c.add(makeH(0));
    c.add(makeH(0));
    c.add(makeH(0));
    c.add(makeH(0));

    SuggestedFix first;
    first.removeGates = {1, 2};
    SuggestedFix second;
    second.removeGates = {2, 3};

    AppliedFixes out = applySuggestedFixes(c, {first, second});
    ASSERT_EQ(out.applied.size(), 1u);
    ASSERT_EQ(out.deferred.size(), 1u);
    // Deferred fixes keep their original-circuit indices untouched.
    EXPECT_EQ(out.deferred[0].removeGates, std::vector<int>({2, 3}));
    EXPECT_EQ(out.circuit.size(), 2u);

    // Order of the input list must not change which fixes are safe.
    AppliedFixes flipped = applySuggestedFixes(c, {second, first});
    EXPECT_EQ(flipped.applied.size(), 1u);
    EXPECT_EQ(flipped.deferred.size(), 1u);
}

// ---------------------------------------------------------------------
// Analyzer seed: proving only the unitary claims, each on its removal
// window, applies exactly what a whole-circuit cross-check of every
// claim applied.
// ---------------------------------------------------------------------

/** Removable unitary claims in @p report. */
int
countUnitaryClaims(const AnalysisReport &report)
{
    int count = 0;
    for (const Diagnostic &d : report.diagnostics)
        count += d.removable && d.mode == VerificationMode::kUnitary;
    return count;
}

/**
 * The analyzer seed with the analyzer's full cross-check (every claim,
 * state claims included), each unitary claim proven on the whole
 * circuit, and the proven fixes applied as one re-proven batch.
 */
int
wholeCircuitSeed(Circuit &circuit, CommutationChecker &checker)
{
    AnalysisOptions analysis;
    analysis.stage = "opt-seed";
    analysis.verify = true;
    analysis.informational = false;
    AnalysisReport report = analyzeCircuit(circuit, analysis, &checker);
    // The cross-check keeps every claim it decides, in the order the
    // seed must apply them. It proves unitary claims on their windows,
    // so re-prove each on the whole circuit below; none may have been
    // suppressed as undecidable on its window.
    AnalysisOptions unchecked = analysis;
    unchecked.verify = false;
    EXPECT_EQ(countUnitaryClaims(report),
              countUnitaryClaims(analyzeCircuit(circuit, unchecked)));
    std::vector<SuggestedFix> fixes;
    for (const Diagnostic &d : report.diagnostics)
        if (d.removable && d.mode == VerificationMode::kUnitary &&
            !d.fix.empty() &&
            analyzeCircuitsEquivalent(circuit,
                                      applySuggestedFix(circuit, d.fix))
                .equivalent())
            fixes.push_back(d.fix);
    if (fixes.empty())
        return 0;
    AppliedFixes batch = applySuggestedFixes(circuit, fixes);
    if (batch.applied.empty())
        return 0;
    if (batch.applied.size() > 1 &&
        !analyzeCircuitsEquivalent(circuit, batch.circuit).equivalent()) {
        circuit = applySuggestedFix(circuit, batch.applied.front());
        return 1;
    }
    circuit = std::move(batch.circuit);
    return static_cast<int>(batch.applied.size());
}

/** Gate list rendered exactly (angles bit for bit). */
std::vector<std::string>
exactGates(const Circuit &circuit)
{
    std::vector<std::string> out;
    for (const Gate &g : circuit.gates()) {
        std::ostringstream line;
        line << g.toString() << std::hexfloat;
        for (double p : g.params)
            line << " " << p;
        out.push_back(line.str());
    }
    return out;
}

/**
 * runPeephole with the seed against the whole-circuit seed followed by
 * an unseeded runPeephole; returns the number of fixes applied.
 */
int
expectSeedMatchesWholeCircuit(const Circuit &circuit,
                              const std::string &what)
{
    OptimizerOptions options;
    CommutationChecker want_checker;
    Circuit want = circuit;
    const int want_fixes = wholeCircuitSeed(want, want_checker);
    runPeephole(want, options, want_checker, false);

    CommutationChecker got_checker;
    Circuit got = circuit;
    PeepholeStats stats = runPeephole(got, options, got_checker, true);
    EXPECT_EQ(stats.analyzerFixesApplied, want_fixes) << what;
    EXPECT_EQ(exactGates(got), exactGates(want)) << what;
    return want_fixes;
}

TEST(AnalyzerSeedTest, MatchesWholeCircuitSeedOnReducedPaperSuite)
{
    int fixes = 0;
    for (const BenchmarkSpec &spec : paperBenchmarkSuite(0.3))
        fixes += expectSeedMatchesWholeCircuit(decomposeCcx(spec.circuit),
                                               spec.name);
    EXPECT_GT(fixes, 0);
}

TEST(AnalyzerSeedTest, MatchesWholeCircuitSeedOnFullScaleUccsd)
{
    const BenchmarkSpec spec = benchmarkByName("UCCSD-n4");
    EXPECT_GT(expectSeedMatchesWholeCircuit(decomposeCcx(spec.circuit),
                                            spec.name),
              0);
}

TEST(AnalyzerSeedTest, MatchesWholeCircuitSeedOnSeededCorpus)
{
    using Generator = Circuit (*)(int, int, std::uint64_t);
    const Generator generators[] = {
        testing::randomCircuit,
        testing::randomCliffordCircuit,
        testing::randomDiagonalCircuit,
    };
    int fixes = 0;
    for (std::uint64_t seed = 0; seed < 30; ++seed) {
        const int width = 4 + static_cast<int>(seed % 3);
        Circuit c = generators[seed % 3](width, 10 * width, 21000 + seed);
        fixes += expectSeedMatchesWholeCircuit(
            c, "corpus seed " + std::to_string(seed));
    }
    EXPECT_GT(fixes, 0);
}

TEST(AnalyzerSeedTest, StateClaimsAreNeverApplied)
{
    // q0 is provably |0>, so the CNOT is a dead control: removable on
    // the reachable state, but not as a unitary.
    Circuit c(2);
    c.add(makeH(1));
    c.add(makeCnot(0, 1));
    AnalysisReport report = analyzeCircuit(c);
    EXPECT_EQ(report.countKind(DiagnosticKind::kDeadControl), 1)
        << report.toString();

    EXPECT_EQ(expectSeedMatchesWholeCircuit(c, "dead control"), 0);
    Circuit seeded = c;
    CommutationChecker checker;
    PeepholeStats stats =
        runPeephole(seeded, OptimizerOptions{}, checker, true);
    EXPECT_EQ(stats.analyzerFixesApplied, 0);
    EXPECT_EQ(exactGates(seeded), exactGates(c));
}

// ---------------------------------------------------------------------
// HandOpt stats accounting across fixpoint iterations.
// ---------------------------------------------------------------------

TEST(HandOptStatsTest, RefusedRunsAreCountedOnce)
{
    // Two fusable runs, but one of them merely extends a pre-existing
    // u1q pulse (the shape a later fixpoint iteration produces after
    // earlier sweeps exposed new neighbours). Rebuilding that run is
    // loop progress, not a newly fused run: the stats must report one.
    Circuit c(2);
    c.add(makeRz(1, 0.2));
    c.add(makeRx(1, 0.3));
    c.add(makeAggregate({makeRz(0, 0.3), makeRx(0, 0.4)}, "u1q"));
    c.add(makeRy(0, 0.5));

    HandOptStats stats;
    Circuit out = handOptimize(c, &stats);

    EXPECT_EQ(stats.cancelledPairs, 0);
    EXPECT_EQ(stats.fusedSingleQubitRuns, 1);
    EXPECT_EQ(stats.zzTemplates, 0);
    ASSERT_EQ(out.size(), 2u);
    EXPECT_EQ(out.gates()[0].kind, GateKind::kAggregate);
    EXPECT_EQ(out.gates()[1].kind, GateKind::kAggregate);
    expectEquivalent(c, out, "handopt refuse");
}

TEST(HandOptStatsTest, RecontractedBlocksAreNotNewTemplates)
{
    // A pre-existing dblk pulse absorbing an adjacent Rz is progress
    // (the loop must re-run) but not a newly matched ZZ template: the
    // net dblk count is unchanged, so the stat must stay zero.
    Circuit c(2);
    c.add(makeAggregate({makeCnot(0, 1), makeRz(1, 0.3), makeCnot(0, 1)},
                        "dblk"));
    c.add(makeRz(1, 0.5));

    HandOptStats stats;
    Circuit out = handOptimize(c, &stats);

    EXPECT_EQ(stats.zzTemplates, 0);
    ASSERT_EQ(out.size(), 1u);
    EXPECT_EQ(out.gates()[0].kind, GateKind::kAggregate);
    expectEquivalent(c, out, "handopt recontract");
}

// ---------------------------------------------------------------------
// Differential: the pass suite dominates handOptimize on the paper
// suite, and the analyzer seeding actually fires.
// ---------------------------------------------------------------------

TEST(OptDifferentialTest, PassSuiteDominatesHandOptOnPaperSuite)
{
    int total_analyzer_fixes = 0;
    for (const BenchmarkSpec &spec : paperBenchmarkSuite()) {
        Circuit lowered = decomposeCcx(spec.circuit);

        HandOptStats hand;
        Circuit hand_out = handOptimize(lowered, &hand);

        Circuit opt_out = lowered;
        OptimizerOptions options;
        OptStats stats = optimizeCircuit(opt_out, options);
        total_analyzer_fixes += stats.analyzerFixesApplied;

        // The suite must reach at most handopt's two-qubit weight...
        EXPECT_LE(twoQubitSequenceWeight(opt_out.gates()),
                  twoQubitSequenceWeight(hand_out.gates()))
            << spec.name;
        // ...and its sliding cancellation subsumes handopt's
        // adjacent-pair rule (every handopt cancellation is a peephole
        // cancellation with an empty slide).
        EXPECT_GE(stats.cancelledPairs + stats.mergedRotations +
                      stats.erasedIdentityWindows +
                      stats.analyzerFixesApplied,
                  hand.cancelledPairs)
            << spec.name;
        expectEquivalent(lowered, opt_out, spec.name);
    }
    // The verified-fix seeding path is live on the paper suite.
    EXPECT_GT(total_analyzer_fixes, 0);
}

// ---------------------------------------------------------------------
// Whole-suite properties: never-worse and optimize-twice-is-fixpoint.
// ---------------------------------------------------------------------

TEST(OptimizeCircuitTest, NeverWorseOnSeededCorpus)
{
    using Generator = Circuit (*)(int, int, std::uint64_t);
    const Generator generators[] = {
        testing::randomCircuit,
        testing::randomCliffordCircuit,
        testing::randomDiagonalCircuit,
        testing::randomPauliRotationCircuit,
    };
    for (const Generator gen : generators) {
        for (std::uint64_t seed = 1; seed <= 3; ++seed) {
            Circuit c = gen(5, 30, seed);
            Circuit original = c;
            const double before = twoQubitSequenceWeight(c.gates());

            OptimizerOptions options;
            optimizeCircuit(c, options);

            EXPECT_LE(twoQubitSequenceWeight(c.gates()), before)
                << "seed " << seed;
            expectEquivalent(original, c,
                             "corpus seed " + std::to_string(seed));
        }
    }
}

TEST(OptimizeCircuitTest, OptimizeTwiceIsAFixpoint)
{
    std::vector<Circuit> inputs;
    for (const BenchmarkSpec &spec : paperBenchmarkSuite(0.5))
        inputs.push_back(decomposeCcx(spec.circuit));
    for (std::uint64_t seed = 1; seed <= 3; ++seed)
        inputs.push_back(testing::randomPauliRotationCircuit(4, 30, seed));

    for (std::size_t i = 0; i < inputs.size(); ++i) {
        Circuit c = inputs[i];
        OptimizerOptions options;
        optimizeCircuit(c, options);
        const std::size_t settled = c.size();

        OptStats again = optimizeCircuit(c, options);
        EXPECT_FALSE(again.changed()) << "input " << i;
        EXPECT_EQ(c.size(), settled) << "input " << i;
    }
}

// ---------------------------------------------------------------------
// Pipeline integration: pass ordering and end-to-end compiles.
// ---------------------------------------------------------------------

TEST(OptPipelineTest, OptPassesSlotBetweenLoweringAndMapping)
{
    Pipeline p = Pipeline::forStrategy(Strategy::kIsa, false, true);
    const std::vector<std::string> names = p.passNames();
    const std::vector<std::string> expected = {
        "opt-peephole-seeded", "opt-phasepoly", "opt-weyl",
        "opt-peephole"};

    auto it = names.begin();
    for (const std::string &want : expected) {
        it = std::find(it, names.end(), want);
        ASSERT_NE(it, names.end()) << "missing pass " << want;
    }
    // The suite runs on the logical circuit: after lowering, before
    // mapping.
    auto lowering = std::find(names.begin(), names.end(), "frontend-lowering");
    auto mapping = std::find(names.begin(), names.end(), "mapping");
    auto first_opt =
        std::find(names.begin(), names.end(), "opt-peephole-seeded");
    ASSERT_NE(lowering, names.end());
    ASSERT_NE(mapping, names.end());
    EXPECT_LT(lowering - names.begin(), first_opt - names.begin());
    EXPECT_LT(first_opt - names.begin(), mapping - names.begin());
}

TEST(OptPipelineTest, DefaultPipelineIsUnchanged)
{
    for (Strategy s : kAllStrategies) {
        const auto plain = Pipeline::forStrategy(s).passNames();
        for (const std::string &name : plain)
            EXPECT_EQ(name.rfind("opt-", 0), std::string::npos)
                << strategyName(s);
    }
}

TEST(OptPipelineTest, OptimizedCompilesStayRoutedEquivalent)
{
    // The seeded fuzz corpus, compiled with the optimizer on, across
    // every strategy and both paper topologies. In Debug builds every
    // opt pass additionally re-proves its own rewrite via
    // OptimizerOptions::verifyRewrites, so this is a double check: the
    // routed artifact must still implement the *original* logical
    // circuit.
    std::vector<Circuit> corpus = {
        testing::randomCircuit(5, 20, 11),
        testing::randomCliffordCircuit(5, 20, 12),
        testing::randomDiagonalCircuit(5, 20, 13),
        testing::randomPauliRotationCircuit(5, 20, 14),
    };
    for (Topology topology : {Topology::kGrid, Topology::kHeavyHex}) {
        DeviceModel device = deviceForTopology(topology, 5);
        CompilerOptions options;
        options.optimize = true;
        Compiler compiler(device, options);
        for (std::size_t i = 0; i < corpus.size(); ++i) {
            for (Strategy strategy : kAllStrategies) {
                StatusOr<CompilationResult> result =
                    compiler.tryCompile(corpus[i], strategy);
                ASSERT_TRUE(result.isOk())
                    << topologyName(topology) << "/"
                    << strategyName(strategy) << " circuit " << i << ": "
                    << result.status().toString();
                EquivalenceReport report = analyzeRoutedEquivalent(
                    corpus[i], result.value().routing,
                    device.numQubits());
                EXPECT_NE(report.verdict,
                          EquivalenceVerdict::kNotEquivalent)
                    << topologyName(topology) << "/"
                    << strategyName(strategy) << " circuit " << i << ": "
                    << report.note;
                if (device.numQubits() <= 10) {
                    EXPECT_TRUE(report.equivalent())
                        << topologyName(topology) << "/"
                        << strategyName(strategy) << " circuit " << i
                        << ": " << report.note;
                }
            }
        }
    }
}

// The latency guard is the end-to-end never-worse promise: whenever
// the optimizer rewrote a circuit, the compiler also routes the plain
// pipeline's result and keeps whichever makespan is lower. So for any
// workload x strategy the optimizing compiler's latency can never
// exceed the plain compiler's — even where routing heuristics happen
// to punish the lighter circuit — and a fallback result carries
// latencyFallbacks with every other counter zeroed.
TEST(OptPipelineTest, LatencyGuardNeverRoutesWorseThanPlain)
{
    Circuit workload = decomposeCcx(benchmarkByName("sqrt-n3").circuit);
    for (Topology topology : {Topology::kGrid, Topology::kHeavyHex}) {
        DeviceModel device =
            deviceForTopology(topology, workload.numQubits());
        for (Strategy strategy : kAllStrategies) {
            // Fresh compilers per cell: cold GRAPE pricing on both
            // sides is what the guard's internal baseline reproduces.
            Compiler plain(device, CompilerOptions{});
            CompilerOptions opt_options;
            opt_options.optimize = true;
            Compiler opt(device, opt_options);
            CompilationResult base = plain.compile(workload, strategy);
            CompilationResult best = opt.compile(workload, strategy);
            EXPECT_LE(best.latencyNs, base.latencyNs + 1e-6)
                << topologyName(topology) << "/"
                << strategyName(strategy);
            if (best.optStats.latencyFallbacks > 0) {
                // A fallback keeps the plain result wholesale: no
                // optimizer counter may survive on it.
                EXPECT_FALSE(best.optStats.changed())
                    << topologyName(topology) << "/"
                    << strategyName(strategy);
                EXPECT_DOUBLE_EQ(best.latencyNs, base.latencyNs)
                    << topologyName(topology) << "/"
                    << strategyName(strategy);
            }
        }
    }
}

// When the optimizer leaves the circuit untouched the guard must not
// run the plain pipeline at all: the result is the optimized compile
// itself, with no fallback recorded.
TEST(OptPipelineTest, LatencyGuardIsFreeWhenNothingChanged)
{
    // A lone CNOT ladder with incommensurate rotations: nothing for
    // the peephole, phase-poly or Weyl passes to improve.
    Circuit circuit(3);
    circuit.add(makeCnot(0, 1));
    circuit.add(makeRz(2, 0.5));
    circuit.add(makeCnot(1, 2));

    Pipeline optimized =
        Pipeline::forStrategy(Strategy::kIsa, false, true);
    Pipeline plain = Pipeline::forStrategy(Strategy::kIsa, false, false);
    DeviceModel device = deviceForTopology(Topology::kGrid, 3);
    CompilerOptions options;
    options.optimize = true;
    CompilationContext context(device, options, nullptr, nullptr);
    StatusOr<CompilationResult> result =
        compileWithLatencyGuard(optimized, plain, circuit, context);
    ASSERT_TRUE(result.isOk()) << result.status().toString();
    EXPECT_FALSE(result.value().optStats.changed());
    EXPECT_EQ(result.value().optStats.latencyFallbacks, 0);
}

} // namespace
} // namespace qaic
