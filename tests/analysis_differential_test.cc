/**
 * @file
 * Differential tests for the dataflow analyzer: every removable claim
 * on seeded random circuits is re-verified *externally* through the
 * equivalence engine (the analyzer's own cross-check is switched off,
 * so the claims face the engine cold), the built-in cross-check
 * reports zero refuted claims across the corpus, the paper workload
 * suite analyzes cleanly end to end through the compiler, and a
 * unitary claim proven on its removal window gets the verdict a proof
 * over the whole circuit gives it.
 */
#include <string>

#include <gtest/gtest.h>

#include "analysis/analyzer.h"
#include "analysis/diagnostics.h"
#include "compiler/compiler.h"
#include "compiler/decompose.h"
#include "device/device.h"
#include "testing/generators.h"
#include "verify/verify.h"
#include "workloads/suite.h"

namespace qaic {
namespace {

using testing::randomCircuit;
using testing::randomCliffordCircuit;
using testing::randomDiagonalCircuit;

/**
 * Externally re-proves every removable claim of @p report against
 * @p circuit. Claims the engine cannot decide are tolerated (the
 * analyzer's own pass would have suppressed them); refutations are
 * hard failures.
 */
void
reverifyExternally(const Circuit &circuit, const AnalysisReport &report)
{
    for (const Diagnostic &d : report.diagnostics) {
        if (!d.removable || d.fix.empty())
            continue;
        Circuit fixed = applySuggestedFix(circuit, d.fix);
        EquivalenceReport check =
            d.mode == VerificationMode::kUnitary
                ? analyzeCircuitsEquivalent(circuit, fixed)
                : analyzeZeroStateEquivalent(circuit, fixed);
        EXPECT_NE(check.verdict, EquivalenceVerdict::kNotEquivalent)
            << d.toString() << " refuted: " << check.note;
    }
}

TEST(AnalysisDifferentialTest, RandomMixedCircuits)
{
    AnalysisOptions options;
    options.verify = false; // claims face the engine cold below
    for (std::uint64_t seed = 0; seed < 25; ++seed) {
        Circuit c = randomCircuit(4, 24, 9000 + seed);
        AnalysisReport report = analyzeCircuit(c, options);
        reverifyExternally(c, report);
    }
}

TEST(AnalysisDifferentialTest, RandomCliffordCircuits)
{
    // Clifford circuits exercise the stabilizer domain: gates fixing
    // the reachable stabilizer state are flagged well beyond what
    // constant propagation sees.
    AnalysisOptions options;
    options.verify = false;
    for (std::uint64_t seed = 0; seed < 25; ++seed) {
        Circuit c = randomCliffordCircuit(5, 30, 7000 + seed);
        AnalysisReport report = analyzeCircuit(c, options);
        reverifyExternally(c, report);
    }
}

TEST(AnalysisDifferentialTest, RandomDiagonalCircuits)
{
    // Diagonal circuits exercise the rotation-folding domain.
    AnalysisOptions options;
    options.verify = false;
    for (std::uint64_t seed = 0; seed < 25; ++seed) {
        Circuit c = randomDiagonalCircuit(4, 24, 11000 + seed);
        AnalysisReport report = analyzeCircuit(c, options);
        reverifyExternally(c, report);
    }
}

TEST(AnalysisDifferentialTest, BuiltInCrossCheckNeverRefuted)
{
    // With verification on, a refuted claim (failedVerification > 0)
    // is an analyzer soundness bug. Sweep all three corpora.
    for (std::uint64_t seed = 0; seed < 15; ++seed) {
        for (int corpus = 0; corpus < 3; ++corpus) {
            Circuit c =
                corpus == 0   ? randomCircuit(4, 24, 1000 + seed)
                : corpus == 1 ? randomCliffordCircuit(5, 30, 2000 + seed)
                              : randomDiagonalCircuit(4, 24, 3000 + seed);
            AnalysisReport report = analyzeCircuit(c);
            EXPECT_EQ(report.failedVerification, 0)
                << "corpus " << corpus << " seed " << seed << "\n"
                << report.toString();
            for (const Diagnostic &d : report.diagnostics) {
                if (d.removable) {
                    EXPECT_TRUE(d.verified) << d.toString();
                }
            }
        }
    }
}

TEST(AnalysisDifferentialTest, TamperCorpusHasZeroFalsePositives)
{
    // Append a load-bearing entangler on two fresh ancilla qubits the
    // random prefix never touches: H(4) drives q4 off |0> and
    // CNOT(4, 5) creates fresh entanglement, so neither is removable
    // no matter what the prefix did. A removable claim on either would
    // be a false positive. (The built-in verifier would catch it too —
    // this pins the property structurally, without the engine.)
    for (std::uint64_t seed = 0; seed < 20; ++seed) {
        Circuit prefix = randomCircuit(4, 16, 5000 + seed);
        Circuit c(6);
        for (const Gate &g : prefix.gates())
            c.add(g);
        c.add(makeH(4));
        const int planted_h = static_cast<int>(c.gates().size()) - 1;
        c.add(makeCnot(4, 5));
        const int planted = static_cast<int>(c.gates().size()) - 1;

        AnalysisReport report = analyzeCircuit(c);
        EXPECT_EQ(report.failedVerification, 0) << report.toString();
        for (const Diagnostic &d : report.diagnostics) {
            if (!d.removable)
                continue;
            for (int g : d.fix.removeGates) {
                EXPECT_NE(g, planted_h)
                    << "seed " << seed << ": " << d.toString();
                EXPECT_NE(g, planted)
                    << "seed " << seed << ": " << d.toString();
            }
        }
    }
}

TEST(AnalysisDifferentialTest, SuiteWorkloadsAnalyzeCleanly)
{
    // End-to-end through the compiler: both analysis stages verify on
    // representative paper workloads under two strategies.
    for (const char *name : {"MAXCUT-line", "sqrt-n3"}) {
        BenchmarkSpec spec = benchmarkByName(name);
        DeviceModel device =
            DeviceModel::gridFor(spec.circuit.numQubits());
        CompilerOptions options;
        options.analyze = true;
        Compiler compiler(device, options);
        for (Strategy strategy :
             {Strategy::kIsa, Strategy::kClsAggregation}) {
            CompilationResult result =
                compiler.compile(spec.circuit, strategy);
            ASSERT_EQ(result.analyses.size(), 2u) << name;
            for (const AnalysisReport &report : result.analyses) {
                EXPECT_TRUE(report.allVerified())
                    << name << "/" << strategyName(strategy) << "\n"
                    << report.toString();
            }
        }
    }
}

TEST(AnalysisDifferentialTest, SqrtWorkloadShowsDistinctKinds)
{
    // Acceptance criterion: at least three distinct diagnostic kinds
    // on a real suite workload.
    BenchmarkSpec spec = benchmarkByName("sqrt-n3");
    DeviceModel device = DeviceModel::gridFor(spec.circuit.numQubits());
    CompilerOptions options;
    options.analyze = true;
    Compiler compiler(device, options);
    CompilationResult result =
        compiler.compile(spec.circuit, Strategy::kIsa);
    ASSERT_EQ(result.analyses.size(), 2u);
    EXPECT_GE(result.analyses[0].distinctKinds(), 3)
        << result.analyses[0].toString();
    EXPECT_TRUE(result.analyses[0].allVerified());
    EXPECT_TRUE(result.analyses[1].allVerified());
}

// ---------------------------------------------------------------------
// Window proofs: a unitary claim proven on gates [first, last] of its
// fix gets the verdict a proof over the whole circuit gives it.
// ---------------------------------------------------------------------

/** The whole-circuit proof the analyzer made before window proofs. */
EquivalenceVerdict
wholeCircuitVerdict(const Circuit &circuit, const SuggestedFix &fix)
{
    return analyzeCircuitsEquivalent(circuit,
                                     applySuggestedFix(circuit, fix))
        .verdict;
}

/**
 * Compares the window and whole-circuit verdicts of every unitary
 * claim the analyzer makes on @p circuit; returns how many it checked.
 */
int
expectWindowMatchesWhole(const Circuit &circuit, const std::string &what)
{
    AnalysisOptions options;
    options.verify = false;
    AnalysisReport report = analyzeCircuit(circuit, options);
    int checked = 0;
    for (const Diagnostic &d : report.diagnostics) {
        if (!d.removable || d.mode != VerificationMode::kUnitary)
            continue;
        EXPECT_EQ(verifyUnitaryClaim(circuit, d.fix).verdict,
                  wholeCircuitVerdict(circuit, d.fix))
            << what << ": " << d.toString();
        ++checked;
    }
    return checked;
}

TEST(WindowVerificationTest, MatchesWholeCircuitOnRandomCircuits)
{
    // Widths 10 and 12 cross the 8-qubit exact-unitary limit, so the
    // window and whole-circuit proofs may go through different tiers.
    int checked = 0, checked_wide = 0;
    for (int width : {4, 6, 10, 12}) {
        for (std::uint64_t seed = 0; seed < 12; ++seed) {
            for (int corpus = 0; corpus < 3; ++corpus) {
                const int gates = 8 * width;
                Circuit c =
                    corpus == 0
                        ? randomCircuit(width, gates, 13000 + seed)
                    : corpus == 1
                        ? randomCliffordCircuit(width, gates, 14000 + seed)
                        : randomDiagonalCircuit(width, gates, 15000 + seed);
                const int n = expectWindowMatchesWhole(
                    c, "width " + std::to_string(width) + " corpus " +
                           std::to_string(corpus) + " seed " +
                           std::to_string(seed));
                checked += n;
                if (width > 8)
                    checked_wide += n;
            }
        }
    }
    EXPECT_GE(checked, 100);
    EXPECT_GE(checked_wide, 50);
}

TEST(WindowVerificationTest, MatchesWholeCircuitOnReducedPaperSuite)
{
    int checked = 0;
    for (const BenchmarkSpec &spec : paperBenchmarkSuite(0.3))
        checked += expectWindowMatchesWhole(decomposeCcx(spec.circuit),
                                            spec.name);
    EXPECT_GE(checked, 100);
}

/** @p claim embedded after a random prefix and before a random suffix. */
Circuit
embedClaim(const std::vector<Gate> &claim, int width, std::uint64_t seed,
           int *first)
{
    Circuit c = randomCircuit(width, 12, seed);
    *first = static_cast<int>(c.size());
    for (const Gate &g : claim)
        c.add(g);
    c.append(randomCircuit(width, 12, seed + 1));
    return c;
}

TEST(WindowVerificationTest, RefutesTamperedClaims)
{
    for (int width : {3, 10}) {
        for (std::uint64_t seed = 0; seed < 5; ++seed) {
            const std::string what = "width " + std::to_string(width) +
                                     " seed " + std::to_string(seed);
            // A fold of rz(0.3) and rz(0.5) across a commuting CNOT
            // control, with a wrong merged angle.
            int first = 0;
            Circuit fold = embedClaim(
                {makeRz(0, 0.3), makeCnot(0, 1), makeRz(0, 0.5)}, width,
                16000 + seed, &first);
            SuggestedFix bad_fold;
            bad_fold.removeGates = {first, first + 2};
            bad_fold.insertGates = {makeRz(0, 0.9)};
            EXPECT_EQ(verifyUnitaryClaim(fold, bad_fold).verdict,
                      EquivalenceVerdict::kNotEquivalent)
                << what;
            EXPECT_EQ(wholeCircuitVerdict(fold, bad_fold),
                      EquivalenceVerdict::kNotEquivalent)
                << what;
            // The same fold with the right angle is proven.
            SuggestedFix good_fold = bad_fold;
            good_fold.insertGates = {makeRz(0, 0.8)};
            EXPECT_EQ(verifyUnitaryClaim(fold, good_fold).verdict,
                      EquivalenceVerdict::kEquivalent)
                << what;

            // An "adjoint pair" of CNOTs separated by an H on the
            // control, which does not commute with either.
            Circuit pair = embedClaim(
                {makeCnot(0, 1), makeH(0), makeCnot(0, 1)}, width,
                17000 + seed, &first);
            SuggestedFix bad_pair;
            bad_pair.removeGates = {first, first + 2};
            EXPECT_EQ(verifyUnitaryClaim(pair, bad_pair).verdict,
                      EquivalenceVerdict::kNotEquivalent)
                << what;
            EXPECT_EQ(wholeCircuitVerdict(pair, bad_pair),
                      EquivalenceVerdict::kNotEquivalent)
                << what;
        }
    }
}

} // namespace
} // namespace qaic
