/**
 * @file
 * Tests for instruction aggregation: diagonal-block detection (4.2),
 * monotonic-action aggregation (4.3), width limits and semantics
 * preservation, plus a differential check of the incremental candidate
 * scoring against a full-rebuild reference and a bound on its oracle
 * traffic.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <set>
#include <string>
#include <tuple>
#include <vector>

#include "aggregate/aggregate.h"
#include "compiler/pipeline.h"
#include "device/device.h"
#include "gdg/gdg.h"
#include "oracle/oracle.h"
#include "schedule/schedule.h"
#include "testing/generators.h"
#include "verify/verify.h"
#include "workloads/graphs.h"
#include "workloads/qaoa.h"
#include "workloads/suite.h"

namespace qaic {
namespace {

TEST(DiagonalBlocksTest, ContractsCnotRzCnot)
{
    Circuit c(2);
    c.add(makeCnot(0, 1));
    c.add(makeRz(1, 5.67));
    c.add(makeCnot(0, 1));
    int found = 0;
    Circuit out = detectDiagonalBlocks(c, 10, &found);
    EXPECT_EQ(found, 1);
    ASSERT_EQ(out.size(), 1u);
    EXPECT_EQ(out.gates()[0].kind, GateKind::kAggregate);
    EXPECT_TRUE(out.gates()[0].isDiagonal());
    EXPECT_TRUE(circuitsEquivalent(c, out));
}

TEST(DiagonalBlocksTest, SkipsInterleavedDisjointGates)
{
    // A gate on an unrelated qubit between the block members must not
    // break detection (it commutes trivially).
    Circuit c(3);
    c.add(makeCnot(0, 1));
    c.add(makeH(2));
    c.add(makeRz(1, 1.0));
    c.add(makeCnot(0, 1));
    int found = 0;
    Circuit out = detectDiagonalBlocks(c, 10, &found);
    EXPECT_EQ(found, 1);
    EXPECT_EQ(out.size(), 2u);
    EXPECT_TRUE(circuitsEquivalent(c, out));
}

TEST(DiagonalBlocksTest, EmitSiteOfEarlierBlockIsABarrier)
{
    // Regression: two overlapping-support blocks whose spans interleave.
    // The first block [Rz(0), CNOT(0,1), Rz(1), CNOT(0,1)] contracts
    // and its aggregate is emitted at the last member's position. The
    // H(1) at position 1 was scanned past while the first block's
    // support was still {0} — so no per-gate check ever compared it
    // against qubit 1, which the block picked up later. A second block
    // starting from that H(1) must treat the first block's emit site
    // as a barrier: sliding H(1) across the contracted ZZ-rotation is
    // not sound (they share qubit 1 and do not commute), and before
    // the fix this miscompiled with an O(1) unitary error.
    Circuit c(3);
    c.add(makeRz(0, 0.3));  // block A, support {0} at this point
    c.add(makeH(1));        // skipped by A's scan as disjoint
    c.add(makeCnot(0, 1));  // A's support grows to {0,1}
    c.add(makeRz(1, 0.5));
    c.add(makeCnot(0, 1));  // A's diagonal prefix ends here (emit site)
    c.add(makeX(1));        // would-be block B: H, X, H, CZ has a
    c.add(makeH(1));        //   diagonal product (H X H = Z)...
    c.add(makeCz(1, 2));    //   ...but B may not slide across A.
    int found = 0;
    Circuit out = detectDiagonalBlocks(c, 10, &found);
    EXPECT_EQ(found, 1);
    EXPECT_TRUE(circuitsEquivalent(c, out));
}

TEST(DiagonalBlocksTest, DisjointEarlierBlockStillInterleaves)
{
    // Same shape, but the second block lives on a disjoint pair: the
    // emit-site barrier must NOT fire and both blocks contract.
    Circuit c(4);
    c.add(makeCnot(0, 1)); // block A on {0,1}
    c.add(makeH(2));       // block B on {2,3}, interleaved
    c.add(makeRz(1, 0.5));
    c.add(makeCnot(0, 1)); // A's emit site
    c.add(makeX(2));
    c.add(makeH(2));
    c.add(makeCz(2, 3));
    int found = 0;
    Circuit out = detectDiagonalBlocks(c, 10, &found);
    EXPECT_EQ(found, 2);
    EXPECT_TRUE(circuitsEquivalent(c, out));
}

TEST(DiagonalBlocksTest, IgnoresNonDiagonalRuns)
{
    Circuit c(2);
    c.add(makeCnot(0, 1));
    c.add(makeRx(1, 1.0)); // Breaks diagonality.
    c.add(makeCnot(0, 1));
    int found = 0;
    Circuit out = detectDiagonalBlocks(c, 10, &found);
    EXPECT_EQ(found, 0);
    EXPECT_EQ(out.size(), c.size());
}

TEST(DiagonalBlocksTest, FindsLongestDiagonalPrefix)
{
    // CNOT Rz CNOT followed by H on the pair: only the first three fold.
    Circuit c(2);
    c.add(makeCnot(0, 1));
    c.add(makeRz(1, 0.8));
    c.add(makeCnot(0, 1));
    c.add(makeH(0));
    int found = 0;
    Circuit out = detectDiagonalBlocks(c, 10, &found);
    EXPECT_EQ(found, 1);
    EXPECT_EQ(out.size(), 2u);
    EXPECT_TRUE(circuitsEquivalent(c, out));
}

TEST(DiagonalBlocksTest, RespectsLengthLimit)
{
    Circuit c(2);
    for (int k = 0; k < 4; ++k) {
        c.add(makeCnot(0, 1));
        c.add(makeRz(1, 0.3));
        c.add(makeCnot(0, 1));
    }
    int found = 0;
    detectDiagonalBlocks(c, 3, &found);
    EXPECT_GE(found, 1); // Limited runs, but still finds short blocks.
    Circuit out = detectDiagonalBlocks(c, 12, &found);
    EXPECT_TRUE(circuitsEquivalent(c, out));
}

TEST(DiagonalBlocksTest, QaoaCostLayerFullyContracts)
{
    Circuit c = qaoaMaxcut(lineGraph(5));
    int found = 0;
    Circuit out = detectDiagonalBlocks(c, 10, &found);
    EXPECT_EQ(found, 4); // One block per edge.
    EXPECT_TRUE(circuitsEquivalent(c, out));
}

TEST(AggregationTest, MergesSerialChain)
{
    CommutationChecker checker;
    AnalyticOracle oracle;
    Circuit c(3);
    c.add(makeH(0));
    c.add(makeCnot(0, 1));
    c.add(makeCnot(1, 2));
    c.add(makeH(2));

    AggregationOptions opt;
    opt.maxWidth = 3;
    AggregationResult result =
        aggregateInstructions(c, &checker, oracle, opt);
    EXPECT_GT(result.actions, 0);
    EXPECT_LT(result.circuit.size(), c.size());
    EXPECT_TRUE(circuitsEquivalent(c, result.circuit));

    // Latency must not increase (monotonic actions only).
    double before = scheduleAsap(c, oracle).makespan();
    double after = scheduleAsap(result.circuit, oracle).makespan();
    EXPECT_LE(after, before + 1e-9);
    EXPECT_LT(after, before); // Overheads elide, so strictly better here.
}

TEST(AggregationTest, RespectsWidthLimit)
{
    CommutationChecker checker;
    AnalyticOracle oracle;
    Circuit c(6);
    for (int q = 0; q + 1 < 6; ++q)
        c.add(makeCnot(q, q + 1));

    for (int width : {2, 3, 4}) {
        AggregationOptions opt;
        opt.maxWidth = width;
        AggregationResult result =
            aggregateInstructions(c, &checker, oracle, opt);
        EXPECT_LE(result.circuit.maxGateWidth(), width);
        EXPECT_TRUE(circuitsEquivalent(c, result.circuit));
    }
}

TEST(AggregationTest, WiderLimitNeverHurtsSerialCircuits)
{
    CommutationChecker checker;
    AnalyticOracle oracle;
    // Serial chain: latency should be non-increasing in allowed width
    // (Figure 10's "serialized applications" panel).
    Circuit c(5);
    for (int q = 0; q + 1 < 5; ++q) {
        c.add(makeCnot(q, q + 1));
        c.add(makeH(q + 1));
    }
    double prev = 1e300;
    for (int width : {2, 3, 4, 5}) {
        AggregationOptions opt;
        opt.maxWidth = width;
        AggregationResult result =
            aggregateInstructions(c, &checker, oracle, opt);
        double latency = scheduleAsap(result.circuit, oracle).makespan();
        EXPECT_LE(latency, prev + 1e-9);
        prev = latency;
    }
}

TEST(AggregationTest, PreservesParallelism)
{
    // Figure 8's lesson: merging across parallel branches must not
    // serialize the circuit. Two independent chains stay independent.
    CommutationChecker checker;
    AnalyticOracle oracle;
    Circuit c(4);
    c.add(makeCnot(0, 1));
    c.add(makeCnot(2, 3));
    c.add(makeRz(1, 0.4));
    c.add(makeRz(3, 0.4));

    AggregationOptions opt;
    opt.maxWidth = 4;
    AggregationResult result =
        aggregateInstructions(c, &checker, oracle, opt);
    double before = scheduleAsap(c, oracle).makespan();
    double after = scheduleAsap(result.circuit, oracle).makespan();
    EXPECT_LE(after, before + 1e-9);
    // No instruction should span both independent chains.
    for (const Gate &g : result.circuit.gates()) {
        bool left = g.actsOn(0) || g.actsOn(1);
        bool right = g.actsOn(2) || g.actsOn(3);
        EXPECT_FALSE(left && right) << g.toString();
    }
}

TEST(AggregationTest, MobilityThroughCommutingGate)
{
    // CNOT(0,1) .. Rz(0) .. CNOT(0,1): the Rz commutes with the control,
    // so all three should fold into one instruction.
    CommutationChecker checker;
    AnalyticOracle oracle;
    Circuit c(2);
    c.add(makeCnot(0, 1));
    c.add(makeRz(0, 0.9));
    c.add(makeCnot(0, 1));
    AggregationOptions opt;
    opt.maxWidth = 2;
    AggregationResult result =
        aggregateInstructions(c, &checker, oracle, opt);
    EXPECT_EQ(result.circuit.size(), 1u);
    EXPECT_TRUE(circuitsEquivalent(c, result.circuit));
}

TEST(AggregationTest, LabelsAreSequentialAndKeepProvenance)
{
    CommutationChecker checker;
    AnalyticOracle oracle;
    Circuit c(4);
    c.add(makeCnot(0, 1));
    c.add(makeRz(1, 1.0));
    c.add(makeCnot(2, 3));
    c.add(makeRz(3, 1.0));
    AggregationResult result =
        aggregateInstructions(c, &checker, oracle, {});
    int seen = 0;
    for (const Gate &g : result.circuit.gates())
        if (g.kind == GateKind::kAggregate) {
            ++seen;
            // "G<n>:<member provenance>" — numbering for reports, the
            // composed member labels for diagnostics (a merge used to
            // relabel everything to the constant "agg").
            std::string prefix = "G" + std::to_string(seen) + ":";
            EXPECT_EQ(g.payload->label.rfind(prefix, 0), 0u)
                << g.payload->label;
            EXPECT_NE(g.payload->label.find("cnot"), std::string::npos)
                << g.payload->label;
            EXPECT_NE(g.payload->label.find("rz"), std::string::npos)
                << g.payload->label;
        }
    EXPECT_GT(seen, 0);
}

TEST(AggregationTest, MergeProvenanceSurvivesRelabeling)
{
    // Labels must survive relabelGate (routing rewrites qubit ids) and
    // stay bounded no matter how many merges compose.
    Gate block = makeAggregate(
        {makeCnot(0, 1), makeRz(1, 0.5), makeCnot(0, 1)}, "cnot+rz+cnot");
    Gate moved = relabelGate(block, {3, 2, 1, 0});
    ASSERT_EQ(moved.kind, GateKind::kAggregate);
    EXPECT_EQ(moved.payload->label, "cnot+rz+cnot");

    CommutationChecker checker;
    AnalyticOracle oracle;
    Circuit chain(2);
    for (int i = 0; i < 24; ++i) {
        chain.add(makeCnot(0, 1));
        chain.add(makeRz(1, 0.1 + 0.05 * i));
        chain.add(makeCnot(0, 1));
    }
    AggregationOptions opt;
    opt.maxWidth = 2;
    opt.maxRounds = 8;
    AggregationResult result =
        aggregateInstructions(chain, &checker, oracle, opt);
    for (const Gate &g : result.circuit.gates()) {
        if (g.kind == GateKind::kAggregate) {
            EXPECT_LE(g.payload->label.size(), 70u) << g.payload->label;
        }
    }
}

TEST(AggregationTest, EmptyAndTrivialCircuits)
{
    CommutationChecker checker;
    AnalyticOracle oracle;
    Circuit single(2);
    single.add(makeCnot(0, 1));
    AggregationResult result =
        aggregateInstructions(single, &checker, oracle, {});
    EXPECT_EQ(result.circuit.size(), 1u);
    EXPECT_EQ(result.actions, 0);
}

TEST(AggregationTest, QaoaEndToEndEquivalence)
{
    CommutationChecker checker;
    AnalyticOracle oracle;
    Circuit c = qaoaMaxcut(lineGraph(5));
    Circuit detected = detectDiagonalBlocks(c, 10, nullptr);
    AggregationOptions opt;
    opt.maxWidth = 4;
    AggregationResult result =
        aggregateInstructions(detected, &checker, oracle, opt);
    EXPECT_TRUE(circuitsEquivalent(c, result.circuit, 1e-6, 5));
    double before = scheduleAsap(c, oracle).makespan();
    double after = scheduleAsap(result.circuit, oracle).makespan();
    EXPECT_LT(after, before * 0.6);
}

// --- Incremental scoring vs. the full-rebuild reference -------------

/**
 * The aggregation loop as it was before candidate scoring became
 * incremental: every candidate is moved with makeAdjacent, merged, and
 * re-priced by a full ASAP sweep; the chosen merges are applied one
 * circuit copy at a time. Kept verbatim (helpers included) as the
 * reference the incremental loop must match exactly.
 */
namespace reference {

void
collectMembers(const Gate &gate, std::vector<Gate> *out)
{
    if (gate.kind == GateKind::kAggregate) {
        for (const Gate &m : gate.payload->members)
            collectMembers(m, out);
    } else {
        out->push_back(gate);
    }
}

std::string
provenanceLabel(const Gate &gate)
{
    if (gate.kind == GateKind::kAggregate && gate.payload &&
        !gate.payload->label.empty())
        return gate.payload->label;
    return gate.name();
}

std::string
boundLabel(std::string label)
{
    if (label.size() > 64)
        label = label.substr(0, 63) + "~";
    return label;
}

Gate
mergeGates(const Gate &first, const Gate &second)
{
    std::vector<Gate> members;
    collectMembers(first, &members);
    collectMembers(second, &members);
    std::string label = boundLabel(provenanceLabel(first) + "+" +
                                   provenanceLabel(second));
    return makeAggregate(std::move(members), std::move(label), 2);
}

double
asapMakespan(const Circuit &circuit, LatencyOracle &oracle)
{
    std::vector<double> free_at(circuit.numQubits(), 0.0);
    double makespan = 0.0;
    for (const Gate &g : circuit.gates()) {
        double start = 0.0;
        for (int q : g.qubits)
            start = std::max(start, free_at[q]);
        double fin = start + oracle.latencyNs(g);
        for (int q : g.qubits)
            free_at[q] = fin;
        makespan = std::max(makespan, fin);
    }
    return makespan;
}

bool
overlaps(const Gate &a, const Gate &b)
{
    for (int q : a.qubits)
        if (b.actsOn(q))
            return true;
    return false;
}

int
mergedWidth(const Gate &a, const Gate &b)
{
    std::set<int> s(a.qubits.begin(), a.qubits.end());
    s.insert(b.qubits.begin(), b.qubits.end());
    return static_cast<int>(s.size());
}

Circuit
applyMerge(const Circuit &circuit, std::size_t i, std::size_t j,
           CommutationChecker *checker)
{
    std::size_t at = 0;
    Circuit reordered = makeAdjacent(circuit, i, j, checker, &at);
    Circuit merged(circuit.numQubits());
    for (std::size_t k = 0; k < reordered.size(); ++k) {
        if (k == at) {
            merged.add(mergeGates(reordered.gates()[at],
                                  reordered.gates()[at + 1]));
            ++k;
        } else {
            merged.add(reordered.gates()[k]);
        }
    }
    return merged;
}

AggregationResult
aggregateInstructions(const Circuit &circuit, CommutationChecker *checker,
                      LatencyOracle &oracle, AggregationOptions options)
{
    AggregationResult result;
    result.circuit = circuit;
    for (int round = 0; round < options.maxRounds; ++round) {
        result.rounds = round + 1;
        const Circuit &current = result.circuit;
        const auto &gates = current.gates();
        const std::size_t n = gates.size();
        double base_makespan = asapMakespan(current, oracle);
        struct Action
        {
            std::size_t i, j;
            double gain;
        };
        std::vector<Action> actions;
        for (std::size_t i = 0; i < n; ++i) {
            std::size_t limit = std::min(n, i + 1 + options.mobilityWindow);
            for (std::size_t j = i + 1; j < limit; ++j) {
                if (!overlaps(gates[i], gates[j]))
                    continue;
                if (mergedWidth(gates[i], gates[j]) > options.maxWidth)
                    break;
                if (!canMakeAdjacent(current, i, j, checker))
                    break;
                Circuit merged = applyMerge(current, i, j, checker);
                double makespan = asapMakespan(merged, oracle);
                if (makespan <= base_makespan + 1e-9)
                    actions.push_back({i, j, base_makespan - makespan});
                break;
            }
        }
        if (actions.empty())
            break;
        std::stable_sort(actions.begin(), actions.end(),
                         [](const Action &a, const Action &b) {
                             return a.gain > b.gain;
                         });
        std::vector<std::pair<std::size_t, std::size_t>> chosen;
        for (const Action &a : actions) {
            bool clash = false;
            for (const auto &[ci, cj] : chosen)
                if (a.i <= cj && ci <= a.j) {
                    clash = true;
                    break;
                }
            if (!clash)
                chosen.emplace_back(a.i, a.j);
        }
        std::sort(chosen.begin(), chosen.end());
        Circuit work = result.circuit;
        std::size_t removed = 0;
        bool any = false;
        for (auto [i, j] : chosen) {
            std::size_t wi = i - removed;
            std::size_t wj = j - removed;
            if (!canMakeAdjacent(work, wi, wj, checker))
                continue;
            work = applyMerge(work, wi, wj, checker);
            ++removed;
            ++result.actions;
            any = true;
        }
        result.circuit = std::move(work);
        if (!any)
            break;
    }
    result.circuit = labelAggregates(result.circuit);
    return result;
}

} // namespace reference

/** Full rendering of a gate: kind, qubits, parameters, label, members. */
std::string
describe(const Gate &gate)
{
    std::string out = gate.toString();
    if (gate.kind == GateKind::kAggregate) {
        out += " [" + gate.payload->label + "]{";
        for (const Gate &m : gate.payload->members)
            out += describe(m) + ";";
        out += "}";
    }
    return out;
}

/** Analytic pricing that records every gate it is asked to price. */
class RecordingOracle : public LatencyOracle
{
  public:
    double
    latencyNs(const Gate &gate) override
    {
        priced.push_back(describe(gate));
        return inner_.latencyNs(gate);
    }
    std::string name() const override { return "recording"; }

    std::vector<std::string> priced;

  private:
    AnalyticOracle inner_;
};

/** Counts lookups while forwarding to a wrapped oracle. */
class CountingOracle : public LatencyOracle
{
  public:
    explicit CountingOracle(LatencyOracle &inner) : inner_(inner) {}
    double
    latencyNs(const Gate &gate) override
    {
        ++lookups;
        return inner_.latencyNs(gate);
    }
    std::string name() const override { return "counting"; }

    std::size_t lookups = 0;

  private:
    LatencyOracle &inner_;
};

/** What one aggregation run produced, and what it priced uncached. */
struct AggregationTrace
{
    std::vector<std::string> gates;
    int actions = 0;
    int rounds = 0;
    std::vector<std::string> misses;
};

/** Runs @p aggregate behind a cold CachingOracle over a recording one. */
template <typename AggregateFn>
AggregationTrace
traceAggregation(AggregateFn aggregate, const Circuit &circuit,
                 AggregationOptions options)
{
    auto recorder = std::make_shared<RecordingOracle>();
    CachingOracle cache(recorder);
    CommutationChecker checker;
    AggregationResult result = aggregate(circuit, &checker, cache, options);
    AggregationTrace trace;
    for (const Gate &g : result.circuit.gates())
        trace.gates.push_back(describe(g));
    trace.actions = result.actions;
    trace.rounds = result.rounds;
    trace.misses = recorder->priced;
    return trace;
}

/** Asserts the incremental and reference loops agree on @p circuit. */
void
expectMatchesReference(const Circuit &circuit, AggregationOptions options,
                       const std::string &what)
{
    AggregationTrace want =
        traceAggregation(reference::aggregateInstructions, circuit, options);
    AggregationTrace got =
        traceAggregation(aggregateInstructions, circuit, options);
    EXPECT_EQ(got.gates, want.gates) << what;
    EXPECT_EQ(got.actions, want.actions) << what;
    EXPECT_EQ(got.rounds, want.rounds) << what;
    EXPECT_EQ(got.misses, want.misses) << what;
}

/** @p logical lowered (optionally CLS-contracted) and routed on a grid. */
Circuit
mappedCircuit(const Circuit &logical, bool cls_frontend)
{
    DeviceModel device = DeviceModel::gridFor(logical.numQubits());
    CompilationContext context(device, CompilerOptions{});
    context.reset(logical, cls_frontend ? Strategy::kClsAggregation
                                        : Strategy::kAggregation);
    EXPECT_TRUE(FrontendLoweringPass().run(context).isOk());
    if (cls_frontend) {
        EXPECT_TRUE(ClsFrontendPass().run(context).isOk());
    }
    EXPECT_TRUE(MappingPass().run(context).isOk());
    return context.working;
}

/** One reduced paper workload, routed with or without the CLS frontend. */
class SuiteDifferentialTest
    : public ::testing::TestWithParam<std::tuple<std::string, bool>>
{
};

TEST_P(SuiteDifferentialTest, MatchesFullRebuild)
{
    auto [name, cls_frontend] = GetParam();
    Circuit mapped =
        mappedCircuit(benchmarkByName(name, 0.3).circuit, cls_frontend);
    expectMatchesReference(mapped, AggregationOptions{},
                           name + (cls_frontend ? "/cls" : ""));
}

// One instance per program and frontend, so the slow reference runs
// spread over ctest's workers.
INSTANTIATE_TEST_SUITE_P(
    ReducedPaperSuite, SuiteDifferentialTest,
    ::testing::Combine(
        ::testing::Values<std::string>(
            "MAXCUT-line", "MAXCUT-reg4", "MAXCUT-cluster", "Ising-n30",
            "Ising-n60", "sqrt-n3", "sqrt-n4", "sqrt-n5", "UCCSD-n4",
            "UCCSD-n6"),
        ::testing::Bool()),
    [](const ::testing::TestParamInfo<std::tuple<std::string, bool>> &p) {
        std::string name = std::get<0>(p.param);
        std::replace(name.begin(), name.end(), '-', '_');
        return name + (std::get<1>(p.param) ? "_clsagg" : "_agg");
    });

TEST(AggregationDifferentialTest, SeededRandomCircuitsMatchFullRebuild)
{
    // Mixed and commutation-rich (diagonal) corpora, with width limits
    // and mobility windows small enough to hit every early exit.
    for (std::uint64_t seed = 1; seed <= 60; ++seed) {
        int qubits = 3 + static_cast<int>(seed % 5);
        int gates = 20 + static_cast<int>(seed % 4) * 15;
        Circuit circuit =
            seed % 2 ? testing::randomCircuit(qubits, gates, seed)
                     : testing::randomDiagonalCircuit(qubits, gates, seed);
        AggregationOptions options;
        options.maxWidth = 2 + static_cast<int>(seed % 4);
        options.mobilityWindow = seed % 3 ? 200 : 4;
        expectMatchesReference(circuit, options,
                               "seed " + std::to_string(seed));
    }
}

TEST(AggregationComplexityTest, RoundPricesEachGateOncePlusCandidates)
{
    // A round prices its circuit once (n lookups) and each candidate's
    // merged aggregate once (at most n - 1 candidates). Scoring by
    // re-pricing the whole circuit per candidate costs about n lookups
    // per candidate instead, and fails this bound.
    Circuit mapped =
        mappedCircuit(benchmarkByName("UCCSD-n4").circuit, true);
    const std::size_t n = mapped.size();
    ASSERT_GT(n, 50u);
    auto analytic = std::make_shared<AnalyticOracle>();
    CachingOracle cache(analytic);
    CountingOracle counter(cache);
    CommutationChecker checker;
    AggregationResult result =
        aggregateInstructions(mapped, &checker, counter, {});
    ASSERT_GT(result.actions, 0);
    // The circuit only shrinks, so n bounds every round's size.
    const std::size_t per_round = 2 * n + (n - 1);
    EXPECT_LE(counter.lookups,
              static_cast<std::size_t>(result.rounds) * per_round)
        << "rounds " << result.rounds << ", n " << n;
}

} // namespace
} // namespace qaic
