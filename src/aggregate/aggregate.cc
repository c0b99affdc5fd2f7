#include "aggregate/aggregate.h"

#include <algorithm>
#include <set>

#include "gdg/gdg.h"
#include "ir/embed.h"
#include "util/logging.h"

namespace qaic {

namespace {

/** Flattens nested aggregates into a plain member list. */
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

/** Longest label we compose before eliding the tail. */
constexpr std::size_t kMaxLabelLength = 64;

/** Provenance name of a merge operand: its label for aggregates. */
std::string
provenanceLabel(const Gate &gate)
{
    if (gate.kind == GateKind::kAggregate && gate.payload &&
        !gate.payload->label.empty())
        return gate.payload->label;
    return gate.name();
}

/** Bounds a composed label, keeping a readable prefix. */
std::string
boundLabel(std::string label)
{
    if (label.size() > kMaxLabelLength)
        label = label.substr(0, kMaxLabelLength - 1) + "~";
    return label;
}

/** Merged aggregate of two instructions (first acts first). */
Gate
mergeGates(const Gate &first, const Gate &second)
{
    std::vector<Gate> members;
    collectMembers(first, &members);
    collectMembers(second, &members);
    // Compose the label from the operands' provenance ("cnot+rz+cnot")
    // instead of the old constant "agg", which erased the constituent
    // labels from diagnostics and schedules with every merge.
    std::string label = boundLabel(provenanceLabel(first) + "+" +
                                   provenanceLabel(second));
    // Eager matrices only for pair-width aggregates (cheap, and enables
    // the diagonal commutation rule); wider ones stay lazy — the analytic
    // oracle prices them from members alone.
    return makeAggregate(std::move(members), std::move(label), 2);
}

/** True if the two gates share at least one qubit. */
bool
overlaps(const Gate &a, const Gate &b)
{
    for (int q : a.qubits)
        if (b.actsOn(q))
            return true;
    return false;
}

/**
 * Support size of the union of two gates' supports. A gate's own qubits
 * are distinct (the gate constructors check it).
 */
int
mergedWidth(const Gate &a, const Gate &b)
{
    int width = a.width();
    for (int q : b.qubits)
        width += !a.actsOn(q);
    return width;
}

/**
 * Starts @p gate once all its qubits are free, marks them busy until it
 * finishes in @p free_at, and returns that finish time.
 */
double
placeAsap(const Gate &gate, double latency, std::vector<double> &free_at)
{
    double start = 0.0;
    for (int q : gate.qubits)
        start = std::max(start, free_at[q]);
    double fin = start + latency;
    for (int q : gate.qubits)
        free_at[q] = fin;
    return fin;
}

/**
 * One round's ASAP schedule of the current circuit, each gate priced
 * once, kept for scoring every candidate merge of the round.
 */
struct BaseSchedule
{
    std::vector<double> latency;
    std::vector<double> finish;
    /** suffixMax[k] = max(0, finish[k..n)); suffixMax[0] is the makespan. */
    std::vector<double> suffixMax;

    void
    price(const Circuit &circuit, LatencyOracle &oracle)
    {
        const auto &gates = circuit.gates();
        const std::size_t n = gates.size();
        std::vector<double> free_at(circuit.numQubits(), 0.0);
        latency.resize(n);
        finish.resize(n);
        for (std::size_t k = 0; k < n; ++k) {
            latency[k] = oracle.latencyNs(gates[k]);
            finish[k] = placeAsap(gates[k], latency[k], free_at);
        }
        suffixMax.assign(n + 1, 0.0);
        for (std::size_t k = n; k-- > 0;)
            suffixMax[k] = std::max(suffixMax[k + 1], finish[k]);
    }
};

/**
 * ASAP makespan of @p gates after merging @p gates[i] and @p gates[j]
 * into @p merged (placed where @p move puts the pair), without building
 * that circuit. Gates before i keep their base finish times
 * (@p prefix_max) and leave the base frontier @p front. The reordered
 * region [i, j] is simulated with the merged aggregate; later gates are
 * replayed only while some qubit's finish time differs from the base
 * schedule's, after which the base suffix maximum gives the rest. Every
 * finish time is formed by the same adds and maxes as a full ASAP sweep
 * of the merged circuit, so the result is bit-identical to one. The
 * merged aggregate is the only gate priced.
 */
double
mergedMakespan(const std::vector<Gate> &gates, const BaseSchedule &base,
               const std::vector<double> &front, double prefix_max,
               std::size_t i, std::size_t j, AdjacentMove move,
               const Gate &merged, LatencyOracle &oracle)
{
    std::vector<double> mine = front;
    std::vector<double> theirs = front;
    double makespan = prefix_max;
    auto place = [&](const Gate &g, double latency) {
        makespan = std::max(makespan, placeAsap(g, latency, mine));
    };
    if (move == AdjacentMove::kJLeft)
        place(merged, oracle.latencyNs(merged));
    for (std::size_t k = i + 1; k < j; ++k)
        place(gates[k], base.latency[k]);
    if (move == AdjacentMove::kIRight)
        place(merged, oracle.latencyNs(merged));
    for (std::size_t k = i; k <= j; ++k)
        for (int q : gates[k].qubits)
            theirs[q] = base.finish[k];

    std::size_t differing = 0;
    for (std::size_t q = 0; q < mine.size(); ++q)
        differing += mine[q] != theirs[q];
    std::size_t k = j + 1;
    for (; differing > 0 && k < gates.size(); ++k) {
        const Gate &g = gates[k];
        for (int q : g.qubits)
            differing -= mine[q] != theirs[q];
        place(g, base.latency[k]);
        for (int q : g.qubits) {
            theirs[q] = base.finish[k];
            differing += mine[q] != theirs[q];
        }
    }
    return std::max(makespan, base.suffixMax[k]);
}

} // namespace

Circuit
detectDiagonalBlocks(const Circuit &circuit, int max_block_gates,
                     int *blocks_found)
{
    const auto &gates = circuit.gates();
    const std::size_t n = gates.size();
    std::vector<bool> consumed(n, false);
    int found = 0;

    // For each unconsumed gate, grow the maximal contiguous run supported
    // on a single pair (gates on disjoint qubits may interleave freely),
    // then contract its longest diagonal prefix-run.
    std::vector<std::vector<Gate>> replacement(n);
    for (std::size_t i = 0; i < n; ++i) {
        if (consumed[i] || gates[i].width() > 2)
            continue;

        std::set<int> support(gates[i].qubits.begin(),
                              gates[i].qubits.end());
        std::vector<std::size_t> run{i};
        for (std::size_t j = i + 1;
             j < n && run.size() < static_cast<std::size_t>(max_block_gates);
             ++j) {
            if (consumed[j]) {
                // A consumed gate's position was vacated (its block
                // moved it to the block's emit site), so there is
                // nothing here to reorder against — except at the emit
                // site itself, where the whole earlier block now sits.
                // Members collected so far would slide across it, and
                // that is only sound when the two blocks' supports are
                // disjoint: the earlier block's support can contain
                // qubits it picked up *after* scanning past our
                // members, so no per-gate check along the way covers
                // this crossing.
                if (!replacement[j].empty()) {
                    bool overlap = false;
                    for (int q : replacement[j].front().qubits)
                        if (support.count(q))
                            overlap = true;
                    if (overlap)
                        break;
                }
                continue;
            }
            bool disjoint = true;
            for (int q : gates[j].qubits)
                if (support.count(q))
                    disjoint = false;
            if (disjoint)
                continue;
            std::set<int> merged = support;
            merged.insert(gates[j].qubits.begin(), gates[j].qubits.end());
            if (merged.size() > 2)
                break;
            support = std::move(merged);
            run.push_back(j);
        }
        if (run.size() < 2 || support.size() != 2)
            continue;

        // Longest run prefix whose product is diagonal.
        std::vector<int> reg(support.begin(), support.end());
        CMatrix acc = CMatrix::identity(4);
        std::size_t best_end = 0; // Exclusive; 0 = none.
        for (std::size_t k = 0; k < run.size(); ++k) {
            const Gate &g = gates[run[k]];
            acc = embedUnitary(g.matrix(), g.qubits, reg) * acc;
            if (acc.isDiagonal(1e-9))
                best_end = k + 1;
        }
        if (best_end < 2)
            continue;
        bool has_two_qubit = false;
        for (std::size_t k = 0; k < best_end; ++k)
            if (gates[run[k]].width() == 2)
                has_two_qubit = true;
        if (!has_two_qubit)
            continue;

        std::vector<Gate> members;
        for (std::size_t k = 0; k < best_end; ++k) {
            members.push_back(gates[run[k]]);
            consumed[run[k]] = true;
        }
        // The contraction sits at the position of the last member; every
        // skipped gate in between was disjoint from the block's support,
        // so the reordering is exact.
        replacement[run[best_end - 1]] = {
            makeAggregate(std::move(members), "dblk")};
        ++found;
    }

    Circuit out(circuit.numQubits());
    for (std::size_t i = 0; i < n; ++i) {
        if (!replacement[i].empty()) {
            for (Gate &g : replacement[i])
                out.add(std::move(g));
        } else if (!consumed[i]) {
            out.add(gates[i]);
        }
    }
    if (blocks_found)
        *blocks_found = found;
    return out;
}

AggregationResult
aggregateInstructions(const Circuit &circuit, CommutationChecker *checker,
                      LatencyOracle &oracle, AggregationOptions options)
{
    QAIC_CHECK(checker != nullptr);
    AggregationResult result;
    result.circuit = circuit;
    BaseSchedule base;

    for (int round = 0; round < options.maxRounds; ++round) {
        result.rounds = round + 1;
        const Circuit &current = result.circuit;
        const auto &gates = current.gates();
        const std::size_t n = gates.size();
        base.price(current, oracle);
        const double base_makespan = base.suffixMax[0];

        // Candidate actions: each instruction pairs with the nearest later
        // instruction sharing a qubit (its GDG child), if movable next to
        // it and within the width limit. Monotonicity = the merged
        // circuit's critical path does not grow (Section 4.3).
        struct Action
        {
            std::size_t i, j;
            double gain;
            AdjacentMove move;
        };
        std::vector<Action> actions;
        std::vector<double> front(current.numQubits(), 0.0);
        double prefix_max = 0.0;
        for (std::size_t i = 0; i < n; ++i) {
            std::size_t limit = std::min(n, i + 1 + options.mobilityWindow);
            for (std::size_t j = i + 1; j < limit; ++j) {
                if (!overlaps(gates[i], gates[j]))
                    continue;
                if (mergedWidth(gates[i], gates[j]) > options.maxWidth)
                    break; // Nearest partner too wide; stop pairing i.
                AdjacentMove move = adjacentMove(current, i, j, checker);
                if (move == AdjacentMove::kNone)
                    break;
                double makespan = mergedMakespan(
                    gates, base, front, prefix_max, i, j, move,
                    mergeGates(gates[i], gates[j]), oracle);
                if (makespan <= base_makespan + 1e-9)
                    actions.push_back({i, j, base_makespan - makespan, move});
                break; // Only pair with the nearest overlapping partner.
            }
            for (int q : gates[i].qubits)
                front[q] = base.finish[i];
            prefix_max = std::max(prefix_max, base.finish[i]);
        }
        if (actions.empty())
            break;

        // Apply a best-gain-first subset of actions whose [i, j] intervals
        // are pairwise disjoint. A merge confines all moves to its own
        // interval, so every chosen merge reads the same gates and
        // direction it was scored with, and one rebuild applies them all.
        std::stable_sort(actions.begin(), actions.end(),
                         [](const Action &a, const Action &b) {
                             return a.gain > b.gain;
                         });
        std::vector<const Action *> chosen;
        for (const Action &a : actions) {
            bool clash = false;
            for (const Action *c : chosen)
                if (a.i <= c->j && c->i <= a.j) {
                    clash = true;
                    break;
                }
            if (!clash)
                chosen.push_back(&a);
        }
        std::sort(chosen.begin(), chosen.end(),
                  [](const Action *a, const Action *b) {
                      return a->i < b->i;
                  });

        Circuit next(current.numQubits());
        std::size_t k = 0;
        for (const Action *a : chosen) {
            for (; k < a->i; ++k)
                next.add(gates[k]);
            // The moving gate leaves its slot; the merged pair takes the
            // slot of the one that stays.
            std::size_t merge_at =
                a->move == AdjacentMove::kJLeft ? a->i : a->j;
            for (; k <= a->j; ++k) {
                if (k == merge_at)
                    next.add(mergeGates(gates[a->i], gates[a->j]));
                else if (k != a->i && k != a->j)
                    next.add(gates[k]);
            }
        }
        for (; k < n; ++k)
            next.add(gates[k]);
        result.actions += static_cast<int>(chosen.size());
        result.circuit = std::move(next);
    }

    result.circuit = labelAggregates(result.circuit);
    return result;
}

Circuit
labelAggregates(const Circuit &circuit)
{
    Circuit out(circuit.numQubits());
    int counter = 0;
    for (const Gate &g : circuit.gates()) {
        if (g.kind == GateKind::kAggregate) {
            auto payload = std::make_shared<AggregatePayload>(*g.payload);
            // Number the aggregate but keep the member provenance the
            // merge pass composed ("G1:cnot+rz+cnot"), so diagnostics
            // and schedules still show what the instruction contains.
            std::string id = "G" + std::to_string(++counter);
            payload->label = payload->label.empty()
                                 ? id
                                 : boundLabel(id + ":" + payload->label);
            Gate relabeled = g;
            relabeled.payload = std::move(payload);
            out.add(std::move(relabeled));
        } else {
            out.add(g);
        }
    }
    return out;
}

} // namespace qaic
