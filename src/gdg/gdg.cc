#include "gdg/gdg.h"

#include <algorithm>

#include "util/logging.h"

namespace qaic {

Gdg::Gdg(const Circuit &circuit, CommutationChecker *checker)
    : circuit_(&circuit), checker_(checker)
{
    QAIC_CHECK(checker_ != nullptr);
    const int n = circuit.numQubits();
    groups_.assign(n, {});
    groupIndex_.assign(circuit.size(), {});

    for (std::size_t id = 0; id < circuit.size(); ++id) {
        const Gate &g = circuit.gates()[id];
        groupIndex_[id].resize(g.qubits.size());
        for (std::size_t k = 0; k < g.qubits.size(); ++k) {
            int q = g.qubits[k];
            auto &qgroups = groups_[q];
            bool joins = false;
            if (!qgroups.empty()) {
                // Join the open group iff g commutes with all its members.
                joins = true;
                for (int member : qgroups.back()) {
                    if (!checker_->commute(circuit.gates()[member], g)) {
                        joins = false;
                        break;
                    }
                }
            }
            if (!joins)
                qgroups.emplace_back();
            qgroups.back().push_back(static_cast<int>(id));
            groupIndex_[id][k] = static_cast<int>(qgroups.size()) - 1;
        }
    }
}

const std::vector<std::vector<int>> &
Gdg::groupsOnQubit(int q) const
{
    QAIC_CHECK(q >= 0 && q < numQubits());
    return groups_[q];
}

int
Gdg::groupIndexOf(int id, int q) const
{
    const Gate &g = gate(id);
    for (std::size_t k = 0; k < g.qubits.size(); ++k)
        if (g.qubits[k] == q)
            return groupIndex_[id][k];
    QAIC_PANIC() << "node " << id << " does not act on qubit " << q;
}

bool
Gdg::reorderable(int a, int b) const
{
    const Gate &ga = gate(a);
    for (int q : ga.qubits) {
        if (!gate(b).actsOn(q))
            continue;
        if (groupIndexOf(a, q) != groupIndexOf(b, q))
            return false;
    }
    return true;
}

int
Gdg::depth() const
{
    // Greedy level assignment honouring group order per qubit: a node can
    // start once every node in strictly earlier groups (on each of its
    // qubits) has a level, taking the max.
    std::vector<int> level(size(), 0);
    for (std::size_t id = 0; id < size(); ++id) {
        int start = 0;
        const Gate &g = gate(id);
        for (int q : g.qubits) {
            int my_group = groupIndexOf(static_cast<int>(id), q);
            const auto &qgroups = groups_[q];
            for (int gi = 0; gi < my_group; ++gi)
                for (int member : qgroups[gi])
                    start = std::max(start, level[member]);
            // Same-group members scheduled earlier still occupy the qubit.
            for (int member : qgroups[my_group]) {
                if (member < static_cast<int>(id))
                    start = std::max(start, level[member]);
            }
        }
        level[id] = start + 1;
    }
    int depth = 0;
    for (int l : level)
        depth = std::max(depth, l);
    return depth;
}

namespace {

/** True if gate @p who commutes with every gate in positions (i, j). */
bool
commutesWithRange(const Circuit &circuit, const Gate &who, std::size_t i,
                  std::size_t j, CommutationChecker *checker)
{
    for (std::size_t k = i + 1; k < j; ++k)
        if (!checker->commute(who, circuit.gates()[k]))
            return false;
    return true;
}

} // namespace

AdjacentMove
adjacentMove(const Circuit &circuit, std::size_t i, std::size_t j,
             CommutationChecker *checker)
{
    QAIC_CHECK_LT(i, j);
    QAIC_CHECK_LT(j, circuit.size());
    if (j == i + 1 ||
        commutesWithRange(circuit, circuit.gates()[j], i, j, checker))
        return AdjacentMove::kJLeft;
    if (commutesWithRange(circuit, circuit.gates()[i], i, j, checker))
        return AdjacentMove::kIRight;
    return AdjacentMove::kNone;
}

bool
canMakeAdjacent(const Circuit &circuit, std::size_t i, std::size_t j,
                CommutationChecker *checker)
{
    return adjacentMove(circuit, i, j, checker) != AdjacentMove::kNone;
}

Circuit
makeAdjacent(const Circuit &circuit, std::size_t i, std::size_t j,
             CommutationChecker *checker, std::size_t *merged_at)
{
    AdjacentMove move = adjacentMove(circuit, i, j, checker);
    QAIC_CHECK(move != AdjacentMove::kNone);
    Circuit out(circuit.numQubits());
    const auto &gates = circuit.gates();
    const bool move_j_left = move == AdjacentMove::kJLeft;

    for (std::size_t k = 0; k < circuit.size(); ++k) {
        if (move_j_left) {
            if (k == i) {
                out.add(gates[i]);
                out.add(gates[j]);
                if (merged_at)
                    *merged_at = out.size() - 2;
                continue;
            }
            if (k == j)
                continue;
            out.add(gates[k]);
        } else {
            if (k == i)
                continue;
            if (k == j) {
                out.add(gates[i]);
                out.add(gates[j]);
                if (merged_at)
                    *merged_at = out.size() - 2;
                continue;
            }
            out.add(gates[k]);
        }
    }
    return out;
}

} // namespace qaic
