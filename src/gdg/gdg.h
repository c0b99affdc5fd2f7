/**
 * @file
 * Gate dependence graph (GDG) with per-qubit commutation groups.
 *
 * Unlike a classical program dependence graph, consecutive commuting gates
 * carry no parent-child edge (paper Section 3.3): each qubit maintains an
 * ordered list of commutation groups, and two gates may reorder freely iff
 * they share a group on every common qubit. This structure feeds the
 * commutativity-aware scheduler (CLS) and the aggregation passes.
 *
 * The class also provides the gate-mobility primitive used by instruction
 * aggregation: whether two gates of the underlying circuit can be made
 * adjacent using only exchanges of commuting neighbours (each exchange
 * preserves the circuit unitary exactly).
 */
#ifndef QAIC_GDG_GDG_H
#define QAIC_GDG_GDG_H

#include <vector>

#include "gdg/commute.h"
#include "ir/circuit.h"

namespace qaic {

/** GDG over a flattened circuit. Node ids are circuit gate indices. */
class Gdg
{
  public:
    /**
     * Builds groups for @p circuit; @p checker must outlive the Gdg.
     */
    Gdg(const Circuit &circuit, CommutationChecker *checker);

    int numQubits() const { return circuit_->numQubits(); }
    std::size_t size() const { return circuit_->size(); }
    const Circuit &circuit() const { return *circuit_; }
    const Gate &gate(int id) const { return circuit_->gates()[id]; }

    /**
     * Commutation groups on @p q: ordered list of groups, each an ordered
     * list of node ids. Gates within a group mutually commute.
     */
    const std::vector<std::vector<int>> &groupsOnQubit(int q) const;

    /** Index of the group containing node @p id on qubit @p q. */
    int groupIndexOf(int id, int q) const;

    /**
     * True if the two nodes share a commutation group on every common
     * qubit — i.e. they can be scheduled in either order.
     */
    bool reorderable(int a, int b) const;

    /**
     * Unit-latency depth of the GDG under commutativity-aware greedy
     * scheduling (each group's members still serialize per qubit).
     */
    int depth() const;

  private:
    const Circuit *circuit_;
    CommutationChecker *checker_;
    /** groups_[q] = ordered groups of node ids on qubit q. */
    std::vector<std::vector<std::vector<int>>> groups_;
    /** groupIndex_[id][k] = group of node id on its k-th qubit. */
    std::vector<std::vector<int>> groupIndex_;
};

/** Which gate of a pair i < j moves to make the two adjacent. */
enum class AdjacentMove
{
    kNone,   ///< Neither can move: the pair cannot be made adjacent.
    kJLeft,  ///< Gate j moves left next to i (also when j == i + 1).
    kIRight, ///< Gate i moves right next to j.
};

/**
 * How gates at positions @p i < @p j of @p circuit can be made adjacent
 * by commuting-neighbour exchanges: gate j moves left if it commutes
 * with every gate strictly between, otherwise gate i moves right if it
 * does. Each side's commutation range is evaluated at most once.
 */
AdjacentMove adjacentMove(const Circuit &circuit, std::size_t i,
                          std::size_t j, CommutationChecker *checker);

/**
 * True if gates at positions @p i < @p j of @p circuit can be made
 * adjacent by commuting-neighbour exchanges (adjacentMove is not kNone).
 */
bool canMakeAdjacent(const Circuit &circuit, std::size_t i, std::size_t j,
                     CommutationChecker *checker);

/**
 * Returns a copy of @p circuit in which gates @p i and @p j have been made
 * adjacent (at position pair determined by adjacentMove); requires
 * canMakeAdjacent. The result is unitarily identical to the input.
 *
 * @param merged_at Receives the index of the first of the now-adjacent
 *        pair in the returned circuit.
 */
Circuit makeAdjacent(const Circuit &circuit, std::size_t i, std::size_t j,
                     CommutationChecker *checker, std::size_t *merged_at);

} // namespace qaic

#endif // QAIC_GDG_GDG_H
