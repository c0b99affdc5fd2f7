/**
 * @file
 * Instruction aggregation (paper Section 4).
 *
 * Two passes:
 *
 *  - detectDiagonalBlocks (Section 4.2, frontend): finds contiguous runs
 *    of gates supported on a single qubit pair whose product is a
 *    diagonal unitary (the ubiquitous CNOT-Rz-CNOT structures of QAOA and
 *    UCCSD) and contracts each into one aggregated instruction. Diagonal
 *    aggregates mutually commute, which unlocks the scheduling freedom
 *    CLS exploits.
 *
 *  - aggregateInstructions (Section 4.3, backend): repeatedly merges
 *    overlapping instructions that can be made adjacent by exchanges of
 *    commuting neighbours, keeping only *monotonic* actions — those that
 *    do not lengthen the scheduled critical path, with instruction
 *    latencies supplied by the pulse-latency oracle. Each round applies
 *    non-conflicting actions in best-gain-first order and re-evaluates,
 *    mirroring the paper's iterate-with-the-optimal-control-unit loop.
 *
 * A round is incremental. One ASAP sweep prices every gate once into
 * latency and finish-time vectors (plus a suffix maximum of the finish
 * times). A candidate merge (i, j) is then scored without building a
 * circuit: starting from the base schedule's per-qubit frontier before
 * i, the reordered region [i, j] is simulated with the merged aggregate,
 * and later gates are replayed only while some qubit's finish time still
 * differs from the base schedule; from there the base suffix maximum
 * gives the rest of the makespan. The score uses the same adds and maxes
 * as a full ASAP sweep of the merged circuit, so it is bit-identical to
 * one. The chosen merges have disjoint intervals and are applied in one
 * linear rebuild.
 *
 * Oracle traffic per round is one lookup per gate plus one per candidate
 * (its merged aggregate). The sequence of *uncached* pricings is part of
 * the pass's behaviour: CachingOracle keys narrow gates by their rounded
 * unitary and keeps the first latency it prices, so every candidate that
 * passes the overlap, width and adjacency checks prices its merged
 * aggregate, in ascending i, and nothing else new is priced before it.
 */
#ifndef QAIC_AGGREGATE_AGGREGATE_H
#define QAIC_AGGREGATE_AGGREGATE_H

#include <cstddef>

#include "gdg/commute.h"
#include "ir/circuit.h"
#include "oracle/oracle.h"

namespace qaic {

/** Knobs for the backend aggregation pass. */
struct AggregationOptions
{
    /** Maximum qubits per aggregated instruction (optimal-control limit). */
    int maxWidth = 10;
    /** Safety cap on aggregation rounds. */
    int maxRounds = 64;
    /** Mobility search window (list positions) when pairing instructions. */
    std::size_t mobilityWindow = 200;
};

/** Outcome of the backend aggregation pass. */
struct AggregationResult
{
    /** Circuit whose gates are the final aggregated instructions. */
    Circuit circuit;
    /** Number of pairwise merge actions performed. */
    int actions = 0;
    /** Evaluation rounds executed. */
    int rounds = 0;

    AggregationResult() : circuit(1) {}
};

/**
 * Frontend diagonal-unitary detection: contracts 2-qubit-wide diagonal
 * runs (up to @p max_block_gates gates) into aggregated instructions.
 *
 * @param circuit Input logical circuit.
 * @param max_block_gates Longest run considered (paper: ~10).
 * @param blocks_found If non-null, receives the number of contractions.
 * @return Transformed circuit, unitarily identical to the input.
 */
Circuit detectDiagonalBlocks(const Circuit &circuit,
                             int max_block_gates = 10,
                             int *blocks_found = nullptr);

/**
 * Backend monotonic-action instruction aggregation.
 *
 * @param circuit Mapped physical circuit (all gates <= 2 qubits or
 *        aggregates thereof).
 * @param checker Commutativity checker (shared with scheduling).
 * @param oracle Pulse-latency oracle used both for gain evaluation and
 *        for the monotonicity (critical-path) test.
 * @param options Pass configuration.
 */
AggregationResult aggregateInstructions(const Circuit &circuit,
                                        CommutationChecker *checker,
                                        LatencyOracle &oracle,
                                        AggregationOptions options = {});

/** Relabels aggregate instructions as G1, G2, ... in program order. */
Circuit labelAggregates(const Circuit &circuit);

} // namespace qaic

#endif // QAIC_AGGREGATE_AGGREGATE_H
