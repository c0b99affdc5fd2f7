/**
 * @file
 * Abstract-interpretation dataflow analyzer over the gate list.
 *
 * One in-order pass runs the cooperating abstract domains of
 * analysis/domains.h — classical constant propagation, the stabilizer
 * prefix, rotation folding, entanglement partitioning — and turns what
 * they prove into structured Diagnostics (analysis/diagnostics.h).
 *
 * Every removable claim is then adversarially cross-checked by the
 * equivalence engine before it is reported:
 *
 *  - unitary claims (identity rotations, adjoint pairs, rotation
 *    folds) through analyzeCircuitsEquivalent on their removal window
 *    only (verifyUnitaryClaim): the gates from the fix's first to its
 *    last removed index, against the same slice with the fix applied.
 *    That is exact, not a heuristic — the circuit is S.W.P and the
 *    fixed one S.W'.P, so they agree up to global phase iff W and W'
 *    do — and a window of a few gates costs far less than a proof over
 *    the whole gate list;
 *  - state claims (dead controls, gates absorbed by the reachable
 *    state) through analyzeZeroStateEquivalent — symbolically where
 *    the circuit is Clifford or affine+diagonal, and otherwise through
 *    ONE batched dense simulation: a gate fixes the prefix state iff
 *    the running state and its image under the gate overlap with
 *    magnitude 1, so all dense state claims cost a single pass over
 *    the circuit plus one small-gate application per claim.
 *
 * Claims no engine tier can decide are *suppressed* (counted in
 * AnalysisReport::suppressedUnverifiable) — the analyzer only ever
 * reports machine-verified claims. A claim the engine refutes is
 * reported with `verified == false` and counted in
 * failedVerification: that is an analyzer bug, and tests and CI treat
 * it as a failure.
 */
#ifndef QAIC_ANALYSIS_ANALYZER_H
#define QAIC_ANALYSIS_ANALYZER_H

#include <string>

#include "analysis/diagnostics.h"
#include "ir/circuit.h"
#include "verify/verify.h"

namespace qaic {

class CommutationChecker;

/** Knobs of the dataflow analyzer. */
struct AnalysisOptions
{
    /** Stage label stamped on the report ("logical", "routed", ...). */
    std::string stage = "logical";
    /**
     * Cross-check every removable claim with the equivalence engine
     * (the default). Turning this off is for callers that verify the
     * claims they use themselves: differential tests that re-verify
     * externally, benchmarks, and the optimizer's analyzer seed, which
     * proves only the unitary claims it can apply (verifyUnitaryClaim).
     */
    bool verify = true;
    /** Longest backwards commuting walk for adjoint-pair detection. */
    int cancellationWindow = 64;
    /**
     * Emit informational findings (constant-qubit, ancilla-not-reset,
     * splittable-register) in addition to removable claims.
     */
    bool informational = true;
    /** Engine knobs for the cross-checks. */
    EquivalenceOptions equivalence;
};

/**
 * Proves the unitary claim @p fix on its removal window: the gates
 * [lo, hi] of @p circuit, where lo and hi are the fix's first and last
 * removed indices, against the same slice with the fix applied, both
 * on the full register width. This decides the same property as a
 * proof over the whole circuit (see the file comment); the engine
 * method that reaches the verdict may differ, since a window can be
 * Clifford or diagonal where the whole circuit is not.
 */
EquivalenceReport verifyUnitaryClaim(const Circuit &circuit,
                                     const SuggestedFix &fix,
                                     const EquivalenceOptions &options = {});

/**
 * Runs the dataflow analysis over @p circuit. @p checker (optional) is
 * a shared memoizing commutation checker; the analyzer owns a private
 * one when null.
 */
AnalysisReport analyzeCircuit(const Circuit &circuit,
                              const AnalysisOptions &options = {},
                              CommutationChecker *checker = nullptr);

} // namespace qaic

#endif // QAIC_ANALYSIS_ANALYZER_H
