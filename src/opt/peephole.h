/**
 * @file
 * Commutation-aware peephole optimizer.
 *
 * Runs to a local fixpoint over the gate list:
 *
 *  - inverse-pair cancellation: gate i is slid rightward past gates it
 *    commutes with (gdg/commute.h) until it meets a gate on the same
 *    support whose product with it is a (global-phase) identity — the
 *    pair is deleted. The commuting slide makes the deletion a sound
 *    unitary rewrite; the identity test is an exact matrix check on the
 *    joint support, so no rule table can drift out of sync with the
 *    gate semantics.
 *  - rotation merging: two same-kind rotations (rx/ry/rz/rzz) on the
 *    same qubits with only commuting gates between them fold into one
 *    gate with the summed angle (an exact operator identity), or
 *    vanish entirely when the angles cancel mod 2 pi.
 *  - identity-window erasure: a single-qubit window whose *product*
 *    multiplies out to a global-phase identity (H.X.H.Z, say) is
 *    deleted whole, even when no two of its gates cancel pairwise —
 *    composite identities otherwise block two-qubit cancellations
 *    across them indefinitely.
 *  - analyzer seeding (optional): the dataflow analyzer's unitary
 *    SuggestedFixes, each proven on its removal window
 *    (verifyUnitaryClaim), are applied as a batch through
 *    applySuggestedFixes; the batched result is re-proven against the
 *    input by the equivalence engine and dropped to a single fix when
 *    the joint application cannot be proven. State claims are never
 *    applied, so the seed does not verify them.
 *
 * Every rewrite is therefore individually machine-checked before it is
 * committed; the never-worse guarantee is structural (rewrites only
 * ever delete or fuse gates).
 */
#ifndef QAIC_OPT_PEEPHOLE_H
#define QAIC_OPT_PEEPHOLE_H

#include "ir/circuit.h"
#include "opt/options.h"

namespace qaic {

class CommutationChecker;

/** What one runPeephole call did. */
struct PeepholeStats
{
    int cancelledPairs = 0;
    int mergedRotations = 0;
    int erasedIdentityWindows = 0;
    int analyzerFixesApplied = 0;

    bool changed() const
    {
        return cancelledPairs != 0 || mergedRotations != 0 ||
               erasedIdentityWindows != 0 || analyzerFixesApplied != 0;
    }
};

/**
 * Optimizes @p circuit in place to a peephole fixpoint.
 *
 * @param circuit Circuit to rewrite (logical stage, lowered alphabet;
 *        aggregates are handled opaquely via their explicit unitary).
 * @param options Window size and analyzer-seed toggle.
 * @param checker Shared memoizing commutation checker.
 * @param seed_with_analyzer Run the analyzer-fix seeding step (callers
 *        disable it on repeat invocations within one pass suite).
 */
PeepholeStats runPeephole(Circuit &circuit, const OptimizerOptions &options,
                          CommutationChecker &checker,
                          bool seed_with_analyzer);

} // namespace qaic

#endif // QAIC_OPT_PEEPHOLE_H
