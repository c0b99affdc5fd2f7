/**
 * @file
 * Structured diagnostics emitted by the abstract-interpretation
 * dataflow analyzer (analysis/analyzer.h).
 *
 * A Diagnostic is a machine-checkable claim about a circuit: a gate
 * that provably does nothing on the reachable state, a rotation whose
 * angle folds to zero, a control that is classically dead, a redundant
 * self-inverse pair, a register that splits into non-interacting
 * parts. Claims that come with a SuggestedFix are *adversarially
 * cross-checked* by the equivalence engine (verify/verify.h) before
 * the analyzer reports them: the fix is applied to a copy of the
 * circuit and the result proven equivalent to the original (as a full
 * unitary, or as an action on the all-zeros initial state, depending
 * on VerificationMode). A claim the engine refutes is recorded with
 * `verified == false` and counted in AnalysisReport::failedVerification
 * — the analyzer, the diagnostics and the verifier keep each other
 * honest, and a refuted claim is itself a test/CI failure.
 */
#ifndef QAIC_ANALYSIS_DIAGNOSTICS_H
#define QAIC_ANALYSIS_DIAGNOSTICS_H

#include <string>
#include <vector>

#include "ir/circuit.h"
#include "ir/gate.h"
#include "util/json.h" // jsonEscape, kept visible to includers of this header

namespace qaic {

/** The catalogue of findings the analyzer can emit. */
enum class DiagnosticKind
{
    /** Gate provably acts as a (global-phase) identity on the state
     *  reachable from |0...0> — deleting it preserves the program. */
    kRemovableGate,
    /** Parametric rotation whose angle folds to 0 (mod 2pi): a
     *  projective identity as a unitary, removable anywhere. */
    kIdentityRotation,
    /** Controlled gate whose control qubit is provably |0> at this
     *  program point — the controlled action never fires. */
    kDeadControl,
    /** A gate and a later adjoint partner with only commuting gates
     *  between them: the pair cancels as a unitary. */
    kSelfInversePair,
    /** Two rotations landing on the same wire parity within one
     *  affine+diagonal segment: their angles fold into one gate. */
    kMergeableRotation,
    /** Qubit ends in a known non-|0> state: reusing it as a fresh
     *  ancilla without a reset would be unsound. */
    kAncillaNotReset,
    /** The interacting qubits split into >= 2 groups no gate ever
     *  couples: the register is provably separable. */
    kSplittableRegister,
    /** Qubit provably remains in |0> at every program point. */
    kConstantQubit,
};

/** Stable kebab-case name ("removable-gate", "dead-control", ...). */
std::string diagnosticKindName(DiagnosticKind kind);

/** What the equivalence engine must prove about a SuggestedFix. */
enum class VerificationMode
{
    /** Informational finding; nothing to verify. */
    kNone,
    /** The fixed circuit equals the original as a unitary (up to
     *  global phase) — checked with analyzeCircuitsEquivalent. */
    kUnitary,
    /** The fixed circuit equals the original on the |0...0> initial
     *  state (up to global phase) — checked with
     *  analyzeZeroStateEquivalent. State-dependent claims (dead
     *  controls, absorbed gates) are generally *not* unitary
     *  equivalences. */
    kInitialState,
};

/** Name for reports ("none", "unitary", "initial-state"). */
std::string verificationModeName(VerificationMode mode);

/** The concrete rewrite a diagnostic proposes. */
struct SuggestedFix
{
    /** Gate indices to delete (ascending). */
    std::vector<int> removeGates;
    /** Gates to insert at the position of the first removed gate
     *  (e.g. the merged rotation of a kMergeableRotation). */
    std::vector<Gate> insertGates;
    /** Human-readable rendering ("delete gate 12"). */
    std::string description;

    bool empty() const { return removeGates.empty(); }
};

/** One analyzer finding. */
struct Diagnostic
{
    DiagnosticKind kind = DiagnosticKind::kRemovableGate;
    /** Primary gate index; -1 for register-level findings. */
    int gateIndex = -1;
    /** Every gate involved (both members of a pair, ...). */
    std::vector<int> gateIndices;
    /** Qubits the finding is about. */
    std::vector<int> qubits;
    /** Which domain proved it and why ("classical domain: control q3
     *  is |0>"). */
    std::string evidence;
    /** Proposed rewrite; empty for informational findings. */
    SuggestedFix fix;
    /** True when the fix claims to preserve program semantics. */
    bool removable = false;
    /** What the engine must prove about the fix. */
    VerificationMode mode = VerificationMode::kNone;
    /** True once the equivalence engine confirmed the claim. */
    bool verified = false;
    /** Engine method that confirmed (or refuted) it ("clifford",
     *  "dense-zero-state", ...); empty when unverified. */
    std::string verifyMethod;

    /** One-line rendering for the CLI report. */
    std::string toString() const;
};

/** Everything one analyzer run over one circuit produced. */
struct AnalysisReport
{
    /** Pipeline stage the analysis ran at ("logical", "routed"). */
    std::string stage;
    int numQubits = 0;
    std::size_t gateCount = 0;
    std::vector<Diagnostic> diagnostics;
    /**
     * Removable claims dropped because no engine tier could decide
     * them (register too wide for the dense check, circuit outside
     * every symbolic domain). The analyzer only *emits* machine-
     * verified claims; this counter keeps the suppression visible.
     */
    int suppressedUnverifiable = 0;
    /**
     * Claims the engine refuted. Always 0 for a sound analyzer: any
     * non-zero value is an analyzer bug and fails tests and CI.
     */
    int failedVerification = 0;

    /** True when no emitted claim was refuted. */
    bool allVerified() const { return failedVerification == 0; }

    /** Findings of @p kind. */
    int countKind(DiagnosticKind kind) const;

    /** Number of distinct kinds present. */
    int distinctKinds() const;

    /** Multi-line human-readable report. */
    std::string toString() const;

    /** JSON object (machine-readable CI artifact). */
    std::string toJson() const;
};

/**
 * Applies @p fix to a copy of @p circuit: removes fix.removeGates and
 * splices fix.insertGates at the position of the first removed gate.
 * This is the exact transformation the verifier checks, factored out
 * so tests and future rewrite passes apply precisely what was proven.
 */
Circuit applySuggestedFix(const Circuit &circuit, const SuggestedFix &fix);

/** Outcome of a batched applySuggestedFixes application. */
struct AppliedFixes
{
    /** The rewritten circuit (== input when nothing applied). */
    Circuit circuit{1};
    /** Fixes actually applied, in ascending first-removal order. */
    std::vector<SuggestedFix> applied;
    /** Fixes deferred because they overlap an accepted fix. Their
     *  indices still refer to the *original* circuit; re-run the
     *  analyzer (or re-map the indices) before applying them. */
    std::vector<SuggestedFix> deferred;
};

/**
 * Applies a *batch* of fixes against one snapshot of @p circuit.
 *
 * Every SuggestedFix indexes the circuit the analyzer saw. Applying
 * one fix splices the gate list, so feeding a second fix through
 * applySuggestedFix afterwards operates on stale indices — it deletes
 * the wrong gates (or trips the bounds check) and miscompiles. This
 * entry point is the safe plural form: fixes are ordered by first
 * removal index, fixes whose removeGates overlap an already-accepted
 * fix are deferred (never misapplied), and all accepted fixes are
 * applied in ONE pass over the original gate list, each splicing its
 * insertGates at its own first removal site.
 *
 * Only the per-fix rewrites proven by the analyzer are applied, but
 * joint application of independently-verified fixes is not itself
 * machine-checked here — callers that need end-to-end certainty (the
 * optimizer's peephole pass does) re-verify the returned circuit
 * against the original with the equivalence engine.
 */
AppliedFixes applySuggestedFixes(const Circuit &circuit,
                                 const std::vector<SuggestedFix> &fixes);

} // namespace qaic

#endif // QAIC_ANALYSIS_DIAGNOSTICS_H
