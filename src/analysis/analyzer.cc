#include "analysis/analyzer.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <sstream>

#include "analysis/domains.h"
#include "gdg/commute.h"
#include "sim/statevector.h"
#include "sim/tableau.h"
#include "util/logging.h"

namespace qaic {

namespace {

constexpr double kTwoPi = 6.283185307179586476925286766559;

bool
angleIsZeroMod2Pi(double theta, double tol = 1e-9)
{
    double r = std::fmod(theta, kTwoPi);
    if (r > kTwoPi / 2.0)
        r -= kTwoPi;
    else if (r <= -kTwoPi / 2.0)
        r += kTwoPi;
    return std::abs(r) < tol;
}

bool
isRotationGate(GateKind kind)
{
    return kind == GateKind::kRx || kind == GateKind::kRy ||
           kind == GateKind::kRz || kind == GateKind::kRzz;
}

Diagnostic
removalClaim(DiagnosticKind kind, int gate_index, const Gate &gate,
             std::string evidence, VerificationMode mode)
{
    Diagnostic d;
    d.kind = kind;
    d.gateIndex = gate_index;
    d.gateIndices = {gate_index};
    d.qubits = gate.qubits;
    d.evidence = std::move(evidence);
    d.fix.removeGates = {gate_index};
    d.fix.description = "delete gate " + std::to_string(gate_index);
    d.removable = true;
    d.mode = mode;
    return d;
}

Diagnostic
foldClaim(const FoldFinding &fold, const Circuit &circuit)
{
    Diagnostic d;
    d.gateIndex = fold.second;
    d.gateIndices = {fold.first, fold.second};
    d.qubits = circuit.gates()[fold.second].qubits;
    d.evidence = "folding domain: " + fold.reason;
    d.fix.removeGates = {fold.first, fold.second};
    d.removable = true;
    d.mode = VerificationMode::kUnitary;
    switch (fold.kind) {
      case FoldFinding::Kind::kAdjointPair:
        d.kind = DiagnosticKind::kSelfInversePair;
        d.fix.description = "delete gates " +
                            std::to_string(fold.first) + " and " +
                            std::to_string(fold.second);
        break;
      case FoldFinding::Kind::kZeroFold:
        d.kind = DiagnosticKind::kIdentityRotation;
        d.fix.description = "delete gates " +
                            std::to_string(fold.first) + " and " +
                            std::to_string(fold.second) +
                            " (net angle 0 mod 2pi)";
        break;
      case FoldFinding::Kind::kMerge:
        d.kind = DiagnosticKind::kMergeableRotation;
        d.fix.insertGates = {fold.merged};
        d.fix.description =
            "fold gates " + std::to_string(fold.first) + " and " +
            std::to_string(fold.second) + " into one " +
            fold.merged.name() + " at position " +
            std::to_string(fold.first);
        break;
    }
    return d;
}

/**
 * Cross-checks every removable claim with the equivalence engine.
 * Verified and refuted claims are kept (refutations counted);
 * undecidable claims are dropped and counted as suppressed. Unitary
 * claims are proven on their removal window (verifyUnitaryClaim). State
 * claims outside the symbolic tiers are batched into one dense
 * simulation: gate g fixes the prefix state psi iff |<psi|g|psi>| = 1,
 * and then deleting g preserves the program on |0..0> because the
 * suffix is unitary.
 */
std::vector<Diagnostic>
verifyClaims(const Circuit &circuit, std::vector<Diagnostic> claims,
             const AnalysisOptions &options, AnalysisReport *report)
{
    EquivalenceOptions symbolic = options.equivalence;
    symbolic.denseQubitLimit = -1; // dense state claims are batched

    std::vector<Diagnostic> kept;
    std::vector<Diagnostic> pending_dense;
    for (Diagnostic &d : claims) {
        if (!d.removable) {
            kept.push_back(std::move(d));
            continue;
        }
        EquivalenceReport r;
        if (d.mode == VerificationMode::kUnitary) {
            r = verifyUnitaryClaim(circuit, d.fix, options.equivalence);
            d.verifyMethod = equivalenceMethodName(r.method);
        } else {
            r = analyzeZeroStateEquivalent(
                circuit, applySuggestedFix(circuit, d.fix), symbolic);
            if (r.verdict == EquivalenceVerdict::kInconclusive) {
                pending_dense.push_back(std::move(d));
                continue;
            }
            d.verifyMethod =
                equivalenceMethodName(r.method) + "-zero-state";
        }
        if (r.verdict == EquivalenceVerdict::kInconclusive) {
            ++report->suppressedUnverifiable;
            continue;
        }
        d.verified = r.verdict == EquivalenceVerdict::kEquivalent;
        if (!d.verified)
            ++report->failedVerification;
        kept.push_back(std::move(d));
    }

    // Batched dense verification of the remaining state claims: one
    // simulation pass, one small-gate application + overlap per claim.
    const int n = circuit.numQubits();
    const int dense_limit =
        std::min(options.equivalence.denseQubitLimit, 24);
    if (!pending_dense.empty() && n <= dense_limit) {
        std::sort(pending_dense.begin(), pending_dense.end(),
                  [](const Diagnostic &a, const Diagnostic &b) {
                      return a.gateIndex < b.gateIndex;
                  });
        StateVector psi = StateVector::basis(n, 0);
        std::size_t next = 0;
        for (std::size_t i = 0;
             i < circuit.size() && next < pending_dense.size(); ++i) {
            const Gate &g = circuit.gates()[i];
            if (pending_dense[next].gateIndex ==
                static_cast<int>(i)) {
                StateVector image = psi;
                image.apply(g);
                const double mag = std::abs(psi.overlap(image));
                Diagnostic d = std::move(pending_dense[next++]);
                d.verifyMethod = "dense-zero-state";
                d.verified =
                    std::abs(mag - 1.0) <= options.equivalence.tol;
                if (!d.verified)
                    ++report->failedVerification;
                kept.push_back(std::move(d));
                psi = std::move(image); // g was already applied
                continue;
            }
            psi.apply(g);
        }
        QAIC_CHECK_EQ(next, pending_dense.size())
            << "dense state claims beyond the circuit";
    } else {
        report->suppressedUnverifiable +=
            static_cast<int>(pending_dense.size());
    }

    std::stable_sort(kept.begin(), kept.end(),
                     [](const Diagnostic &a, const Diagnostic &b) {
                         const int ka = a.gateIndex < 0
                                            ? std::numeric_limits<int>::max()
                                            : a.gateIndex;
                         const int kb = b.gateIndex < 0
                                            ? std::numeric_limits<int>::max()
                                            : b.gateIndex;
                         return ka < kb;
                     });
    return kept;
}

} // namespace

EquivalenceReport
verifyUnitaryClaim(const Circuit &circuit, const SuggestedFix &fix,
                   const EquivalenceOptions &options)
{
    QAIC_CHECK(!fix.empty())
        << "verifyUnitaryClaim called with an empty fix";
    const int lo = fix.removeGates.front();
    const int hi = fix.removeGates.back();
    QAIC_CHECK(lo >= 0 && hi < static_cast<int>(circuit.size()))
        << "fix removes gate indices beyond the circuit";
    // The circuit is S.W.P and the fixed one S.W'.P, with W the gates
    // [lo, hi] and W' the same slice with the fix applied; they agree up
    // to global phase iff W and W' do.
    Circuit window(circuit.numQubits());
    for (int i = lo; i <= hi; ++i)
        window.add(circuit.gates()[i]);
    SuggestedFix local;
    local.removeGates = fix.removeGates;
    for (int &index : local.removeGates)
        index -= lo;
    local.insertGates = fix.insertGates;
    return analyzeCircuitsEquivalent(
        window, applySuggestedFix(window, local), options);
}

AnalysisReport
analyzeCircuit(const Circuit &circuit, const AnalysisOptions &options,
               CommutationChecker *checker)
{
    AnalysisReport report;
    report.stage = options.stage;
    report.numQubits = circuit.numQubits();
    report.gateCount = circuit.size();

    CommutationChecker local_checker;
    if (!checker)
        checker = &local_checker;

    const int n = circuit.numQubits();
    ClassicalDomain classical(n);
    StabilizerDomain stabilizer(n);
    EntanglementDomain partitions(n);
    FoldingDomain folding(circuit, checker,
                          options.cancellationWindow);

    std::vector<Diagnostic> claims;
    std::vector<FoldFinding> folds;
    std::vector<int> gates_on(n, 0);

    for (std::size_t i = 0; i < circuit.size(); ++i) {
        const Gate &g = circuit.gates()[i];
        const int index = static_cast<int>(i);
        for (int q : g.qubits)
            ++gates_on[q];
        bool proven_identity = false;

        // Unitary-level identities: explicit kId and rotations whose
        // literal angle already folds to 0 (mod 2pi).
        if (g.kind == GateKind::kId) {
            claims.push_back(removalClaim(
                DiagnosticKind::kRemovableGate, index, g,
                "explicit identity gate", VerificationMode::kUnitary));
            proven_identity = true;
        } else if (isRotationGate(g.kind) &&
                   angleIsZeroMod2Pi(g.params[0])) {
            claims.push_back(removalClaim(
                DiagnosticKind::kIdentityRotation, index, g,
                "rotation angle is 0 (mod 2pi): projective identity",
                VerificationMode::kUnitary));
            proven_identity = true;
        }

        // Classical constant propagation (always advances the states).
        const TransferResult t = classical.transfer(g);
        if (!proven_identity &&
            t.action == TransferResult::Action::kIdentity) {
            claims.push_back(removalClaim(
                t.deadControl ? DiagnosticKind::kDeadControl
                              : DiagnosticKind::kRemovableGate,
                index, g, "classical domain: " + t.reason,
                VerificationMode::kInitialState));
            proven_identity = true;
        }

        // Stabilizer prefix: Clifford gates fixing the reachable
        // stabilizer state (catches entangled-state identities the
        // classical domain cannot see).
        if (!proven_identity && stabilizer.active()) {
            std::string evidence;
            if (stabilizer.gateFixesState(g, &evidence)) {
                claims.push_back(removalClaim(
                    DiagnosticKind::kRemovableGate, index, g,
                    "stabilizer domain: " + evidence,
                    VerificationMode::kInitialState));
                proven_identity = true;
            }
        }
        stabilizer.absorb(g);

        // Entanglement partitions: identities contribute nothing;
        // everything else interacts on (at most) its residual support.
        if (!proven_identity) {
            partitions.touch(g.qubits);
            if (!t.entangles.empty())
                partitions.join(t.entangles);
        }

        // Folding: adjoint pairs and phase-polynomial rotation folds.
        folding.feed(index, !proven_identity, &folds);
        for (const FoldFinding &fold : folds)
            claims.push_back(foldClaim(fold, circuit));
        folds.clear();
    }
    folding.finish(&folds);
    for (const FoldFinding &fold : folds)
        claims.push_back(foldClaim(fold, circuit));
    folds.clear();

    if (options.informational) {
        for (int q = 0; q < n; ++q) {
            if (gates_on[q] == 0)
                continue;
            if (classical.neverLeftZero(q)) {
                Diagnostic d;
                d.kind = DiagnosticKind::kConstantQubit;
                d.qubits = {q};
                d.evidence = "classical domain: qubit q" +
                             std::to_string(q) +
                             " provably holds |0> at every program "
                             "point";
                claims.push_back(std::move(d));
                continue;
            }
            const AbstractState s = classical.state(q);
            if (isKnownState(s) && s != AbstractState::kZero) {
                Diagnostic d;
                d.kind = DiagnosticKind::kAncillaNotReset;
                d.qubits = {q};
                d.evidence =
                    "classical domain: qubit q" + std::to_string(q) +
                    " ends in " + abstractStateName(s) +
                    "; reusing it as a fresh ancilla requires a reset";
                claims.push_back(std::move(d));
            }
        }
        const std::vector<std::vector<int>> components =
            partitions.touchedComponents();
        if (components.size() >= 2) {
            Diagnostic d;
            d.kind = DiagnosticKind::kSplittableRegister;
            std::ostringstream evidence;
            evidence << "entanglement domain: the interacting qubits "
                        "split into "
                     << components.size()
                     << " groups no gate couples:";
            for (const std::vector<int> &group : components) {
                evidence << " {";
                for (std::size_t k = 0; k < group.size(); ++k)
                    evidence << (k ? "," : "") << "q" << group[k];
                evidence << "}";
                d.qubits.push_back(group.front());
            }
            d.evidence = evidence.str();
            claims.push_back(std::move(d));
        }
    }

    if (options.verify)
        report.diagnostics =
            verifyClaims(circuit, std::move(claims), options, &report);
    else
        report.diagnostics = std::move(claims);
    return report;
}

} // namespace qaic
