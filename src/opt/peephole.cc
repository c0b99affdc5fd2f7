#include "opt/peephole.h"

#include <algorithm>
#include <cmath>
#include <vector>

#include "analysis/analyzer.h"
#include "gdg/commute.h"
#include "ir/embed.h"
#include "util/logging.h"
#include "verify/verify.h"

namespace qaic {

namespace {

/** Sorted support union of two gates. */
std::vector<int>
jointSupport(const Gate &a, const Gate &b)
{
    std::vector<int> support = a.qubits;
    support.insert(support.end(), b.qubits.begin(), b.qubits.end());
    std::sort(support.begin(), support.end());
    support.erase(std::unique(support.begin(), support.end()),
                  support.end());
    return support;
}

/** True if the supports are equal as sets. */
bool
sameSupport(const Gate &a, const Gate &b)
{
    std::vector<int> qa = a.qubits, qb = b.qubits;
    std::sort(qa.begin(), qa.end());
    std::sort(qb.begin(), qb.end());
    return qa == qb;
}

/**
 * Exact inverse-pair test: the product b . a on the joint support is a
 * global-phase identity. Restricted to narrow supports where the
 * matrices are trivially cheap.
 */
bool
areInverses(const Gate &a, const Gate &b)
{
    std::vector<int> support = jointSupport(a, b);
    if (support.size() > 2)
        return false;
    CMatrix ua = embedUnitary(a.matrix(), a.qubits, support);
    CMatrix ub = embedUnitary(b.matrix(), b.qubits, support);
    CMatrix identity = CMatrix::identity(std::size_t{1} << support.size());
    return phaseDistance(ub * ua, identity) < 1e-9;
}

/** Rotation kinds the merge rule understands. */
bool
isMergeableRotation(const Gate &gate)
{
    switch (gate.kind) {
      case GateKind::kRx:
      case GateKind::kRy:
      case GateKind::kRz:
      case GateKind::kRzz:
        return true;
      default:
        return false;
    }
}

/** Angle folded into (-pi, pi]. */
double
wrapAngle(double angle)
{
    double two_pi = 2.0 * M_PI;
    double r = std::fmod(angle, two_pi);
    if (r <= -M_PI)
        r += two_pi;
    else if (r > M_PI)
        r -= two_pi;
    return r;
}

/**
 * One left-to-right scan applying the first available slide-cancel or
 * slide-merge rewrite at each position. Returns true if anything fired.
 */
bool
scanOnce(std::vector<Gate> &gates, int window, CommutationChecker &checker,
         PeepholeStats *stats)
{
    bool changed = false;
    for (std::size_t i = 0; i < gates.size(); ++i) {
        if (gates[i].kind == GateKind::kId)
            continue;
        // The window bounds how many *support-overlapping* gates the
        // slide reasons about; gates on disjoint qubits commute
        // trivially and cost nothing. Charging them too would make the
        // reach of a rewrite depend on how many unrelated parallel
        // streams happen to interleave with it.
        int budget = window;
        for (std::size_t j = i + 1; j < gates.size() && budget > 0;
             ++j) {
            bool overlaps = false;
            for (int q : gates[i].qubits)
                if (gates[j].actsOn(q))
                    overlaps = true;
            if (!overlaps)
                continue;
            --budget;
            if (sameSupport(gates[i], gates[j])) {
                // Every gate strictly between i and j commutes with
                // gates[i] (loop invariant below), so sliding i next to
                // j is sound; the pair then rewrites locally.
                if (areInverses(gates[i], gates[j])) {
                    gates.erase(gates.begin() + j);
                    gates.erase(gates.begin() + i);
                    ++stats->cancelledPairs;
                    changed = true;
                    --i; // re-examine the gate that slid into slot i
                    break;
                }
                if (gates[i].kind == gates[j].kind &&
                    isMergeableRotation(gates[i]) &&
                    (gates[i].qubits == gates[j].qubits ||
                     gates[i].kind == GateKind::kRzz)) {
                    // rzz is symmetric in its qubits, so equal support
                    // suffices there; the merged angle lands on j.
                    double merged =
                        gates[i].params[0] + gates[j].params[0];
                    if (std::abs(wrapAngle(merged)) < 1e-12) {
                        gates.erase(gates.begin() + j);
                        gates.erase(gates.begin() + i);
                    } else {
                        // The merged gate replaces j (where i slid to);
                        // exact identity R(a) then R(b) = R(a+b).
                        gates[j].params[0] = merged;
                        gates.erase(gates.begin() + i);
                    }
                    ++stats->mergedRotations;
                    changed = true;
                    --i;
                    break;
                }
            }
            if (!checker.commute(gates[i], gates[j]))
                break;
        }
    }
    return changed;
}

/**
 * Erases the first single-qubit window whose *product* is a global-
 * phase identity. This is the composite form of pair cancellation: a
 * run like H . X . H . Z multiplies out to the identity even though no
 * two of its gates cancel or merge pairwise, so neither the slide-
 * cancel nor the rotation-merge rule can touch it — and while it
 * stands it blocks two-qubit cancellations across it. Gates on other
 * qubits interleave freely (they commute by disjointness); a wider
 * gate or a virtual kId on the wire terminates the window. Returns
 * true after one erasure so the caller's fixpoint loop re-scans.
 */
bool
eraseIdentityWindow(std::vector<Gate> &gates, PeepholeStats *stats)
{
    const CMatrix identity = CMatrix::identity(2);
    for (std::size_t i = 0; i < gates.size(); ++i) {
        if (gates[i].width() != 1 || gates[i].kind == GateKind::kId)
            continue;
        const int q = gates[i].qubits[0];
        std::vector<std::size_t> window;
        CMatrix prod = identity;
        for (std::size_t j = i; j < gates.size(); ++j) {
            if (!gates[j].actsOn(q))
                continue;
            if (gates[j].width() != 1 || gates[j].kind == GateKind::kId)
                break;
            window.push_back(j);
            prod = gates[j].matrix() * prod;
            if (window.size() >= 2 &&
                phaseDistance(prod, identity) < 1e-9) {
                for (auto it = window.rbegin(); it != window.rend(); ++it)
                    gates.erase(gates.begin() + *it);
                ++stats->erasedIdentityWindows;
                return true;
            }
        }
    }
    return false;
}

/**
 * Applies the analyzer's verified unitary fixes as one batch. Only the
 * unitary claims are proven (each on its removal window); state claims
 * are never applied here, so they are never verified either. The batch
 * is re-proven equivalent by the engine; if that proof does not go
 * through, only the first (individually verified) fix is applied.
 */
int
applyAnalyzerFixes(Circuit &circuit, CommutationChecker &checker)
{
    AnalysisOptions analysis;
    analysis.stage = "opt-seed";
    analysis.verify = false;
    analysis.informational = false;
    AnalysisReport report = analyzeCircuit(circuit, analysis, &checker);

    std::vector<const Diagnostic *> proven;
    for (const Diagnostic &d : report.diagnostics)
        if (d.removable && d.mode == VerificationMode::kUnitary &&
            !d.fix.empty() &&
            verifyUnitaryClaim(circuit, d.fix, analysis.equivalence)
                .equivalent())
            proven.push_back(&d);
    if (proven.empty())
        return 0;
    // The analyzer's own cross-check reports claims stably sorted by
    // gate index, and applySuggestedFixes breaks ties on the first
    // removal index by input order; keep that order.
    std::stable_sort(proven.begin(), proven.end(),
                     [](const Diagnostic *a, const Diagnostic *b) {
                         return a->gateIndex < b->gateIndex;
                     });
    std::vector<SuggestedFix> fixes;
    for (const Diagnostic *d : proven)
        fixes.push_back(d->fix);

    AppliedFixes batch = applySuggestedFixes(circuit, fixes);
    if (batch.applied.empty())
        return 0;
    if (batch.applied.size() > 1) {
        // Joint application of independently proven fixes is not
        // automatically sound; demand an engine proof for the batch.
        EquivalenceReport proof =
            analyzeCircuitsEquivalent(circuit, batch.circuit);
        if (proof.verdict != EquivalenceVerdict::kEquivalent) {
            circuit = applySuggestedFix(circuit, batch.applied.front());
            return 1;
        }
    }
    circuit = std::move(batch.circuit);
    return static_cast<int>(batch.applied.size());
}

} // namespace

PeepholeStats
runPeephole(Circuit &circuit, const OptimizerOptions &options,
            CommutationChecker &checker, bool seed_with_analyzer)
{
    PeepholeStats stats;
    if (seed_with_analyzer && options.analyzerSeed)
        stats.analyzerFixesApplied +=
            applyAnalyzerFixes(circuit, checker);

    // Each successful rewrite strictly shrinks the gate list, so the
    // fixpoint loop terminates; the cap is a safety net only. The
    // identity-window rule runs when the pairwise scan is dry: erasing
    // a window typically exposes fresh pairwise work (the two-qubit
    // gates it separated), so control returns to the scan first.
    for (int iter = 0; iter < 100000; ++iter) {
        if (scanOnce(circuit.mutableGates(), options.peepholeWindow,
                     checker, &stats))
            continue;
        if (!eraseIdentityWindow(circuit.mutableGates(), &stats))
            break;
    }
    return stats;
}

} // namespace qaic
