#include "analysis/diagnostics.h"

#include <algorithm>
#include <cstdint>
#include <set>
#include <sstream>

#include "util/logging.h"

namespace qaic {

std::string
diagnosticKindName(DiagnosticKind kind)
{
    switch (kind) {
      case DiagnosticKind::kRemovableGate: return "removable-gate";
      case DiagnosticKind::kIdentityRotation: return "identity-rotation";
      case DiagnosticKind::kDeadControl: return "dead-control";
      case DiagnosticKind::kSelfInversePair: return "self-inverse-pair";
      case DiagnosticKind::kMergeableRotation:
        return "mergeable-rotation";
      case DiagnosticKind::kAncillaNotReset: return "ancilla-not-reset";
      case DiagnosticKind::kSplittableRegister:
        return "splittable-register";
      case DiagnosticKind::kConstantQubit: return "constant-qubit";
    }
    QAIC_PANIC() << "unhandled diagnostic kind";
}

std::string
verificationModeName(VerificationMode mode)
{
    switch (mode) {
      case VerificationMode::kNone: return "none";
      case VerificationMode::kUnitary: return "unitary";
      case VerificationMode::kInitialState: return "initial-state";
    }
    QAIC_PANIC() << "unhandled verification mode";
}

std::string
Diagnostic::toString() const
{
    std::ostringstream out;
    out << "[" << diagnosticKindName(kind) << "]";
    if (gateIndex >= 0)
        out << " gate " << gateIndex;
    if (!qubits.empty()) {
        out << " (q";
        for (std::size_t i = 0; i < qubits.size(); ++i)
            out << (i ? ", q" : "") << qubits[i];
        out << ")";
    }
    out << ": " << evidence;
    if (!fix.description.empty())
        out << " -- fix: " << fix.description;
    if (removable) {
        if (verified)
            out << " [verified: " << verifyMethod << "]";
        else
            out << " [VERIFICATION FAILED: " << verifyMethod << "]";
    }
    return out.str();
}

int
AnalysisReport::countKind(DiagnosticKind kind) const
{
    int count = 0;
    for (const Diagnostic &d : diagnostics)
        count += d.kind == kind ? 1 : 0;
    return count;
}

int
AnalysisReport::distinctKinds() const
{
    std::set<DiagnosticKind> kinds;
    for (const Diagnostic &d : diagnostics)
        kinds.insert(d.kind);
    return static_cast<int>(kinds.size());
}

std::string
AnalysisReport::toString() const
{
    std::ostringstream out;
    out << "analysis [" << stage << "]: " << gateCount << " gates, "
        << numQubits << " qubits, " << diagnostics.size()
        << " finding(s)";
    if (suppressedUnverifiable > 0)
        out << ", " << suppressedUnverifiable
            << " suppressed (unverifiable at this register size)";
    if (failedVerification > 0)
        out << ", " << failedVerification << " FAILED VERIFICATION";
    out << "\n";
    for (const Diagnostic &d : diagnostics)
        out << "  " << d.toString() << "\n";
    return out.str();
}

namespace {

void
appendIntArray(std::ostringstream &out, const char *key,
               const std::vector<int> &values)
{
    out << "\"" << key << "\":[";
    for (std::size_t i = 0; i < values.size(); ++i)
        out << (i ? "," : "") << values[i];
    out << "]";
}

} // namespace

std::string
AnalysisReport::toJson() const
{
    std::ostringstream out;
    out << "{\"stage\":\"" << jsonEscape(stage) << "\",";
    out << "\"numQubits\":" << numQubits << ",";
    out << "\"gateCount\":" << gateCount << ",";
    out << "\"suppressedUnverifiable\":" << suppressedUnverifiable << ",";
    out << "\"failedVerification\":" << failedVerification << ",";
    out << "\"diagnostics\":[";
    for (std::size_t i = 0; i < diagnostics.size(); ++i) {
        const Diagnostic &d = diagnostics[i];
        out << (i ? "," : "") << "{";
        out << "\"kind\":\"" << diagnosticKindName(d.kind) << "\",";
        out << "\"gateIndex\":" << d.gateIndex << ",";
        appendIntArray(out, "gateIndices", d.gateIndices);
        out << ",";
        appendIntArray(out, "qubits", d.qubits);
        out << ",";
        out << "\"evidence\":\"" << jsonEscape(d.evidence) << "\",";
        out << "\"fix\":\"" << jsonEscape(d.fix.description) << "\",";
        out << "\"removable\":" << (d.removable ? "true" : "false") << ",";
        out << "\"mode\":\"" << verificationModeName(d.mode) << "\",";
        out << "\"verified\":" << (d.verified ? "true" : "false") << ",";
        out << "\"verifyMethod\":\"" << jsonEscape(d.verifyMethod)
            << "\"}";
    }
    out << "]}";
    return out.str();
}

Circuit
applySuggestedFix(const Circuit &circuit, const SuggestedFix &fix)
{
    QAIC_CHECK(!fix.removeGates.empty())
        << "applySuggestedFix called with an empty fix";
    QAIC_CHECK(std::is_sorted(fix.removeGates.begin(),
                              fix.removeGates.end()))
        << "SuggestedFix::removeGates must be ascending";
    Circuit out(circuit.numQubits());
    std::size_t next_removed = 0;
    for (std::size_t i = 0; i < circuit.gates().size(); ++i) {
        const bool removed =
            next_removed < fix.removeGates.size() &&
            fix.removeGates[next_removed] == static_cast<int>(i);
        if (removed) {
            // Replacement gates splice in at the first removal site.
            if (next_removed == 0)
                for (const Gate &g : fix.insertGates)
                    out.add(g);
            ++next_removed;
            continue;
        }
        out.add(circuit.gates()[i]);
    }
    QAIC_CHECK_EQ(next_removed, fix.removeGates.size())
        << "fix removes gate indices beyond the circuit";
    return out;
}

AppliedFixes
applySuggestedFixes(const Circuit &circuit,
                    const std::vector<SuggestedFix> &fixes)
{
    const int n = static_cast<int>(circuit.gates().size());

    // Order by first removal index so acceptance is deterministic and
    // the earliest fix wins a conflict.
    std::vector<const SuggestedFix *> ordered;
    ordered.reserve(fixes.size());
    for (const SuggestedFix &fix : fixes) {
        QAIC_CHECK(!fix.removeGates.empty())
            << "applySuggestedFixes called with an empty fix";
        QAIC_CHECK(std::is_sorted(fix.removeGates.begin(),
                                  fix.removeGates.end()))
            << "SuggestedFix::removeGates must be ascending";
        QAIC_CHECK(fix.removeGates.front() >= 0 &&
                   fix.removeGates.back() < n)
            << "fix removes gate indices beyond the circuit";
        ordered.push_back(&fix);
    }
    std::stable_sort(ordered.begin(), ordered.end(),
                     [](const SuggestedFix *a, const SuggestedFix *b) {
                         return a->removeGates.front() <
                                b->removeGates.front();
                     });

    AppliedFixes result;
    // removed[i]: gate i deleted; splice[i]: accepted fix whose
    // insertGates replace it (only set at each fix's first removal).
    std::vector<std::uint8_t> removed(static_cast<std::size_t>(n), 0);
    std::vector<const SuggestedFix *> splice(static_cast<std::size_t>(n),
                                             nullptr);
    for (const SuggestedFix *fix : ordered) {
        bool conflicts = false;
        for (int index : fix->removeGates)
            conflicts = conflicts || removed[index] != 0;
        if (conflicts) {
            result.deferred.push_back(*fix);
            continue;
        }
        for (int index : fix->removeGates)
            removed[index] = 1;
        splice[fix->removeGates.front()] = fix;
        result.applied.push_back(*fix);
    }

    // One pass over the original indices: no fix ever sees a spliced
    // gate list, so there are no stale-index deletions by design.
    Circuit out(circuit.numQubits());
    for (int i = 0; i < n; ++i) {
        if (splice[i] != nullptr)
            for (const Gate &g : splice[i]->insertGates)
                out.add(g);
        if (!removed[i])
            out.add(circuit.gates()[i]);
    }
    result.circuit = std::move(out);
    return result;
}

} // namespace qaic
