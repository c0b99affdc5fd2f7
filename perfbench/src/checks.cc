#include "checks.h"

#include <cstdio>
#include <fstream>
#include <utility>

#include "verify/lint.h"
#include "verify/verify.h"

using namespace qaic;

namespace perfbench {

std::string
digest(double latency_ns, int swaps, int instructions)
{
    char buf[128];
    std::snprintf(buf, sizeof(buf),
                  "latency_ns=%.3f swaps=%d instructions=%d", latency_ns,
                  swaps, instructions);
    return buf;
}

std::string
digest(const CompilationResult &result)
{
    return digest(result.latencyNs, result.swapCount,
                  result.instructionCount);
}

std::string
checkCompiled(const Circuit &logical, const DeviceModel &device,
              const CompilationResult &result)
{
    LintReport report;
    lintCoupling(result.physicalCircuit, device, &report);
    lintMapping(result.routing, device, &report);
    lintSchedule(result.schedule, result.physicalCircuit, device, &report);
    if (!report.ok())
        return "lint: " + report.findings.front().toString();
    const EquivalenceReport routed = analyzeRoutedEquivalent(
        logical, result.routing, device.numQubits());
    if (!routed.equivalent())
        return "routed circuit not equivalent to the input (" +
               equivalenceMethodName(routed.method) + ": " + routed.note +
               ")";
    const EquivalenceReport backend = analyzeCircuitsEquivalent(
        result.routing.physical, result.physicalCircuit);
    if (!backend.equivalent())
        return "backend output not equivalent to the routed circuit (" +
               equivalenceMethodName(backend.method) + ": " +
               backend.note + ")";
    return "";
}

Reference::Reference(std::string path) : path_(std::move(path))
{
    std::ifstream in(path_);
    std::string line;
    while (std::getline(in, line)) {
        const std::size_t tab = line.find('\t');
        if (tab != std::string::npos)
            digests_[line.substr(0, tab)] = line.substr(tab + 1);
    }
}

std::string
Reference::check(const std::string &cell, const std::string &digest)
{
    if (recording_) {
        digests_[cell] = digest;
        return "";
    }
    auto it = digests_.find(cell);
    if (it == digests_.end())
        return "no reference digest for " + cell;
    if (it->second != digest)
        return cell + ": digest " + digest + " != reference " + it->second;
    return "";
}

bool
Reference::save() const
{
    std::ofstream out(path_);
    for (const auto &[cell, d] : digests_)
        out << cell << '\t' << d << '\n';
    return static_cast<bool>(out);
}

} // namespace perfbench
