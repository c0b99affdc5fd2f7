/**
 * @file
 * Output checks, run outside the timed region: every compiled circuit
 * is linted and routed-equivalence checked, and its digest (makespan,
 * SWAP count, instruction count) is compared with the reference stored
 * with the benchmark.
 */
#ifndef PERFBENCH_CHECKS_H
#define PERFBENCH_CHECKS_H

#include <map>
#include <string>

#include "compiler/compiler.h"

namespace perfbench {

/** "latency_ns=... swaps=... instructions=..." of one output. */
std::string digest(double latency_ns, int swaps, int instructions);
std::string digest(const qaic::CompilationResult &result);

/**
 * Lints @p result against @p device (coupling legality, mapping
 * consistency, schedule consistency) and checks with the equivalence
 * engine that the routed circuit implements @p logical and that the
 * backend output implements the routed circuit. Returns "" when every
 * check passes, otherwise the first failure.
 */
std::string checkCompiled(const qaic::Circuit &logical,
                          const qaic::DeviceModel &device,
                          const qaic::CompilationResult &result);

/**
 * Reference digests keyed by cell name, one "name<TAB>digest" line
 * each, stored at perfbench/reference/digests.tsv.
 */
class Reference
{
  public:
    /** Loads @p path; a missing file leaves the store empty. */
    explicit Reference(std::string path);

    /**
     * "" when @p digest matches the stored one. In record mode the
     * digest is stored instead and the check passes.
     */
    std::string check(const std::string &cell, const std::string &digest);

    /** Switches to record mode (used by --write-reference). */
    void record() { recording_ = true; }
    /** Writes the store back; false on I/O failure. */
    bool save() const;

  private:
    std::string path_;
    bool recording_ = false;
    std::map<std::string, std::string> digests_;
};

} // namespace perfbench

#endif // PERFBENCH_CHECKS_H
