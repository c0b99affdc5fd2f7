/**
 * @file
 * Per-layer tracing from outside the library.
 *
 * The traced run builds the canonical pipelines out of decorated passes
 * and prices through decorated oracles, so every call into a layer's
 * public interface is timed and counted here, in the benchmark's own
 * files, without touching the compiler:
 *
 *  - TracedPass wraps one canonical pass (and, separately, the passes
 *    of the plain twin handed to compileWithLatencyGuard);
 *  - TracedCachingOracle subclasses CachingOracle to count and time
 *    every latencyNs lookup;
 *  - TracedInnerOracle decorates the analytic or GRAPE oracle the
 *    cache prices misses with.
 *
 * Spans stay in memory and are written out when the run ends. Lookups
 * are too many to record one span each (millions on the paper suite),
 * so they are only counted and timed in aggregate.
 */
#ifndef PERFBENCH_TRACE_H
#define PERFBENCH_TRACE_H

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "compiler/pipeline.h"

namespace perfbench {

/** Monotonic wall clock in nanoseconds. */
double nowNs();

/** One recorded interval; parent is an index into Tracer::spans or -1. */
struct Span
{
    std::string name;
    double startNs = 0.0;
    double endNs = 0.0;
    int parent = -1;
};

/** Per-pass totals of the traced run. */
struct PassTotals
{
    /** Wall time of Pass::run, inner-oracle calls included. */
    double wallMs = 0.0;
    /** Wall time minus the inner-oracle calls made during the pass. */
    double selfMs = 0.0;
    /** Instructions after the pass, summed over compiles. */
    long long irOut = 0;
    long long runs = 0;
};

/**
 * Collector shared by the wrappers of one compiling thread. Not
 * synchronized: the benchmark compiles on a single thread.
 */
class Tracer
{
  public:
    /** Opens a span under the innermost open one; returns its index. */
    int open(std::string name);
    void close(int span);

    std::vector<Span> spans;
    std::map<std::string, PassTotals> passes;

    /** Wall time of the latency guard's plain twin, all its passes. */
    double twinMs = 0.0;
    /** CachingOracle::latencyNs calls and their total time. */
    std::uint64_t lookups = 0;
    double lookupNs = 0.0;
    /** Inner-oracle calls (cache misses) and their total time. */
    std::uint64_t misses = 0;
    double missNs = 0.0;
    /** Misses the GRAPE oracle answered with a search (width within
     *  its limit), and their total time. */
    std::uint64_t grapeSearches = 0;
    double grapeNs = 0.0;

  private:
    std::vector<int> stack_;
};

/** Times one pass; its self time excludes inner-oracle calls. */
class TracedPass : public qaic::Pass
{
  public:
    TracedPass(std::unique_ptr<qaic::Pass> inner, Tracer &tracer,
               bool twin);

    std::string name() const override { return name_; }
    qaic::Status run(qaic::CompilationContext &context) override;
    qaic::InvariantSet requiredInvariants() const override;
    qaic::InvariantSet establishedInvariants() const override;
    qaic::InvariantSet preservedInvariants() const override;

  private:
    std::unique_ptr<qaic::Pass> inner_;
    Tracer &tracer_;
    bool twin_;
    std::string name_;
};

/**
 * The canonical pass list of Pipeline::forStrategy (analysis off) with
 * every pass wrapped in a TracedPass. Panics if the pass names differ
 * from the library's own pipeline, so the mirror cannot drift.
 */
qaic::Pipeline tracedPipeline(qaic::Strategy strategy, bool optimize,
                              Tracer &tracer, bool twin);

/**
 * The caching oracle makeCachingOracle would build for @p resolved
 * (no pulse library), with the cache and its inner oracle traced.
 */
std::shared_ptr<qaic::CachingOracle>
makeTracedOracle(const qaic::CompilerOptions &resolved, Tracer &tracer);

/** Writes the spans as one JSON document; false on I/O failure. */
bool writeSpans(const Tracer &tracer, const std::string &path);

} // namespace perfbench

#endif // PERFBENCH_TRACE_H
