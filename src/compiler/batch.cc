#include "compiler/batch.h"

#include <atomic>
#include <sstream>

#include "compiler/pipeline.h"
#include "util/failpoint.h"
#include "util/logging.h"
#include "util/parallel.h"

namespace qaic {

namespace {

QAIC_DEFINE_FAILPOINT(workerFailFp, "batch_worker_fail",
                      "fail one batch job with kUnavailable as if its "
                      "worker hit a transient environmental error");

/** Non-owning view of one unit of work; both public overloads reduce
 *  to a span of these so neither copies circuits or devices. */
struct JobView
{
    const Circuit *circuit;
    const DeviceModel *device;
    Strategy strategy;
};

/**
 * Claims job indices from a shared counter and compiles each over the
 * shared oracle with compileStrategy. The CommutationChecker is
 * worker-private and reused across the worker's jobs (its cache is
 * keyed by gate pairs, so it is sound across circuits and devices).
 * Each job's Status lands in its own slot: one bad circuit never
 * poisons its neighbours.
 */
void
runJobs(std::span<const JobView> jobs, const CompilerOptions &options,
        const std::shared_ptr<CachingOracle> &oracle,
        std::atomic<std::size_t> &next,
        const std::vector<char> &preflight_failed,
        std::vector<StatusOr<CompilationResult>> &results)
{
    CommutationChecker checker;
    for (std::size_t i = next.fetch_add(1); i < jobs.size();
         i = next.fetch_add(1)) {
        if (preflight_failed[i])
            continue; // slot already holds the pre-flight error
        if (workerFailFp.shouldFail()) {
            results[i] = unavailableError(
                "injected worker failure (failpoint batch_worker_fail)");
            continue;
        }
        const JobView &job = jobs[i];
        CompilationContext context(*job.device, options, oracle,
                                   &checker);
        results[i] = compileStrategy(*job.circuit, job.strategy, context);
    }
}

std::vector<StatusOr<CompilationResult>>
runBatch(std::span<const JobView> jobs, const CompilerOptions &options,
         int threads, std::shared_ptr<CachingOracle> oracle)
{
    // Every slot starts out claimed-by-nobody; runJobs overwrites each
    // one it visits, so this placeholder survives only if a job is
    // skipped by a pre-flight error below.
    std::vector<StatusOr<CompilationResult>> results(
        jobs.size(), Status(internalError("batch job never ran")));
    if (jobs.empty())
        return results;

    // One shared cache is only sound when every job prices against the
    // same control limits (resolveCompilerOptions derives the model
    // from the device). The reference limits are the supplied oracle's
    // — its cached latencies were computed under them — or the first
    // job's device; a disagreeing job fails alone, the batch proceeds.
    double ref_mu1 = jobs.front().device->mu1();
    double ref_mu2 = jobs.front().device->mu2();
    std::string ref_what = "the first job's device";
    if (oracle) {
        if (const AnalyticModelParams *model = oracle->modelParams()) {
            ref_mu1 = model->mu1;
            ref_mu2 = model->mu2;
            ref_what = "the supplied oracle";
        }
    }
    std::vector<char> preflight_failed(jobs.size(), 0);
    for (std::size_t i = 0; i < jobs.size(); ++i) {
        const JobView &job = jobs[i];
        if (job.device->mu1() != ref_mu1 || job.device->mu2() != ref_mu2) {
            std::ostringstream msg;
            msg << "job " << i << ": device control limits ("
                << job.device->mu1() << ", " << job.device->mu2()
                << ") do not match the batch's shared latency cache ("
                << ref_mu1 << ", " << ref_mu2 << ", from " << ref_what
                << "); compile it in its own batch";
            results[i] = failedPreconditionError(msg.str());
            preflight_failed[i] = 1;
        }
    }
    if (!oracle) {
        oracle = makeCachingOracle(
            resolveCompilerOptions(*jobs.front().device, options));
    }

    int workers = resolveThreadCount(threads, jobs.size());
    std::atomic<std::size_t> next{0};
    runWorkers(workers, [&](int) {
        runJobs(jobs, options, oracle, next, preflight_failed, results);
    });
    return results;
}

} // namespace

std::vector<StatusOr<CompilationResult>>
compileBatch(std::span<const BatchJob> jobs,
             const CompilerOptions &options, int threads,
             std::shared_ptr<CachingOracle> oracle)
{
    std::vector<JobView> views;
    views.reserve(jobs.size());
    for (const BatchJob &job : jobs)
        views.push_back({&job.circuit, &job.device, job.strategy});
    return runBatch(views, options, threads, std::move(oracle));
}

std::vector<StatusOr<CompilationResult>>
compileBatch(const DeviceModel &device, std::span<const Circuit> circuits,
             Strategy strategy, const CompilerOptions &options,
             int threads, std::shared_ptr<CachingOracle> oracle)
{
    std::vector<JobView> views;
    views.reserve(circuits.size());
    for (const Circuit &circuit : circuits)
        views.push_back({&circuit, &device, strategy});
    return runBatch(views, options, threads, std::move(oracle));
}

std::vector<CompilationResult>
unwrapBatch(std::vector<StatusOr<CompilationResult>> results)
{
    std::vector<CompilationResult> out;
    out.reserve(results.size());
    for (std::size_t i = 0; i < results.size(); ++i) {
        if (!results[i].isOk())
            QAIC_FATAL() << "batch job " << i << " failed: "
                         << results[i].status().toString();
        out.push_back(std::move(results[i]).value());
    }
    return out;
}

} // namespace qaic
