/**
 * @file
 * What every workload shares: command-line arguments, statistics, the
 * per-layer metric catalogue and the result report.
 */
#ifndef PERFBENCH_COMMON_H
#define PERFBENCH_COMMON_H

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <sys/types.h>
#include <thread>
#include <utility>
#include <vector>

#include "trace.h"

namespace perfbench {

class Reference;

struct Args
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    std::string qaiccd;
    std::string reference;
    std::string spansDir;
    bool reduced = false;
    bool writeReference = false;
};

/** Linear-interpolated quantile, @p p in [0, 1]; 0 for no values. */
double quantile(std::vector<double> values, double p);
double median(const std::vector<double> &values);
double geomean(const std::vector<double> &values);

/**
 * The highest percentile with at least ten samples beyond it; defined
 * only when that percentile lies above the median.
 */
struct Tail
{
    bool defined = false;
    double percentile = 0.0;
    double value = 0.0;
};
Tail tailOf(const std::vector<double> &values);

/**
 * Peak resident set (VmHWM, MB) of process @p pid, 0 meaning this one;
 * -1 when it cannot be read.
 */
double peakRssMb(pid_t pid = 0);

/**
 * Returns freed heap memory to the system and restarts this process's
 * peak resident set from its current size (/proc/self/clear_refs), so
 * the next peakRssMb() covers only what ran in between. False when the
 * kernel refuses.
 */
bool resetPeakRss();

/** One circuit of bench/bench_service.cc's request pool. */
struct PoolCircuit
{
    const char *name;
    const char *qasm;
    const char *topology;
};

/** The six circuits of that pool, in its order. */
const std::vector<PoolCircuit> &servicePool();

/** The pool circuit called @p name; panics if there is none. */
const PoolCircuit &poolCircuit(const std::string &name);

/** Prints "label: p50 X ms, tail pY Z ms (N samples)". */
void printLatencies(const std::string &label,
                    const std::vector<double> &ms);

/**
 * Moves the constructing thread round-robin over every CPU it may run
 * on, one CPU per period, until destroyed; then restores its CPU mask.
 *
 * The virtual CPUs of a shared host run at different speeds (up to
 * 1.5x apart, and not the same ones from minute to minute), so a
 * single-threaded measurement depends on which CPU the scheduler
 * happened to pick. Visiting every CPU makes each timing an average
 * over all of them.
 */
class CpuRotation
{
  public:
    CpuRotation();
    ~CpuRotation();
    CpuRotation(const CpuRotation &) = delete;
    CpuRotation &operator=(const CpuRotation &) = delete;

  private:
    static constexpr double kPeriodMs = 50.0;

    void loop();

    pid_t tid_;
    std::vector<int> cpus_;
    std::mutex mutex_;
    std::condition_variable wake_;
    bool stop_ = false;
    std::thread thread_;
};

/**
 * Times a workload's set-up. Samples are taken at several points of a
 * run, since the host's speed drifts over seconds. Each sample repeats
 * the set-up until it has lasted kSampleS, long enough for CpuRotation
 * to move it over every CPU. setup_s is the median per set-up.
 */
class SetupTimer
{
  public:
    explicit SetupTimer(std::function<void()> build);

    /** Runs and times one sample. */
    void sample();

    /** Median seconds of one set-up over the samples so far. */
    double medianS() const { return median(samples_); }

  private:
    static constexpr double kSampleS = 0.2;

    std::function<void()> build_;
    std::vector<double> samples_;
};

/** Counts, checks and metrics of one run; prints the final JSON line. */
class Report
{
  public:
    void metric(const std::string &name, double value,
                const std::string &unit);

    /** Records one attempted operation and whether it passed. */
    void operation(bool ok, const std::string &why = "");

    /**
     * A check not tied to one operation (geomeans, trace digests). A
     * failed check counts as one more attempted and failed operation,
     * so it lowers ok_share like a failed compile.
     */
    void check(bool ok, const std::string &why);

    /** Reports the end-to-end metrics every workload shares. */
    void endToEnd(double compile_s, double setup_s, double peak_rss_mb);

    /** Reports every per-layer metric; absent layers read 0. */
    void perLayer(const std::map<std::string, double> &values);

    bool correct() const;
    double okShare() const;
    void print() const;

  private:
    struct Metric
    {
        std::string name;
        double value;
        std::string unit;
    };
    std::vector<Metric> metrics_;
    long attempted_ = 0;
    long failed_ = 0;
};

/** The workloads; each returns after filling @p report. */
void runFig9(const Args &args, Report &report, Reference &reference);
void runOptSweep(const Args &args, Report &report, Reference &reference);
void runTier1Grape(const Args &args, Report &report, Reference &reference);
void runQaiccdMix(const Args &args, Report &report, Reference &reference);

} // namespace perfbench

#endif // PERFBENCH_COMMON_H
