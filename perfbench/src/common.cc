#include "common.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <malloc.h>
#include <sched.h>
#include <unistd.h>

namespace perfbench {

double
quantile(std::vector<double> values, double p)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    const double rank = p * static_cast<double>(values.size() - 1);
    const std::size_t lo = static_cast<std::size_t>(rank);
    const std::size_t hi = std::min(lo + 1, values.size() - 1);
    const double frac = rank - static_cast<double>(lo);
    return values[lo] * (1.0 - frac) + values[hi] * frac;
}

double
median(const std::vector<double> &values)
{
    return quantile(values, 0.5);
}

double
geomean(const std::vector<double> &values)
{
    if (values.empty())
        return 0.0;
    double log_sum = 0.0;
    for (double v : values)
        log_sum += std::log(v);
    return std::exp(log_sum / static_cast<double>(values.size()));
}

Tail
tailOf(const std::vector<double> &values)
{
    Tail tail;
    const double n = static_cast<double>(values.size());
    // p = 1 - 10/n lies above the median only from 21 samples on.
    if (n < 21)
        return tail;
    tail.defined = true;
    tail.percentile = 1.0 - 10.0 / n;
    tail.value = quantile(values, tail.percentile);
    return tail;
}

double
peakRssMb(pid_t pid)
{
    const std::string path =
        "/proc/" + (pid ? std::to_string(pid) : std::string("self")) +
        "/status";
    std::FILE *status = std::fopen(path.c_str(), "r");
    if (!status)
        return -1.0;
    char line[256];
    long kb = -1;
    while (std::fgets(line, sizeof(line), status))
        if (std::sscanf(line, "VmHWM: %ld kB", &kb) == 1)
            break;
    std::fclose(status);
    return kb < 0 ? -1.0 : static_cast<double>(kb) / 1024.0;
}

bool
resetPeakRss()
{
    malloc_trim(0);
    std::FILE *refs = std::fopen("/proc/self/clear_refs", "w");
    if (!refs)
        return false;
    const bool written = std::fputs("5", refs) >= 0;
    return std::fclose(refs) == 0 && written;
}

const std::vector<PoolCircuit> &
servicePool()
{
    static const std::vector<PoolCircuit> pool = {
        {"bell-chain", "qubits 4\nh q0\ncnot q0 q1\ncnot q1 q2\ncnot q2 q3\n",
         "line"},
        {"phase-ladder",
         "qubits 4\nh q0\nh q1\nh q2\nh q3\ncz q0 q1\ncz q1 q2\n"
         "cz q2 q3\nrz(0.7) q3\ncz q0 q3\n",
         "grid"},
        {"toffoli-sandwich",
         "qubits 5\nh q0\nccx q0 q1 q2\ncnot q2 q3\nccx q2 q3 q4\nh q4\n",
         "line"},
        {"rotation-mix",
         "qubits 4\nrx(0.25) q0\nry(0.5) q1\nrz(0.75) q2\n"
         "rzz(1.1) q0 q3\ncnot q1 q2\nrzz(0.3) q2 q3\ncnot q0 q1\n",
         "grid"},
        {"qft-slice",
         "qubits 4\nh q0\nrzz(1.5707) q0 q1\nh q1\nrzz(0.7853) q1 q2\n"
         "h q2\nrzz(0.3926) q2 q3\nh q3\n",
         "line"},
        {"ghz-return",
         "qubits 5\nh q0\ncnot q0 q1\ncnot q1 q2\ncnot q2 q3\n"
         "cnot q3 q4\nt q4\ncnot q3 q4\ncnot q2 q3\ncnot q1 q2\n"
         "cnot q0 q1\nh q0\n",
         "line"},
    };
    return pool;
}

const PoolCircuit &
poolCircuit(const std::string &name)
{
    for (const PoolCircuit &c : servicePool())
        if (name == c.name)
            return c;
    std::fprintf(stderr, "perfbench: no pool circuit %s\n", name.c_str());
    std::abort();
}

CpuRotation::CpuRotation() : tid_(gettid())
{
    cpu_set_t allowed;
    CPU_ZERO(&allowed);
    if (sched_getaffinity(tid_, sizeof(allowed), &allowed) == 0)
        for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu)
            if (CPU_ISSET(cpu, &allowed))
                cpus_.push_back(cpu);
    if (cpus_.size() > 1)
        thread_ = std::thread([this] { loop(); });
}

CpuRotation::~CpuRotation()
{
    if (!thread_.joinable())
        return;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        stop_ = true;
    }
    wake_.notify_all();
    thread_.join();
    cpu_set_t all;
    CPU_ZERO(&all);
    for (int cpu : cpus_)
        CPU_SET(cpu, &all);
    sched_setaffinity(tid_, sizeof(all), &all);
}

void
CpuRotation::loop()
{
    const auto period =
        std::chrono::microseconds(static_cast<long long>(kPeriodMs * 1e3));
    std::unique_lock<std::mutex> lock(mutex_);
    for (std::size_t next = 0; !stop_; ++next) {
        cpu_set_t one;
        CPU_ZERO(&one);
        CPU_SET(cpus_[next % cpus_.size()], &one);
        sched_setaffinity(tid_, sizeof(one), &one);
        wake_.wait_for(lock, period, [this] { return stop_; });
    }
}

SetupTimer::SetupTimer(std::function<void()> build)
    : build_(std::move(build))
{
}

void
SetupTimer::sample()
{
    const double start = nowNs();
    int repeats = 0;
    do {
        build_();
        ++repeats;
    } while ((nowNs() - start) / 1e9 < kSampleS);
    samples_.push_back((nowNs() - start) / 1e9 / repeats);
}

void
printLatencies(const std::string &label, const std::vector<double> &ms)
{
    std::printf("%s: p50 %.3f ms", label.c_str(), median(ms));
    const Tail tail = tailOf(ms);
    if (tail.defined)
        std::printf(", tail p%.1f %.3f ms", 100.0 * tail.percentile,
                    tail.value);
    else
        std::printf(", no tail (fewer than 21 samples)");
    std::printf(" (%zu samples)\n", ms.size());
}

namespace {

const char *const kTracedPasses[] = {
    "frontend-lowering",    "cls-frontend",        "mapping",
    "gate-backend",         "gate-backend-handopt", "aggregation-backend",
    "schedule-asap",        "schedule-cls",        "opt-peephole-seeded",
    "opt-phasepoly",        "opt-weyl",            "opt-peephole",
};

/** Every per-layer metric with its unit, in report order. */
std::vector<std::pair<std::string, std::string>>
perLayerCatalogue()
{
    std::vector<std::pair<std::string, std::string>> names;
    for (const char *pass : kTracedPasses) {
        names.push_back({std::string("pass.") + pass + ".ms", "ms"});
        names.push_back({std::string("pass.") + pass + ".ir_out", "count"});
    }
    names.push_back({"oracle.lookups", "count"});
    names.push_back({"oracle.misses", "count"});
    names.push_back({"oracle.hit_share", "share"});
    names.push_back({"oracle.lookup_ms", "ms"});
    names.push_back({"oracle.miss_ms", "ms"});
    names.push_back({"grape.searches", "count"});
    names.push_back({"grape.search_ms", "ms"});
    names.push_back({"grape.degraded", "count"});
    for (const char *n :
         {"opt.cancelled_pairs", "opt.merged_rotations",
          "opt.erased_identity_windows", "opt.analyzer_fixes",
          "opt.phasepoly_rewrites", "opt.weyl_rewrites"})
        names.push_back({n, "count"});
    names.push_back({"guard.twin_ms", "ms"});
    names.push_back({"guard.fallbacks", "count"});
    for (const char *n : {"service.hit_ms_p50", "service.small_ms_p99",
                          "service.paper_ms_p50"})
        names.push_back({n, "ms"});
    for (const char *n :
         {"service.tier0_compiles", "service.cache_hits",
          "service.promotions", "service.rejected", "service.guard_trips",
          "service.peak_queue_depth"})
        names.push_back({n, "count"});
    names.push_back({"op_ms_p50", "ms"});
    names.push_back({"op_ms_tail", "ms"});
    names.push_back({"req_per_s", "1/s"});
    names.push_back({"goodput_share", "share"});
    names.push_back({"trace.overhead_share", "share"});
    names.push_back({"trace.uncovered_share", "share"});
    return names;
}

} // namespace

void
Report::metric(const std::string &name, double value,
               const std::string &unit)
{
    metrics_.push_back({name, value, unit});
}

void
Report::operation(bool ok, const std::string &why)
{
    ++attempted_;
    if (!ok) {
        ++failed_;
        std::printf("FAILED: %s\n", why.c_str());
    }
}

void
Report::check(bool ok, const std::string &why)
{
    if (!ok)
        operation(false, why);
}

void
Report::endToEnd(double compile_s, double setup_s, double peak_rss_mb)
{
    metric("compile_s", compile_s, "s");
    metric("ok_share", okShare(), "share");
    metric("setup_s", setup_s, "s");
    metric("peak_rss_mb", peak_rss_mb, "MB");
}

void
Report::perLayer(const std::map<std::string, double> &values)
{
    for (const auto &[name, unit] : perLayerCatalogue()) {
        auto it = values.find(name);
        metric(name, it == values.end() ? 0.0 : it->second, unit);
    }
}

bool
Report::correct() const
{
    return failed_ == 0 && attempted_ > 0;
}

double
Report::okShare() const
{
    return attempted_ ? static_cast<double>(attempted_ - failed_) /
                            static_cast<double>(attempted_)
                      : 0.0;
}

void
Report::print() const
{
    for (const Metric &m : metrics_)
        std::printf("metric %-36s %.6g %s\n", m.name.c_str(), m.value,
                    m.unit.c_str());
    std::printf("{\"correct\": %s, \"attempted\": %ld, \"failed\": %ld, "
                "\"metrics\": {",
                correct() ? "true" : "false", attempted_, failed_);
    for (std::size_t i = 0; i < metrics_.size(); ++i)
        std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                    i ? ", " : "", metrics_[i].name.c_str(),
                    metrics_[i].value, metrics_[i].unit.c_str());
    std::printf("}}\n");
    std::fflush(stdout);
}

} // namespace perfbench
