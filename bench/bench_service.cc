/**
 * @file
 * Sustained-throughput benchmark of the compilation service
 * (src/service/), emitting BENCH_service.json.
 *
 * Three phases:
 *
 *  A. Tier-0 cache-miss latency — unique fingerprints through
 *     compileSync on a promotion-free service: p50/p99 wall time per
 *     request. This is the latency a cold client pays.
 *  B. Full-pipeline compile time — the same workloads compiled the
 *     way promotion compiles them (lookahead routing + GRAPE pricing +
 *     optimizing suite) on a cold oracle each time. The tiering bet is
 *     that A is far below B; the acceptance gate requires
 *     B_mean / A_p50 >= 10.
 *  C. Threaded service throughput — client threads hammering a hot
 *     working set while the promoter swaps artifacts underneath:
 *     compiles/sec, p50/p99, promotion count. The gate requires >= 1
 *     observed promotion and, for every tier-1 reply, the never-worse
 *     guard latency_ns <= tier0_latency_ns (the service-level
 *     compileWithLatencyGuard argument).
 *
 * Violating any gate exits nonzero, so CI's service-smoke job fails on
 * a tiering regression, not just a slowdown.
 *
 * Flags:
 *   --quick           smaller counts + cheap GRAPE (CI smoke)
 *   --baseline FILE   compare the deterministic per-workload artifact
 *                     metrics (swaps/instructions/aggregates — these
 *                     never legitimately drift without a compiler
 *                     change) against a committed baseline; mismatch
 *                     exits nonzero. See bench/service_baseline_quick.txt.
 *   --write-baseline FILE
 *                     regenerate the baseline file from this run
 *                     (commit the result after an intentional
 *                     compiler change).
 */
#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "compiler/pipeline.h"
#include "device/topology.h"
#include "ir/qasm.h"
#include "service/protocol.h"
#include "service/service.h"

using namespace qaic;
using namespace qaic::bench;
using namespace qaic::service;

namespace {

struct Workload
{
    std::string name;
    std::string qasm;
    Topology topology = Topology::kLine;
};

std::vector<Workload>
workloads()
{
    return {
        {"bell-chain",
         "qubits 4\nh q0\ncnot q0 q1\ncnot q1 q2\ncnot q2 q3\n",
         Topology::kLine},
        {"phase-ladder",
         "qubits 4\nh q0\nh q1\nh q2\nh q3\ncz q0 q1\ncz q1 q2\n"
         "cz q2 q3\nrz(0.7) q3\ncz q0 q3\n",
         Topology::kGrid},
        {"toffoli-sandwich",
         "qubits 5\nh q0\nccx q0 q1 q2\ncnot q2 q3\nccx q2 q3 q4\n"
         "h q4\n",
         Topology::kLine},
        {"rotation-mix",
         "qubits 4\nrx(0.25) q0\nry(0.5) q1\nrz(0.75) q2\n"
         "rzz(1.1) q0 q3\ncnot q1 q2\nrzz(0.3) q2 q3\ncnot q0 q1\n",
         Topology::kGrid},
        {"qft-slice",
         "qubits 4\nh q0\nrzz(1.5707) q0 q1\nh q1\nrzz(0.7853) q1 q2\n"
         "h q2\nrzz(0.3926) q2 q3\nh q3\n",
         Topology::kLine},
        {"ghz-return",
         "qubits 5\nh q0\ncnot q0 q1\ncnot q1 q2\ncnot q2 q3\n"
         "cnot q3 q4\nt q4\ncnot q3 q4\ncnot q2 q3\ncnot q1 q2\n"
         "cnot q0 q1\nh q0\n",
         Topology::kLine},
    };
}

CompileRequest
requestFor(const Workload &workload, const std::string &id)
{
    CompileRequest request;
    request.id = id;
    request.qasm = workload.qasm;
    request.topology = workload.topology;
    request.width = 4;
    return request;
}

double
percentile(std::vector<double> sorted, double p)
{
    if (sorted.empty())
        return 0.0;
    std::sort(sorted.begin(), sorted.end());
    double rank = p * static_cast<double>(sorted.size() - 1);
    std::size_t lo = static_cast<std::size_t>(rank);
    std::size_t hi = std::min(lo + 1, sorted.size() - 1);
    double frac = rank - static_cast<double>(lo);
    return sorted[lo] * (1.0 - frac) + sorted[hi] * frac;
}

/** Deterministic artifact metrics of one workload at tier 0. */
struct ArtifactDigest
{
    std::string name;
    int swaps = 0;
    int instructions = 0;
    int aggregates = 0;
};

int
checkBaseline(const std::string &path,
              const std::vector<ArtifactDigest> &observed)
{
    std::ifstream in(path);
    if (!in) {
        std::fprintf(stderr, "bench_service: cannot open baseline %s\n",
                      path.c_str());
        return 1;
    }
    int failures = 0;
    std::size_t checked = 0;
    std::string line;
    while (std::getline(in, line)) {
        if (line.empty() || line[0] == '#')
            continue;
        std::istringstream fields(line);
        ArtifactDigest expected;
        if (!(fields >> expected.name >> expected.swaps >>
              expected.instructions >> expected.aggregates)) {
            std::fprintf(stderr,
                         "bench_service: malformed baseline line: %s\n",
                         line.c_str());
            ++failures;
            continue;
        }
        const ArtifactDigest *actual = nullptr;
        for (const ArtifactDigest &digest : observed)
            if (digest.name == expected.name)
                actual = &digest;
        if (!actual) {
            std::fprintf(stderr,
                         "bench_service: baseline workload '%s' missing "
                         "from run\n",
                         expected.name.c_str());
            ++failures;
            continue;
        }
        ++checked;
        if (actual->swaps != expected.swaps ||
            actual->instructions != expected.instructions ||
            actual->aggregates != expected.aggregates) {
            std::fprintf(
                stderr,
                "bench_service: %s drifted from baseline: "
                "swaps %d!=%d or instructions %d!=%d or aggregates "
                "%d!=%d\n",
                expected.name.c_str(), actual->swaps, expected.swaps,
                actual->instructions, expected.instructions,
                actual->aggregates, expected.aggregates);
            ++failures;
        }
    }
    if (checked == 0) {
        std::fprintf(stderr, "bench_service: baseline %s had no entries\n",
                      path.c_str());
        return 1;
    }
    std::printf("baseline   : %zu workloads match %s\n", checked,
                path.c_str());
    return failures;
}

} // namespace

int
main(int argc, char **argv)
{
    bool quick = false;
    std::string baseline_path, write_baseline_path;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--quick") == 0) {
            quick = true;
        } else if (std::strcmp(argv[i], "--baseline") == 0 &&
                   i + 1 < argc) {
            baseline_path = argv[++i];
        } else if (std::strcmp(argv[i], "--write-baseline") == 0 &&
                   i + 1 < argc) {
            write_baseline_path = argv[++i];
        } else {
            std::fprintf(stderr,
                         "usage: %s [--quick] [--baseline FILE] "
                         "[--write-baseline FILE]\n",
                         argv[0]);
            return 2;
        }
    }

    const std::vector<Workload> pool = workloads();
    const int misses_per_workload = quick ? 8 : 40;
    const int client_threads = quick ? 4 : 8;
    const int requests_per_thread = quick ? 60 : 400;

    BenchReport report("service");
    int gate_failures = 0;

    // ---- Phase A: tier-0 cache-miss latency --------------------------
    // Unique fingerprints (a distinct rz angle per request) so every
    // request walks the full cold path: parse, device build, tier-0
    // compile, artifact insert.
    std::vector<double> miss_ns;
    std::vector<ArtifactDigest> digests;
    {
        ServiceOptions options;
        options.workers = 1; // latency, not throughput
        options.enablePromotion = false;
        CompileService cold(options);
        int unique = 0;
        for (const Workload &workload : pool) {
            // The baseline digest comes from the *base* workload, so
            // the committed file is valid for quick and full runs.
            ServiceReply base = cold.compileSync(
                requestFor(workload, "base-" + workload.name));
            if (!base.ok) {
                std::fprintf(stderr, "workload %s failed: %s\n",
                              workload.name.c_str(),
                              base.error.message().c_str());
                return 1;
            }
            digests.push_back({workload.name, base.swaps,
                               base.instructions, base.aggregates});
            for (int i = 0; i < misses_per_workload; ++i) {
                Workload variant = workload;
                variant.qasm += "rz(0." + std::to_string(100 + unique++) +
                                ") q0\n";
                CompileRequest request = requestFor(
                    variant, "m" + std::to_string(unique));
                double start = nowNs();
                ServiceReply reply = cold.compileSync(request);
                double elapsed = nowNs() - start;
                if (!reply.ok) {
                    std::fprintf(stderr, "cache-miss compile failed: %s\n",
                                  reply.error.message().c_str());
                    return 1;
                }
                miss_ns.push_back(elapsed);
            }
        }
    }
    double miss_p50 = percentile(miss_ns, 0.50);
    double miss_p99 = percentile(miss_ns, 0.99);
    BenchReport::Record &tier0 = report.add(
        "tier0_cache_miss", miss_p50,
        static_cast<long long>(miss_ns.size()));
    tier0.extra.emplace_back("p50_ns", miss_p50);
    tier0.extra.emplace_back("p99_ns", miss_p99);
    std::printf("tier-0 miss: p50 %.1f us, p99 %.1f us (%zu requests)\n",
                miss_p50 / 1e3, miss_p99 / 1e3, miss_ns.size());

    // ---- Phase B: full-pipeline compile time -------------------------
    // What a promotion costs: lookahead routing, GRAPE pricing, the
    // optimizing suite, cold caches every time.
    double full_total_ns = 0.0;
    long long full_ops = 0;
    {
        CompilerOptions options;
        options.useGrapeOracle = true;
        options.optimize = true;
        options.routing.router = RouterKind::kLookahead;
        options.maxInstructionWidth = 4;
        if (quick) {
            options.grapeOptions.grape.maxIterations = 60;
            options.grapeOptions.grape.restarts = 1;
        }
        for (const Workload &workload : pool) {
            StatusOr<Circuit> circuit = parseQasm(workload.qasm);
            if (!circuit.isOk()) {
                std::fprintf(stderr, "workload %s: %s\n",
                              workload.name.c_str(),
                              circuit.status().toString().c_str());
                return 1;
            }
            StatusOr<DeviceModel> device = deviceFromUserConfig(
                topologyName(workload.topology),
                circuit.value().numQubits(), options.seed);
            if (!device.isOk())
                return 1;
            double start = nowNs();
            // Fresh context => fresh CachingOracle: cache-miss cost.
            CompilationContext context(device.value(), options);
            StatusOr<CompilationResult> compiled = compileStrategy(
                circuit.value(), Strategy::kClsAggregation, context);
            double elapsed = nowNs() - start;
            if (!compiled.isOk()) {
                std::fprintf(stderr, "full pipeline %s: %s\n",
                              workload.name.c_str(),
                              compiled.status().toString().c_str());
                return 1;
            }
            full_total_ns += elapsed;
            ++full_ops;
        }
    }
    double full_mean = full_total_ns / static_cast<double>(full_ops);
    report.add("full_pipeline_cold", full_mean, full_ops);
    double ratio = full_mean / miss_p50;
    std::printf("full pipe  : mean %.1f ms per compile; tier-0 p50 is "
                "%.0fx cheaper\n",
                full_mean / 1e6, ratio);
    BenchReport::Record &tiering =
        report.add("tiering_ratio", miss_p50, full_ops, full_mean);
    tiering.extra.emplace_back("ratio", ratio);
    if (ratio < 10.0) {
        std::fprintf(stderr,
                     "GATE FAILED: tier-0 p50 must be >= 10x below the "
                     "full pipeline (got %.1fx)\n",
                     ratio);
        ++gate_failures;
    }

    // ---- Phase C: threaded throughput with promotions ----------------
    std::vector<double> hot_ns;
    std::mutex hot_mutex;
    std::atomic<int> errors{0};
    std::atomic<int> guard_violations{0};
    double span_ns = 0.0;
    std::uint64_t promotions = 0;
    {
        ServiceOptions options;
        options.workers = 4;
        options.queueCapacity = 4096;
        options.promoteAfter = 3;
        options.tier1Grape = false; // promotion cost is phase B's story
        options.tier1Optimize = true;
        CompileService service(options);

        double span_start = nowNs();
        std::vector<std::thread> clients;
        clients.reserve(static_cast<std::size_t>(client_threads));
        for (int t = 0; t < client_threads; ++t) {
            clients.emplace_back([&, t] {
                std::vector<double> local;
                local.reserve(
                    static_cast<std::size_t>(requests_per_thread));
                for (int i = 0; i < requests_per_thread; ++i) {
                    const Workload &workload =
                        pool[static_cast<std::size_t>(t * 11 + i) %
                             pool.size()];
                    double start = nowNs();
                    ServiceReply reply = service.compileSync(requestFor(
                        workload, "h" + std::to_string(t) + "-" +
                                      std::to_string(i)));
                    local.push_back(nowNs() - start);
                    if (!reply.ok) {
                        ++errors;
                        continue;
                    }
                    // Never-worse guard, checked on every reply: a
                    // tier-1 answer must not be slower than the tier-0
                    // answer it replaced.
                    if (reply.tier >= 1 &&
                        reply.latencyNs > reply.tier0LatencyNs + 1e-9)
                        ++guard_violations;
                }
                std::lock_guard<std::mutex> lock(hot_mutex);
                hot_ns.insert(hot_ns.end(), local.begin(), local.end());
            });
        }
        for (std::thread &client : clients)
            client.join();
        span_ns = nowNs() - span_start;
        service.waitForPromotionsIdle();
        promotions = service.stats().promotions;
    }
    double hot_p50 = percentile(hot_ns, 0.50);
    double hot_p99 = percentile(hot_ns, 0.99);
    double compiles_per_sec =
        static_cast<double>(hot_ns.size()) / (span_ns / 1e9);
    BenchReport::Record &throughput = report.add(
        "service_throughput", hot_p50,
        static_cast<long long>(hot_ns.size()));
    throughput.extra.emplace_back("compiles_per_sec", compiles_per_sec);
    throughput.extra.emplace_back("p50_ns", hot_p50);
    throughput.extra.emplace_back("p99_ns", hot_p99);
    throughput.extra.emplace_back("promotions",
                                  static_cast<double>(promotions));
    std::printf("throughput : %.0f compiles/sec, p50 %.1f us, p99 %.1f "
                "us, %llu promotions\n",
                compiles_per_sec, hot_p50 / 1e3, hot_p99 / 1e3,
                static_cast<unsigned long long>(promotions));
    if (errors.load() > 0) {
        std::fprintf(stderr, "GATE FAILED: %d hot-path compile errors\n",
                      errors.load());
        ++gate_failures;
    }
    if (promotions < 1) {
        std::fprintf(stderr,
                     "GATE FAILED: no tier promotion observed\n");
        ++gate_failures;
    }
    if (guard_violations.load() > 0) {
        std::fprintf(stderr,
                     "GATE FAILED: %d tier-1 replies were worse than "
                     "their tier-0 answer\n",
                     guard_violations.load());
        ++gate_failures;
    }

    if (!write_baseline_path.empty()) {
        std::ofstream out(write_baseline_path);
        out << "# bench_service artifact baseline: workload swaps "
               "instructions aggregates\n";
        for (const ArtifactDigest &digest : digests)
            out << digest.name << ' ' << digest.swaps << ' '
                << digest.instructions << ' ' << digest.aggregates
                << '\n';
        std::printf("wrote %s (%zu workloads)\n",
                    write_baseline_path.c_str(), digests.size());
    }
    if (!baseline_path.empty())
        gate_failures += checkBaseline(baseline_path, digests);

    if (!report.writeFile())
        return 1;
    return gate_failures ? 1 : 0;
}
