/**
 * @file
 * qaicc — the QAIC command-line compiler driver.
 *
 * Reads a circuit in the textual assembly format, compiles it for a
 * superconducting grid with the selected strategy, and reports the
 * physical schedule, latency and estimated output fidelity; optionally
 * emits the synthesized pulse program as CSV.
 *
 * Usage:
 *   qaicc [options] circuit.qasm
 *     --strategy S    isa | cls | handopt | cls-handopt | agg | cls-agg
 *                     (default cls-agg)
 *     --width N       max aggregated-instruction width (default 10)
 *     --topology T    line | ring | grid | heavy-hex | random-regular |
 *                     full (default grid); the device is the smallest
 *                     instance of that family covering the circuit
 *     --router R      baseline | lookahead SWAP router (default
 *                     lookahead)
 *     --line          shorthand for --topology line
 *     --pulses FILE   emit the pulse program (GRAPE for narrow
 *                     instructions) as CSV
 *     --pulse-lib F   persistent pulse library: load latencies/pulses
 *                     from F before compiling and flush new entries back
 *                     (concurrent qaicc processes may share one file)
 *     --schedule      print the full instruction schedule
 *     --timings       print per-pass wall-clock times (and library
 *                     hit/warm-start stats when --pulse-lib is set)
 *     --verify        verify backend semantics against the routed circuit
 *     --check-invariants
 *                     verify pass contracts while compiling (IR lint
 *                     between passes; on by default in Debug builds)
 *     --deadline MS   wall-clock compile budget in milliseconds; GRAPE
 *                     searches that overrun degrade to analytic
 *                     latencies (reported), other overruns fail
 *     --opt           run the optimizing pass suite (src/opt) on the
 *                     logical circuit before mapping: analyzer-seeded
 *                     commutation-aware peephole, phase-polynomial
 *                     region resynthesis, Weyl two-qubit-run
 *                     resynthesis (every rewrite machine-checked,
 *                     never worse in two-qubit content)
 *     --opt-report    with --opt: print what the optimizer did
 *                     (cancellations, merges, rewrites, gate deltas)
 *     --analyze       run the abstract-interpretation dataflow analyzer
 *                     (analysis/analyzer.h) after lowering and after
 *                     mapping and print its machine-verified
 *                     diagnostics; exits nonzero if any diagnostic
 *                     fails equivalence verification
 *     --json          with --analyze: emit the analysis reports as one
 *                     JSON document on stdout (nothing else is printed)
 *     --suite NAME    compile the named paper-suite workload
 *                     (workloads/suite.h, e.g. sqrt-n3, MAXCUT-line)
 *                     instead of reading a QASM file
 *
 * Error-policy note (docs/ARCHITECTURE.md "Error handling"): the
 * library reports recoverable problems — malformed QASM, impossible
 * device configs, corrupt pulse libraries, expired deadlines — as
 * Status values; this CLI is the one place they are turned into an
 * error message and a nonzero exit.
 */
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>

#include "analysis/diagnostics.h"
#include "compiler/compiler.h"
#include "compiler/fidelity.h"
#include "compiler/pipeline.h"
#include "compiler/pulseplan.h"
#include "device/topology.h"
#include "ir/qasm.h"
#include "util/json.h"
#include "verify/verify.h"
#include "workloads/suite.h"

using namespace qaic;

namespace {

int
usage(const char *argv0)
{
    std::fprintf(stderr,
                 "usage: %s [--strategy isa|cls|handopt|cls-handopt|agg|"
                 "cls-agg] [--width N]\n"
                 "          [--topology line|ring|grid|heavy-hex|"
                 "random-regular|full]\n"
                 "          [--router baseline|lookahead] [--line] "
                 "[--pulses FILE]\n"
                 "          [--pulse-lib FILE] [--schedule] [--timings] "
                 "[--verify]\n"
                 "          [--check-invariants] [--deadline MS] "
                 "[--opt] [--opt-report]\n"
                 "          [--analyze] [--json]\n"
                 "          (circuit.qasm | --suite WORKLOAD)\n",
                 argv0);
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    Strategy strategy = Strategy::kClsAggregation;
    Topology topology = Topology::kGrid;
    RouterKind router = RouterKind::kLookahead;
    int width = 10;
    double deadline_ms = 0.0;
    bool print_schedule = false, print_timings = false, verify = false;
    bool check_invariants = kCheckInvariantsDefault;
    bool analyze = false, json = false;
    bool optimize = false, opt_report = false;
    std::string pulses_path, pulse_lib_path, input_path, suite_name;

    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        if (arg == "--strategy" && i + 1 < argc) {
            if (!strategyFromName(argv[++i], &strategy)) {
                std::fprintf(stderr, "unknown strategy '%s'\n", argv[i]);
                return usage(argv[0]);
            }
        } else if (arg == "--width" && i + 1 < argc) {
            width = std::atoi(argv[++i]);
            if (width < 2)
                return usage(argv[0]);
        } else if (arg == "--topology" && i + 1 < argc) {
            if (!topologyFromName(argv[++i], &topology)) {
                std::fprintf(stderr, "unknown topology '%s'\n", argv[i]);
                return usage(argv[0]);
            }
        } else if (arg == "--router" && i + 1 < argc) {
            if (!routerFromName(argv[++i], &router)) {
                std::fprintf(stderr, "unknown router '%s'\n", argv[i]);
                return usage(argv[0]);
            }
        } else if (arg == "--line") {
            topology = Topology::kLine;
        } else if (arg == "--pulses" && i + 1 < argc) {
            pulses_path = argv[++i];
        } else if (arg == "--pulse-lib" && i + 1 < argc) {
            pulse_lib_path = argv[++i];
        } else if (arg == "--schedule") {
            print_schedule = true;
        } else if (arg == "--timings") {
            print_timings = true;
        } else if (arg == "--verify") {
            verify = true;
        } else if (arg == "--check-invariants") {
            check_invariants = true;
        } else if (arg == "--opt") {
            optimize = true;
        } else if (arg == "--opt-report") {
            opt_report = true;
        } else if (arg == "--analyze") {
            analyze = true;
        } else if (arg == "--json") {
            json = true;
        } else if (arg == "--suite" && i + 1 < argc) {
            suite_name = argv[++i];
        } else if (arg == "--deadline" && i + 1 < argc) {
            deadline_ms = std::atof(argv[++i]);
            if (deadline_ms <= 0)
                return usage(argv[0]);
        } else if (arg.rfind("--", 0) == 0) {
            return usage(argv[0]);
        } else if (input_path.empty()) {
            input_path = arg;
        } else {
            return usage(argv[0]);
        }
    }
    if (input_path.empty() == suite_name.empty())
        return usage(argv[0]); // exactly one input source
    if (json && !analyze) {
        std::fprintf(stderr, "--json requires --analyze\n");
        return usage(argv[0]);
    }
    if (opt_report && !optimize) {
        std::fprintf(stderr, "--opt-report requires --opt\n");
        return usage(argv[0]);
    }

    Circuit input(1);
    std::string input_label;
    if (!suite_name.empty()) {
        bool found = false;
        for (const BenchmarkSpec &spec : paperBenchmarkSuite())
            if (spec.name == suite_name) {
                input = spec.circuit;
                found = true;
                break;
            }
        if (!found) {
            std::fprintf(stderr, "unknown suite workload '%s'; one of:",
                         suite_name.c_str());
            for (const BenchmarkSpec &spec : paperBenchmarkSuite())
                std::fprintf(stderr, " %s", spec.name.c_str());
            std::fprintf(stderr, "\n");
            return 1;
        }
        input_label = suite_name;
    } else {
        std::ifstream in(input_path);
        if (!in) {
            std::fprintf(stderr, "cannot open %s\n", input_path.c_str());
            return 1;
        }
        std::stringstream buffer;
        buffer << in.rdbuf();
        StatusOr<Circuit> circuit = parseQasm(buffer.str());
        if (!circuit.isOk()) {
            std::fprintf(stderr, "%s: %s\n", input_path.c_str(),
                         circuit.status().toString().c_str());
            return 1;
        }
        input = std::move(circuit).value();
        input_label = input_path;
    }

    CompilerOptions options;
    options.maxInstructionWidth = width;
    options.pulseLibraryPath = pulse_lib_path;
    options.routing.router = router;
    options.checkInvariants = check_invariants;
    options.deadlineMs = deadline_ms;
    options.analyze = analyze;
    options.optimize = optimize;
    StatusOr<DeviceModel> device_or = deviceFromUserConfig(
        topologyName(topology), input.numQubits(), options.seed);
    if (!device_or.isOk()) {
        std::fprintf(stderr, "%s\n",
                     device_or.status().toString().c_str());
        return 1;
    }
    DeviceModel device = std::move(device_or).value();
    Compiler compiler(device, options);
    StatusOr<CompilationResult> compiled =
        compiler.tryCompile(input, strategy);
    if (!compiled.isOk()) {
        std::fprintf(stderr, "%s: %s\n", input_label.c_str(),
                     compiled.status().toString().c_str());
        return 1;
    }
    CompilationResult result = std::move(compiled).value();

    int analysis_failures = 0;
    for (const AnalysisReport &report : result.analyses)
        analysis_failures += report.failedVerification;

    if (json) {
        // Machine-readable mode: one JSON document, nothing else.
        std::string out = "{\"input\":\"" + jsonEscape(input_label) +
                          "\",\"strategy\":\"" +
                          jsonEscape(strategyName(strategy)) +
                          "\",\"topology\":\"" +
                          jsonEscape(topologyName(topology)) +
                          "\",\"reports\":[";
        for (std::size_t i = 0; i < result.analyses.size(); ++i)
            out += (i ? "," : "") + result.analyses[i].toJson();
        out += "]}";
        std::printf("%s\n", out.c_str());
        return analysis_failures ? 1 : 0;
    }

    std::printf("input      : %s (%zu gates, %d qubits)\n",
                input_label.c_str(), input.size(), input.numQubits());
    std::printf("device     : %s, %d qubits (%zu couplers, diameter %d)\n",
                topologyName(topology).c_str(), device.numQubits(),
                device.couplings().size(), device.diameter());
    std::printf("strategy   : %s (width <= %d), %s router\n",
                strategyName(strategy).c_str(), width,
                routerName(router).c_str());
    std::printf("latency    : %.1f ns\n", result.latencyNs);
    std::printf("instructions: %d (%d aggregated, widest %d), %d SWAPs\n",
                result.instructionCount, result.aggregateCount,
                result.maxWidth, result.swapCount);
    if (result.degraded)
        std::printf("degraded   : %s\n", result.degradedReason.c_str());

    FidelityEstimate fidelity =
        estimateFidelity(result.schedule, device.numQubits());
    std::printf("est. output fidelity: %.4f (decoherence %.4f, control "
                "%.4f)\n",
                fidelity.total, fidelity.decoherence, fidelity.control);

    if (opt_report) {
        const OptStats &opt = result.optStats;
        std::printf("\noptimizer:\n");
        std::printf("  cancelled inverse pairs : %d\n",
                    opt.cancelledPairs);
        std::printf("  merged rotations        : %d\n",
                    opt.mergedRotations);
        std::printf("  erased identity windows : %d\n",
                    opt.erasedIdentityWindows);
        std::printf("  analyzer fixes applied  : %d\n",
                    opt.analyzerFixesApplied);
        std::printf("  phase-poly regions      : %d (%d rewritten)\n",
                    opt.phasePolyRegions, opt.phasePolyRewrites);
        std::printf("  weyl runs               : %d (%d rewritten)\n",
                    opt.weylRuns, opt.weylRewrites);
        std::printf("  gate delta              : %d (%d two-qubit)\n",
                    opt.gateDelta, opt.twoQubitGateDelta);
        if (opt.latencyFallbacks > 0)
            std::printf("  latency guard           : kept the plain "
                        "result (optimized circuit routed worse)\n");
    }

    if (analyze) {
        std::printf("\n");
        for (const AnalysisReport &report : result.analyses)
            std::printf("%s", report.toString().c_str());
        if (analysis_failures)
            std::fprintf(stderr,
                         "analysis: %d diagnostic(s) FAILED equivalence "
                         "verification (analyzer bug)\n",
                         analysis_failures);
    }

    if (print_timings) {
        std::printf("\npasses:\n");
        for (const PassMetrics &m : result.passMetrics)
            std::printf("  %-22s %8.2f ms  (%d instructions)\n",
                        m.pass.c_str(), m.wallMs, m.instructionsAfter);
        CachingOracle::Stats cache = compiler.oracleHandle()->stats();
        std::printf("latency cache: %zu hits, %zu misses (%.1f%% hit "
                    "rate), %zu entries, %zu in flight (peak %zu)\n",
                    cache.hits, cache.misses, 100.0 * cache.hitRate(),
                    cache.entries, cache.inflight, cache.peakInflight);
        if (auto library = compiler.oracleHandle()->library()) {
            PulseLibrary::Stats lib = library->stats();
            std::printf("pulse library: %zu hits, %zu warm starts, %zu "
                        "stored, %zu loaded from %s (%zu entries)\n",
                        lib.hits, lib.warmStarts, lib.stores, lib.loaded,
                        library->path().c_str(), lib.entries);
        }
    }

    if (print_schedule) {
        std::printf("\nschedule:\n");
        for (const ScheduledOp &op : result.schedule.ops)
            std::printf("  t=%8.1f  %-40s %.1f ns\n", op.start,
                        op.gate.toString().c_str(), op.duration);
    }

    if (verify) {
        bool ok = circuitsEquivalent(result.routing.physical,
                                     result.physicalCircuit, 1e-6, 6);
        std::printf("backend semantics: %s\n", ok ? "OK" : "FAIL");
        if (!ok)
            return 1;
    }

    if (!pulses_path.empty()) {
        PulsePlanOptions plan_options;
        plan_options.grape.maxIterations = 500;
        plan_options.grape.restarts = 2;
        PulsePlan plan =
            emitPulsePlan(result.schedule, device, plan_options);
        std::ofstream out(pulses_path);
        out << plan.timeline.toCsv(device);
        std::printf("pulse program: %s (%.1f ns, %d synthesized, worst "
                    "fidelity %.4f)\n",
                    pulses_path.c_str(), plan.duration(),
                    plan.synthesizedCount, plan.worstFidelity);
    }
    return analysis_failures ? 1 : 0;
}
