/**
 * @file
 * qaic_perfbench — the repository benchmark program.
 *
 * Runs one named workload, checks every compiled output, prints one row
 * per program and cell and every metric with its unit, then a final
 * JSON line:
 *
 *   {"correct": ..., "attempted": N, "failed": N, "metrics": {...}}
 *
 * With --trace 0 the metrics are the end-to-end ones; with --trace 1
 * they are the per-layer ones, from the traced wrappers of trace.h.
 *
 * Workloads (each in its own process; compiles run on one thread):
 *   fig9-agg     Table-3 programs x {isa, cls-handopt, cls-agg} on the
 *                grid, baseline router, one cold compile per cell
 *   opt-sweep    the same programs x {isa, cls-handopt}, lookahead
 *                router, optimizer + latency guard, analytic oracle
 *   tier1-grape  bell-chain and qft-slice at the daemon's tier-1
 *                settings (lookahead, GRAPE, optimizer + guard, width 4)
 *   qaiccd-mix   the real qaiccd driven as a closed loop (mix.cc)
 *
 * Usage:
 *   qaic_perfbench --workload NAME --seed N --seconds S --trace 0|1
 *                  --qaiccd PATH --reference FILE [--spans-dir DIR]
 *                  [--reduced] [--write-reference]
 *
 * --reduced shrinks every workload's input (the self-test uses it);
 * --write-reference records the output digests instead of checking
 * them. Exits 0 only when every output passed its checks.
 */
#include <cstdio>
#include <cstdlib>
#include <string>

#include "checks.h"
#include "common.h"

using namespace perfbench;

int
main(int argc, char **argv)
{
    Args args;
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        const bool has_value = i + 1 < argc;
        if (a == "--reduced") {
            args.reduced = true;
        } else if (a == "--write-reference") {
            args.writeReference = true;
        } else if (!has_value) {
            std::fprintf(stderr, "%s needs a value\n", a.c_str());
            return 2;
        } else if (a == "--workload") {
            args.workload = argv[++i];
        } else if (a == "--seed") {
            args.seed = std::strtoull(argv[++i], nullptr, 10);
        } else if (a == "--seconds") {
            args.seconds = std::strtod(argv[++i], nullptr);
        } else if (a == "--trace") {
            args.trace = std::string(argv[++i]) != "0";
        } else if (a == "--qaiccd") {
            args.qaiccd = argv[++i];
        } else if (a == "--reference") {
            args.reference = argv[++i];
        } else if (a == "--spans-dir") {
            args.spansDir = argv[++i];
        } else {
            std::fprintf(stderr, "unknown argument %s\n", a.c_str());
            return 2;
        }
    }

    void (*run)(const Args &, Report &, Reference &) = nullptr;
    if (args.workload == "fig9-agg")
        run = runFig9;
    else if (args.workload == "opt-sweep")
        run = runOptSweep;
    else if (args.workload == "tier1-grape")
        run = runTier1Grape;
    else if (args.workload == "qaiccd-mix")
        run = runQaiccdMix;
    if (!run) {
        std::fprintf(stderr, "unknown workload '%s'\n",
                     args.workload.c_str());
        return 2;
    }

    Reference reference(args.reference);
    if (args.writeReference)
        reference.record();
    Report report;
    {
        CpuRotation rotation;
        run(args, report, reference);
    }
    if (args.writeReference && !reference.save()) {
        std::fprintf(stderr, "cannot write %s\n", args.reference.c_str());
        return 1;
    }
    report.print();
    return report.correct() ? 0 : 1;
}
