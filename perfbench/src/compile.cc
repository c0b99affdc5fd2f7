/**
 * @file
 * The compile workloads: fig9-agg, opt-sweep and tier1-grape.
 *
 * A pass compiles every cell of the workload's fixed compile set once,
 * cold (a fresh context and oracle per cell), on the calling thread.
 * The pass is checked in full outside the timed region; compile_s is
 * the sum of its cell times. A traced run makes one untraced and one
 * traced pass and compares them.
 */
#include <algorithm>
#include <cstdio>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "checks.h"
#include "common.h"
#include "compiler/pipeline.h"
#include "device/topology.h"
#include "ir/qasm.h"
#include "trace.h"
#include "workloads/suite.h"

using namespace qaic;

namespace perfbench {

namespace {

struct Cell
{
    std::string program;
    std::string label;
    Strategy strategy = Strategy::kIsa;
    Circuit circuit{1};
    DeviceModel device = DeviceModel::line(2);
    CompilerOptions options;
    /** Optimizer on, compiled through compileWithLatencyGuard. */
    bool guard = false;

    std::string name() const { return program + "/" + label; }
};

const char *
labelOf(Strategy strategy)
{
    switch (strategy) {
      case Strategy::kIsa: return "isa";
      case Strategy::kClsHandOpt: return "cls-handopt";
      case Strategy::kClsAggregation: return "cls-agg";
      default: return "other";
    }
}

/** The Table-3 suite; reduced: five programs at 0.3 scale. */
std::vector<BenchmarkSpec>
suiteFor(bool reduced)
{
    if (!reduced)
        return paperBenchmarkSuite(1.0);
    std::vector<BenchmarkSpec> small;
    for (const char *name :
         {"MAXCUT-line", "MAXCUT-reg4", "Ising-n30", "sqrt-n3", "UCCSD-n4"})
        small.push_back(benchmarkByName(name, 0.3));
    return small;
}

std::vector<Cell>
suiteCells(bool reduced, const CompilerOptions &options, bool guard,
           std::initializer_list<Strategy> strategies)
{
    std::vector<Cell> cells;
    for (const BenchmarkSpec &spec : suiteFor(reduced)) {
        const DeviceModel device =
            DeviceModel::gridFor(spec.circuit.numQubits());
        for (Strategy s : strategies)
            cells.push_back({spec.name, labelOf(s), s, spec.circuit, device,
                             options, guard});
    }
    return cells;
}

std::vector<Cell>
fig9Cells(bool reduced)
{
    // bench_fig9's configuration: the paper's greedy router.
    CompilerOptions options;
    options.routing.router = RouterKind::kBaseline;
    return suiteCells(reduced, options, false,
                      {Strategy::kIsa, Strategy::kClsHandOpt,
                       Strategy::kClsAggregation});
}

std::vector<Cell>
optCells(bool reduced)
{
    CompilerOptions options;
    options.routing.router = RouterKind::kLookahead;
    options.optimize = true;
    return suiteCells(reduced, options, true,
                      {Strategy::kIsa, Strategy::kClsHandOpt});
}

std::vector<Cell>
grapeCells(bool reduced)
{
    // The daemon's tier-1 settings (CompileService::compileTier) with
    // the request defaults of bench_service: cls-agg, width 4.
    CompilerOptions options;
    options.useGrapeOracle = true;
    options.routing.router = RouterKind::kLookahead;
    options.optimize = true;
    options.maxInstructionWidth = 4;
    if (reduced) {
        options.grapeOptions.grape.maxIterations = 200;
        options.grapeOptions.grape.restarts = 1;
    }
    std::vector<Cell> cells;
    for (const char *name : {"bell-chain", "qft-slice"}) {
        const PoolCircuit &pool = poolCircuit(name);
        Circuit circuit = parseQasm(pool.qasm).value();
        DeviceModel device = deviceFromUserConfig(pool.topology,
                                                  circuit.numQubits(),
                                                  options.seed)
                                 .value();
        cells.push_back({name, "cls-agg", Strategy::kClsAggregation,
                         circuit, device, options, true});
    }
    return cells;
}

StatusOr<CompilationResult>
compileCell(const Cell &cell, Tracer *tracer)
{
    if (!tracer) {
        CompilationContext context(cell.device, cell.options);
        Pipeline pipeline =
            Pipeline::forStrategy(cell.strategy, false, cell.guard);
        if (!cell.guard)
            return pipeline.compile(cell.circuit, context);
        return compileWithLatencyGuard(pipeline,
                                       Pipeline::forStrategy(cell.strategy),
                                       cell.circuit, context);
    }
    CompilationContext context(
        cell.device, cell.options,
        makeTracedOracle(resolveCompilerOptions(cell.device, cell.options),
                         *tracer));
    Pipeline pipeline =
        tracedPipeline(cell.strategy, cell.guard, *tracer, false);
    if (!cell.guard)
        return pipeline.compile(cell.circuit, context);
    return compileWithLatencyGuard(
        pipeline, tracedPipeline(cell.strategy, false, *tracer, true),
        cell.circuit, context);
}

/** One pass over the compile set. */
struct PassRun
{
    /** Summed compile wall time of the cells (s). */
    double compileS = 0.0;
    std::vector<double> cellMs;
    /** "" for a cell whose compile failed. */
    std::vector<std::string> digests;
    std::vector<double> latencyNs;
    OptStats optStats;
    int degraded = 0;
    /** Highest peak resident set of one compile (MB), -1 if unread. */
    double peakRssMb = 0.0;
};

using CellCheck =
    std::function<void(std::size_t, const StatusOr<CompilationResult> &)>;

/**
 * Compiles every cell once; @p check runs outside the timed region. The
 * peak resident set restarts before each compile and is read before its
 * check, so the checker's own memory (dense state vectors of up to 2^28
 * amplitudes) never sets it.
 */
PassRun
runPass(const std::vector<Cell> &cells, Tracer *tracer,
        const CellCheck &check)
{
    PassRun run;
    for (std::size_t i = 0; i < cells.size(); ++i) {
        if (!resetPeakRss())
            run.peakRssMb = -1.0;
        const int span =
            tracer ? tracer->open("compile/" + cells[i].name()) : -1;
        const double start = nowNs();
        StatusOr<CompilationResult> result = compileCell(cells[i], tracer);
        const double ms = (nowNs() - start) / 1e6;
        if (tracer)
            tracer->close(span);
        const double peak = peakRssMb();
        if (run.peakRssMb >= 0.0)
            run.peakRssMb = peak < 0.0 ? -1.0 : std::max(run.peakRssMb, peak);
        run.compileS += ms / 1e3;
        run.cellMs.push_back(ms);
        run.digests.push_back(result.isOk() ? digest(result.value()) : "");
        run.latencyNs.push_back(result.isOk() ? result.value().latencyNs
                                              : 0.0);
        if (result.isOk()) {
            run.optStats += result.value().optStats;
            run.degraded += result.value().degraded ? 1 : 0;
        }
        check(i, result);
    }
    return run;
}

void
printCells(const std::vector<Cell> &cells, const PassRun &run)
{
    for (std::size_t i = 0; i < cells.size(); ++i)
        std::printf("cell %-16s %-12s compile_ms=%10.3f latency_ns=%9.1f  "
                    "%s\n",
                    cells[i].program.c_str(), cells[i].label.c_str(),
                    run.cellMs[i], run.latencyNs[i],
                    run.digests[i].c_str());
}

void
printOutputGeomean(const PassRun &run)
{
    std::vector<double> latencies;
    for (double l : run.latencyNs)
        if (l > 0.0)
            latencies.push_back(l);
    std::printf("latency_geomean_ns %.3f ns\n", geomean(latencies));
}

/**
 * The Figure 9 geomeans with one cold oracle per cell. bench_fig9 shares
 * one latency cache across its whole batch; the cache keys round the
 * unitaries, so pricing there depends on compile order (5.18x-5.19x).
 */
const std::string kFigure9AggGeomean = "5.16";
const std::string kFigure9HandOptGeomean = "2.43";

/** Figure 9 geomeans over fig9Cells' (isa, cls-handopt, cls-agg) rows. */
void
checkFigure9(Report &report, const PassRun &run, bool reduced)
{
    std::vector<double> agg, hand;
    for (std::size_t i = 0; i + 2 < run.latencyNs.size(); i += 3) {
        const double isa = run.latencyNs[i];
        hand.push_back(isa / run.latencyNs[i + 1]);
        agg.push_back(isa / run.latencyNs[i + 2]);
    }
    char agg_text[32], hand_text[32];
    std::snprintf(agg_text, sizeof(agg_text), "%.2f", geomean(agg));
    std::snprintf(hand_text, sizeof(hand_text), "%.2f", geomean(hand));
    std::printf("speedup_geomean %s x  CLS+Aggregation over ISA "
                "(paper: 5.07x)\n",
                agg_text);
    std::printf("speedup_geomean_handopt %s x  CLS+HandOpt over ISA "
                "(paper: 2.34x)\n",
                hand_text);
    if (reduced)
        return;
    report.check(std::string(agg_text) == kFigure9AggGeomean,
                 "CLS+Aggregation geomean " + std::string(agg_text) +
                     "x, expected " + kFigure9AggGeomean + "x");
    report.check(std::string(hand_text) == kFigure9HandOptGeomean,
                 "CLS+HandOpt geomean " + std::string(hand_text) +
                     "x, expected " + kFigure9HandOptGeomean + "x");
}

/** Per-layer numbers of a traced pass, against its untraced twin. */
std::map<std::string, double>
layerValues(const Tracer &tracer, const PassRun &traced,
            const PassRun &untraced)
{
    std::map<std::string, double> v;
    double covered_ms = tracer.twinMs;
    for (const auto &[name, totals] : tracer.passes) {
        v["pass." + name + ".ms"] = totals.selfMs;
        v["pass." + name + ".ir_out"] = static_cast<double>(totals.irOut);
        covered_ms += totals.wallMs;
    }
    v["oracle.lookups"] = static_cast<double>(tracer.lookups);
    v["oracle.misses"] = static_cast<double>(tracer.misses);
    v["oracle.hit_share"] =
        tracer.lookups ? static_cast<double>(tracer.lookups - tracer.misses) /
                             static_cast<double>(tracer.lookups)
                       : 0.0;
    v["oracle.lookup_ms"] = (tracer.lookupNs - tracer.missNs) / 1e6;
    v["oracle.miss_ms"] = tracer.missNs / 1e6;
    v["grape.searches"] = static_cast<double>(tracer.grapeSearches);
    v["grape.search_ms"] = tracer.grapeNs / 1e6;
    v["grape.degraded"] = traced.degraded;
    const OptStats &o = traced.optStats;
    v["opt.cancelled_pairs"] = o.cancelledPairs;
    v["opt.merged_rotations"] = o.mergedRotations;
    v["opt.erased_identity_windows"] = o.erasedIdentityWindows;
    v["opt.analyzer_fixes"] = o.analyzerFixesApplied;
    v["opt.phasepoly_rewrites"] = o.phasePolyRewrites;
    v["opt.weyl_rewrites"] = o.weylRewrites;
    v["guard.twin_ms"] = tracer.twinMs;
    v["guard.fallbacks"] = o.latencyFallbacks;
    const Tail tail = tailOf(untraced.cellMs);
    v["op_ms_p50"] = median(untraced.cellMs);
    v["op_ms_tail"] = tail.defined ? tail.value : 0.0;
    v["trace.overhead_share"] = traced.compileS / untraced.compileS - 1.0;
    v["trace.uncovered_share"] = 1.0 - covered_ms / (traced.compileS * 1e3);

    std::printf("traced compile_s %.3f vs untraced %.3f; named spans cover "
                "%.1f%% of the traced compile time\n",
                traced.compileS, untraced.compileS,
                100.0 * covered_ms / (traced.compileS * 1e3));
    for (const auto &[name, totals] : tracer.passes)
        std::printf("layer pass.%-20s self_ms=%10.1f wall_ms=%10.1f "
                    "runs=%lld\n",
                    name.c_str(), totals.selfMs, totals.wallMs, totals.runs);
    std::printf("layer oracle lookups=%llu misses=%llu lookup_ms=%.1f "
                "miss_ms=%.1f\n",
                static_cast<unsigned long long>(tracer.lookups),
                static_cast<unsigned long long>(tracer.misses),
                v["oracle.lookup_ms"], v["oracle.miss_ms"]);
    std::printf("layer grape searches=%llu search_ms=%.1f; guard "
                "twin_ms=%.1f\n",
                static_cast<unsigned long long>(tracer.grapeSearches),
                v["grape.search_ms"], tracer.twinMs);
    return v;
}

/** Set-up samples before the first cell and during the pass. */
constexpr std::size_t kSetupSamplesAtStart = 2;
constexpr std::size_t kSetupSamplesInPass = 3;

void
runCompileWorkload(const Args &args, Report &report, Reference &reference,
                   std::vector<Cell> (*build)(bool))
{
    std::vector<Cell> rebuilt;
    SetupTimer setup([&] { rebuilt = build(args.reduced); });
    for (std::size_t i = 0; i < kSetupSamplesAtStart; ++i)
        setup.sample();
    const std::vector<Cell> cells = rebuilt;
    std::printf("workload %s: %zu cells, 1 thread (one compile at a time, "
                "GRAPE threads 1)\n",
                args.workload.c_str(), cells.size());

    // First pass: lint, equivalence, reference digest, no degradation.
    PassRun first = runPass(
        cells, nullptr,
        [&](std::size_t i, const StatusOr<CompilationResult> &r) {
            const Cell &cell = cells[i];
            std::string why;
            if (!r.isOk())
                why = r.status().toString();
            else if (r.value().degraded)
                why = "degraded: " + r.value().degradedReason;
            else
                why = checkCompiled(cell.circuit, cell.device, r.value());
            if (why.empty())
                why = reference.check(
                    std::string(args.reduced ? "reduced/" : "") +
                        args.workload + "/" + cell.name(),
                    digest(r.value()));
            report.operation(why.empty(), cell.name() + ": " + why);
            if ((i + 1) * kSetupSamplesInPass / cells.size() !=
                i * kSetupSamplesInPass / cells.size())
                setup.sample();
        });
    report.check(first.peakRssMb >= 0.0,
                 "cannot reset or read the peak resident set");
    printCells(cells, first);
    printOutputGeomean(first);
    if (args.workload == "fig9-agg")
        checkFigure9(report, first, args.reduced);

    if (args.trace) {
        Tracer tracer;
        PassRun traced = runPass(
            cells, &tracer,
            [&](std::size_t i, const StatusOr<CompilationResult> &r) {
                const std::string got = r.isOk() ? digest(r.value()) : "";
                report.check(got == first.digests[i],
                             cells[i].name() + ": traced digest '" + got +
                                 "' != untraced '" + first.digests[i] +
                                 "'");
            });
        report.perLayer(layerValues(tracer, traced, first));
        if (!args.spansDir.empty()) {
            const std::string path = args.spansDir + "/" + args.workload +
                                     "-" + std::to_string(args.seed) +
                                     ".json";
            report.check(writeSpans(tracer, path),
                         "cannot write spans to " + path);
        }
        return;
    }

    // The fixed compile set takes longer than a run's seconds, so one
    // pass is the whole measurement.
    std::printf("compile_s %.3f s\n", first.compileS);
    printLatencies("op_ms over cells", first.cellMs);
    report.endToEnd(first.compileS, setup.medianS(), first.peakRssMb);
}

} // namespace

void
runFig9(const Args &args, Report &report, Reference &reference)
{
    runCompileWorkload(args, report, reference, fig9Cells);
}

void
runOptSweep(const Args &args, Report &report, Reference &reference)
{
    runCompileWorkload(args, report, reference, optCells);
}

void
runTier1Grape(const Args &args, Report &report, Reference &reference)
{
    runCompileWorkload(args, report, reference, grapeCells);
}

} // namespace perfbench
