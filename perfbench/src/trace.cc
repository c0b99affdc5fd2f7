#include "trace.h"

#include <chrono>
#include <cstdio>
#include <utility>

#include "opt/opt.h"
#include "util/logging.h"

using namespace qaic;

namespace perfbench {

double
nowNs()
{
    return static_cast<double>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

int
Tracer::open(std::string name)
{
    Span span;
    span.name = std::move(name);
    span.parent = stack_.empty() ? -1 : stack_.back();
    span.startNs = nowNs();
    spans.push_back(std::move(span));
    stack_.push_back(static_cast<int>(spans.size()) - 1);
    return stack_.back();
}

void
Tracer::close(int span)
{
    QAIC_CHECK(!stack_.empty() && stack_.back() == span)
        << "spans must close innermost first";
    spans[static_cast<std::size_t>(span)].endNs = nowNs();
    stack_.pop_back();
}

TracedPass::TracedPass(std::unique_ptr<Pass> inner, Tracer &tracer,
                       bool twin)
    : inner_(std::move(inner)), tracer_(tracer), twin_(twin),
      name_(inner_->name())
{
}

Status
TracedPass::run(CompilationContext &context)
{
    const double inner_before = tracer_.missNs;
    const int span =
        tracer_.open((twin_ ? "guard-twin/" : "pass/") + name_);
    Status status = inner_->run(context);
    tracer_.close(span);
    const Span &s = tracer_.spans[static_cast<std::size_t>(span)];
    const double wall_ms = (s.endNs - s.startNs) / 1e6;
    if (twin_) {
        tracer_.twinMs += wall_ms;
        return status;
    }
    PassTotals &totals = tracer_.passes[name_];
    totals.wallMs += wall_ms;
    totals.selfMs += wall_ms - (tracer_.missNs - inner_before) / 1e6;
    totals.irOut += static_cast<long long>(
        context.backendDone ? context.physical.size()
                            : context.working.size());
    ++totals.runs;
    return status;
}

InvariantSet
TracedPass::requiredInvariants() const
{
    return inner_->requiredInvariants();
}

InvariantSet
TracedPass::establishedInvariants() const
{
    return inner_->establishedInvariants();
}

InvariantSet
TracedPass::preservedInvariants() const
{
    return inner_->preservedInvariants();
}

Pipeline
tracedPipeline(Strategy strategy, bool optimize, Tracer &tracer, bool twin)
{
    Pipeline p;
    p.label(strategy);
    auto add = [&](std::unique_ptr<Pass> pass) {
        p.add(std::make_unique<TracedPass>(std::move(pass), tracer, twin));
    };
    add(std::make_unique<FrontendLoweringPass>());
    if (optimize) {
        add(std::make_unique<OptPeepholePass>(/*seed_with_analyzer=*/true));
        add(std::make_unique<OptPhasePolyPass>());
        add(std::make_unique<OptWeylPass>());
        add(std::make_unique<OptPeepholePass>(/*seed_with_analyzer=*/false));
    }
    if (strategy == Strategy::kCls || strategy == Strategy::kClsHandOpt ||
        strategy == Strategy::kClsAggregation)
        add(std::make_unique<ClsFrontendPass>());
    add(std::make_unique<MappingPass>());
    switch (strategy) {
      case Strategy::kIsa:
      case Strategy::kCls:
        add(std::make_unique<GateBackendPass>(/*hand_optimize=*/false));
        add(std::make_unique<AsapSchedulePass>());
        break;
      case Strategy::kHandOpt:
      case Strategy::kClsHandOpt:
        add(std::make_unique<GateBackendPass>(/*hand_optimize=*/true));
        add(std::make_unique<AsapSchedulePass>());
        break;
      case Strategy::kAggregation:
        add(std::make_unique<AggregationBackendPass>());
        add(std::make_unique<AsapSchedulePass>());
        break;
      case Strategy::kClsAggregation:
        add(std::make_unique<AggregationBackendPass>());
        add(std::make_unique<ClsSchedulePass>());
        break;
    }
    QAIC_CHECK(p.passNames() ==
               Pipeline::forStrategy(strategy, /*analyze=*/false, optimize)
                   .passNames())
        << "traced pipeline no longer mirrors Pipeline::forStrategy";
    return p;
}

namespace {

/** Counts and times the misses the cache sends to the pricing oracle. */
class TracedInnerOracle : public LatencyOracle
{
  public:
    TracedInnerOracle(std::shared_ptr<LatencyOracle> inner, Tracer &tracer,
                      int grape_max_width)
        : inner_(std::move(inner)), tracer_(tracer),
          grapeMaxWidth_(grape_max_width)
    {
    }

    double
    latencyNs(const Gate &gate) override
    {
        const bool search = gate.width() <= grapeMaxWidth_;
        const int span =
            tracer_.open(search ? "oracle/grape-search" : "oracle/miss");
        const double latency = inner_->latencyNs(gate);
        tracer_.close(span);
        const Span &s = tracer_.spans[static_cast<std::size_t>(span)];
        const double ns = s.endNs - s.startNs;
        ++tracer_.misses;
        tracer_.missNs += ns;
        if (search) {
            ++tracer_.grapeSearches;
            tracer_.grapeNs += ns;
        }
        return latency;
    }

    std::string name() const override { return inner_->name(); }
    std::string originTag() const override { return inner_->originTag(); }
    const AnalyticModelParams *
    modelParams() const override
    {
        return inner_->modelParams();
    }
    std::uint64_t
    degradedCount() const override
    {
        return inner_->degradedCount();
    }

  private:
    std::shared_ptr<LatencyOracle> inner_;
    Tracer &tracer_;
    /** Widths the GRAPE oracle searches; 0 for the analytic oracle. */
    int grapeMaxWidth_;
};

/** Counts and times every lookup, hits and misses alike. */
class TracedCachingOracle : public CachingOracle
{
  public:
    TracedCachingOracle(std::shared_ptr<LatencyOracle> inner,
                        Tracer &tracer, bool library_io)
        : CachingOracle(std::move(inner), nullptr, library_io),
          tracer_(tracer)
    {
    }

    double
    latencyNs(const Gate &gate) override
    {
        const double start = nowNs();
        const double latency = CachingOracle::latencyNs(gate);
        tracer_.lookupNs += nowNs() - start;
        ++tracer_.lookups;
        return latency;
    }

  private:
    Tracer &tracer_;
};

} // namespace

std::shared_ptr<CachingOracle>
makeTracedOracle(const CompilerOptions &resolved, Tracer &tracer)
{
    std::shared_ptr<LatencyOracle> inner;
    int grape_max_width = 0;
    if (resolved.useGrapeOracle) {
        inner = std::make_shared<GrapeLatencyOracle>(resolved.grapeOptions,
                                                     resolved.model);
        grape_max_width = resolved.grapeOptions.maxWidth;
    } else {
        inner = std::make_shared<AnalyticOracle>(resolved.model);
    }
    return std::make_shared<TracedCachingOracle>(
        std::make_shared<TracedInnerOracle>(std::move(inner), tracer,
                                            grape_max_width),
        tracer, /*library_io=*/!resolved.useGrapeOracle);
}

bool
writeSpans(const Tracer &tracer, const std::string &path)
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (!f)
        return false;
    const double origin =
        tracer.spans.empty() ? 0.0 : tracer.spans.front().startNs;
    std::fprintf(f, "{\"spans\": [");
    for (std::size_t i = 0; i < tracer.spans.size(); ++i) {
        const Span &s = tracer.spans[i];
        std::fprintf(f,
                     "%s\n  {\"id\": %zu, \"name\": \"%s\", \"start_us\": "
                     "%.3f, \"end_us\": %.3f, \"parent\": %d}",
                     i ? "," : "", i, s.name.c_str(),
                     (s.startNs - origin) / 1e3, (s.endNs - origin) / 1e3,
                     s.parent);
    }
    std::fprintf(f, "\n]}\n");
    return std::fclose(f) == 0;
}

} // namespace perfbench
