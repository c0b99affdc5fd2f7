#include "compiler/compiler.h"

#include "compiler/pipeline.h"
#include "util/logging.h"

namespace qaic {

std::string
strategyName(Strategy strategy)
{
    switch (strategy) {
      case Strategy::kIsa: return "ISA";
      case Strategy::kCls: return "CLS";
      case Strategy::kHandOpt: return "HandOpt";
      case Strategy::kClsHandOpt: return "CLS+HandOpt";
      case Strategy::kAggregation: return "Aggregation";
      case Strategy::kClsAggregation: return "CLS+Aggregation";
    }
    QAIC_PANIC() << "unhandled strategy";
}

bool
strategyFromName(const std::string &name, Strategy *strategy)
{
    QAIC_CHECK(strategy != nullptr);
    for (Strategy s : kAllStrategies) {
        if (name == strategyName(s)) {
            *strategy = s;
            return true;
        }
    }
    // CLI short forms.
    if (name == "isa") *strategy = Strategy::kIsa;
    else if (name == "cls") *strategy = Strategy::kCls;
    else if (name == "handopt") *strategy = Strategy::kHandOpt;
    else if (name == "cls-handopt") *strategy = Strategy::kClsHandOpt;
    else if (name == "agg") *strategy = Strategy::kAggregation;
    else if (name == "cls-agg") *strategy = Strategy::kClsAggregation;
    else return false;
    return true;
}

// Defined here, where PassMetrics (pipeline.h) is complete, because
// CompilationResult holds a std::vector of it.
CompilationResult::CompilationResult() : physicalCircuit(1) {}
CompilationResult::CompilationResult(const CompilationResult &) = default;
CompilationResult::CompilationResult(CompilationResult &&) noexcept =
    default;
CompilationResult &
CompilationResult::operator=(const CompilationResult &) = default;
CompilationResult &
CompilationResult::operator=(CompilationResult &&) noexcept = default;
CompilationResult::~CompilationResult() = default;

Compiler::Compiler(DeviceModel device, CompilerOptions options)
    : device_(std::move(device)),
      options_(resolveCompilerOptions(device_, options)),
      oracle_(makeCachingOracle(options_))
{
}

StatusOr<CompilationResult>
Compiler::tryCompile(const Circuit &logical, Strategy strategy)
{
    CompilationContext context(device_, options_, oracle_, &checker_);
    return compileStrategy(logical, strategy, context);
}

CompilationResult
Compiler::compile(const Circuit &logical, Strategy strategy)
{
    StatusOr<CompilationResult> result = tryCompile(logical, strategy);
    if (!result.isOk())
        QAIC_FATAL() << result.status().toString();
    return std::move(result).value();
}

} // namespace qaic
