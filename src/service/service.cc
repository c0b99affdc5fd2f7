#include "service/service.h"

#include <algorithm>
#include <cstdio>
#include <utility>

#include "compiler/pipeline.h"
#include "ir/qasm.h"
#include "util/failpoint.h"

namespace qaic::service {

namespace {

QAIC_DEFINE_FAILPOINT(queueOverflowFp, "service_queue_overflow",
                      "admission control rejects as if the request "
                      "queue were full");
QAIC_DEFINE_FAILPOINT(promotionFailFp, "service_promotion_fail",
                      "tier-1 promotion compile fails just before the "
                      "artifact swap");
QAIC_DEFINE_FAILPOINT(flushDuringRequestFp, "service_flush_during_request",
                      "a pulse-library flush is forced while a request "
                      "is in flight");

/** Promotions must beat (or tie) tier 0; ties within rounding stay. */
constexpr double kGuardEpsilonNs = 1e-9;

/** 64-bit FNV-1a: the exposed fingerprint and the cache shard index. */
std::uint64_t
fnv1a(const std::string &bytes)
{
    std::uint64_t hash = 14695981039346656037ull;
    for (unsigned char c : bytes) {
        hash ^= c;
        hash *= 1099511628211ull;
    }
    return hash;
}

} // namespace

/**
 * An immutable cached answer. Never mutated after construction: the
 * promoter replaces the whole shared_ptr under the shard lock, so a
 * reader holds either the complete tier-0 artifact or the complete
 * tier-1 artifact — torn mixes are unrepresentable.
 */
struct CompileService::Artifact
{
    int tier = 0;
    std::string strategy;
    std::string fingerprint;
    double latencyNs = 0.0;
    double tier0LatencyNs = 0.0;
    int swaps = 0;
    int instructions = 0;
    int aggregates = 0;
    int maxWidth = 0;
    bool degraded = false;
    std::string degradedReason;
    std::vector<ReplyScheduleOp> schedule;

    /** Snapshots @p result as the tier-@p tier answer for @p key. */
    static std::shared_ptr<const Artifact>
    fromResult(const CompilationResult &result, int tier,
               double tier0_latency, Strategy strategy,
               const std::string &key)
    {
        auto artifact = std::make_shared<Artifact>();
        artifact->tier = tier;
        artifact->strategy = strategyName(strategy);
        artifact->fingerprint = requestFingerprint(key);
        artifact->latencyNs = result.latencyNs;
        artifact->tier0LatencyNs = tier0_latency;
        artifact->swaps = result.swapCount;
        artifact->instructions = result.instructionCount;
        artifact->aggregates = result.aggregateCount;
        artifact->maxWidth = result.maxWidth;
        artifact->degraded = result.degraded;
        artifact->degradedReason = result.degradedReason;
        artifact->schedule.reserve(result.schedule.ops.size());
        for (const ScheduledOp &op : result.schedule.ops)
            artifact->schedule.push_back(
                {op.start, op.duration, op.gate.toString()});
        return artifact;
    }
};

struct CompileService::CacheEntry
{
    std::shared_ptr<const Artifact> artifact;
    std::uint64_t hits = 0;
    /** One promotion attempt per fingerprint (no retry storms). */
    bool promotionQueued = false;
};

struct CompileService::CacheShard
{
    std::mutex mutex;
    std::unordered_map<std::string, CacheEntry> entries;
};

struct CompileService::QueuedRequest
{
    CompileRequest request;
    std::function<void(const ServiceReply &)> done;
};

struct CompileService::PromotionJob
{
    std::string key;
    CompileRequest request;
};

std::string
canonicalRequestKey(const CompileRequest &request, const Circuit &circuit)
{
    return strategyName(request.strategy) + '\n' +
           topologyName(request.topology) + '\n' +
           std::to_string(request.width) + '\n' + toQasm(circuit);
}

std::string
requestFingerprint(const std::string &canonical_key)
{
    char buf[17];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(fnv1a(canonical_key)));
    return buf;
}

std::string
ServiceStats::toJson() const
{
    char buf[640];
    std::snprintf(
        buf, sizeof(buf),
        "{\"requests\":%llu,\"cache_hits\":%llu,\"tier0_compiles\":%llu,"
        "\"compile_errors\":%llu,\"rejected\":%llu,\"parse_errors\":%llu,"
        "\"promotions\":%llu,\"promotion_failures\":%llu,"
        "\"guard_trips\":%llu,\"degraded_replies\":%llu,"
        "\"evictions\":%llu,"
        "\"queue_depth\":%zu,\"peak_queue_depth\":%zu,\"artifacts\":%zu,"
        "\"promotion_queue_depth\":%zu}",
        static_cast<unsigned long long>(requests),
        static_cast<unsigned long long>(cacheHits),
        static_cast<unsigned long long>(tier0Compiles),
        static_cast<unsigned long long>(compileErrors),
        static_cast<unsigned long long>(rejected),
        static_cast<unsigned long long>(parseErrors),
        static_cast<unsigned long long>(promotions),
        static_cast<unsigned long long>(promotionFailures),
        static_cast<unsigned long long>(guardTrips),
        static_cast<unsigned long long>(degradedReplies),
        static_cast<unsigned long long>(evictions), queueDepth,
        peakQueueDepth, artifacts, promotionQueueDepth);
    return buf;
}

CompileService::CompileService(ServiceOptions options)
    : options_(std::move(options)), shards_(new CacheShard[kCacheShards])
{
    // Split the cache bound evenly across shards, rounding up so the
    // configured total is a floor, never undercut by the split.
    shardCapacity_ = std::max<std::size_t>(
        1, (options_.cacheCapacity + kCacheShards - 1) / kCacheShards);

    // Tier-0 policy: answer now. Analytic pricing, the greedy baseline
    // router, no optimizer — the cheapest structurally-valid compile.
    tier0Options_.useGrapeOracle = false;
    tier0Options_.routing.router = RouterKind::kBaseline;
    tier0Options_.optimize = false;
    tier0Options_.checkInvariants = options_.checkInvariants;

    // Tier-1 policy: make it good. Lookahead routing, GRAPE pricing
    // (library-warm-started when configured) and the optimizing suite.
    tier1Options_.useGrapeOracle = options_.tier1Grape;
    tier1Options_.grapeOptions = options_.tier1GrapeOptions;
    tier1Options_.routing.router = RouterKind::kLookahead;
    tier1Options_.optimize = options_.tier1Optimize;
    tier1Options_.checkInvariants = options_.checkInvariants;
    tier1Options_.pulseLibraryPath = options_.pulseLibraryPath;

    // One shared pricing cache per tier. Every device the protocol can
    // request carries the default control limits, so sharing is sound
    // (the same precondition compileBatch checks via mu1/mu2).
    const DeviceModel reference = DeviceModel::gridFor(2);
    tier0Oracle_ =
        makeCachingOracle(resolveCompilerOptions(reference, tier0Options_));
    tier1Oracle_ =
        makeCachingOracle(resolveCompilerOptions(reference, tier1Options_));

    int workers = options_.workers;
    if (workers <= 0) {
        unsigned hw = std::thread::hardware_concurrency();
        workers = static_cast<int>(std::min(4u, hw ? hw : 1u));
    }
    workers_.reserve(static_cast<std::size_t>(workers));
    for (int i = 0; i < workers; ++i)
        workers_.emplace_back([this] { workerLoop(); });
    if (options_.enablePromotion)
        promoter_ = std::thread([this] { promoterLoop(); });
}

CompileService::~CompileService() { shutdown(); }

CompileService::CacheShard &
CompileService::shardFor(const std::string &key)
{
    return shards_[fnv1a(key) % kCacheShards];
}

void
CompileService::evictOverCapacity(CacheShard &shard,
                                  const std::string &keep_key)
{
    // Caller holds shard.mutex. Victim order: tier 0 before tier 1 (a
    // promotion cost a full lookahead+GRAPE+opt compile; recreating a
    // tier-0 artifact is cheap), then fewest hits, then lexicographic
    // key so eviction is deterministic. The entry just served
    // (keep_key) is never the victim. An evicted entry with a queued
    // promotion is harmless: promote() re-checks the cache and drops
    // the job when the entry is gone.
    while (shard.entries.size() > shardCapacity_) {
        auto victim = shard.entries.end();
        for (auto it = shard.entries.begin(); it != shard.entries.end();
             ++it) {
            if (it->first == keep_key)
                continue;
            if (victim == shard.entries.end()) {
                victim = it;
                continue;
            }
            const int it_tier =
                it->second.artifact ? it->second.artifact->tier : -1;
            const int victim_tier = victim->second.artifact
                                        ? victim->second.artifact->tier
                                        : -1;
            if (it_tier != victim_tier) {
                if (it_tier < victim_tier)
                    victim = it;
            } else if (it->second.hits != victim->second.hits) {
                if (it->second.hits < victim->second.hits)
                    victim = it;
            } else if (it->first < victim->first) {
                victim = it;
            }
        }
        if (victim == shard.entries.end())
            return; // only keep_key left; capacity >= 1 keeps it
        shard.entries.erase(victim);
        evictions_.fetch_add(1, std::memory_order_relaxed);
    }
}

Status
CompileService::submitAsync(CompileRequest request,
                            std::function<void(const ServiceReply &)> done)
{
    {
        std::lock_guard<std::mutex> lock(queueMutex_);
        if (stopping_)
            return unavailableError("service is shutting down");
        if (queue_.size() >= options_.queueCapacity ||
            queueOverflowFp.shouldFail()) {
            rejected_.fetch_add(1, std::memory_order_relaxed);
            return unavailableError(
                "request queue full (admission control): " +
                std::to_string(queue_.size()) + "/" +
                std::to_string(options_.queueCapacity) + " queued");
        }
        queue_.push_back({std::move(request), std::move(done)});
        peakQueueDepth_ = std::max(peakQueueDepth_, queue_.size());
        requests_.fetch_add(1, std::memory_order_relaxed);
    }
    queueCv_.notify_one();
    return Status::ok();
}

ServiceReply
CompileService::compileSync(CompileRequest request)
{
    const std::string id = request.id;
    auto promise = std::make_shared<std::promise<ServiceReply>>();
    std::future<ServiceReply> future = promise->get_future();
    Status admitted = submitAsync(
        std::move(request),
        [promise](const ServiceReply &reply) { promise->set_value(reply); });
    if (!admitted.isOk())
        return errorReply(id, std::move(admitted));
    return future.get();
}

std::string
CompileService::handleLine(const std::string &line)
{
    if (line.size() > options_.maxRequestBytes) {
        parseErrors_.fetch_add(1, std::memory_order_relaxed);
        return errorReply(
                   "", invalidArgumentError(
                           "oversized frame: " +
                           std::to_string(line.size()) +
                           " bytes exceeds the " +
                           std::to_string(options_.maxRequestBytes) +
                           "-byte request cap"))
            .toJson();
    }
    StatusOr<Request> parsed = parseRequest(line, options_.maxRequestBytes);
    if (!parsed.isOk()) {
        parseErrors_.fetch_add(1, std::memory_order_relaxed);
        return errorReply("", parsed.status()).toJson();
    }
    const Request &request = parsed.value();
    if (request.isControl) {
        ServiceReply reply;
        reply.id = request.compile.id;
        reply.ok = true;
        switch (request.op) {
        case ControlOp::kPing:
            reply.pong = true;
            break;
        case ControlOp::kStats:
            reply.statsJson = stats().toJson();
            break;
        case ControlOp::kShutdown:
            // The acknowledgement only; the *daemon* owns the actual
            // drain — an in-process caller invokes shutdown() itself.
            reply.shuttingDown = true;
            break;
        }
        return reply.toJson();
    }
    return compileSync(request.compile).toJson();
}

void
CompileService::workerLoop()
{
    while (true) {
        QueuedRequest job;
        {
            std::unique_lock<std::mutex> lock(queueMutex_);
            queueCv_.wait(lock, [this] {
                return stopping_ || !queue_.empty();
            });
            if (queue_.empty())
                return; // stopping_ && drained
            job = std::move(queue_.front());
            queue_.pop_front();
        }
        ServiceReply reply = process(job.request);
        if (reply.degraded)
            degradedReplies_.fetch_add(1, std::memory_order_relaxed);
        job.done(reply);
    }
}

StatusOr<CompilationResult>
CompileService::compileTier(const CompileRequest &request,
                            const Circuit &circuit, int tier)
{
    CompilerOptions opts = tier == 0 ? tier0Options_ : tier1Options_;
    opts.maxInstructionWidth = request.width;
    // The request deadline bounds the interactive tier only; promotion
    // is background work with no caller waiting on it.
    opts.deadlineMs = tier == 0 ? request.deadlineMs : 0.0;

    QAIC_ASSIGN_OR_RETURN(
        DeviceModel device,
        deviceFromUserConfig(topologyName(request.topology),
                             circuit.numQubits(), opts.seed));
    CompilationContext context(device, opts,
                               tier == 0 ? tier0Oracle_ : tier1Oracle_);
    return compileStrategy(circuit, request.strategy, context);
}

ServiceReply
CompileService::renderReply(const CompileRequest &request,
                            const Artifact &artifact, bool cached)
{
    ServiceReply reply;
    reply.id = request.id;
    reply.ok = true;
    reply.tier = artifact.tier;
    reply.cached = cached;
    reply.strategy = artifact.strategy;
    reply.fingerprint = artifact.fingerprint;
    reply.latencyNs = artifact.latencyNs;
    reply.tier0LatencyNs = artifact.tier0LatencyNs;
    reply.swaps = artifact.swaps;
    reply.instructions = artifact.instructions;
    reply.aggregates = artifact.aggregates;
    reply.maxWidth = artifact.maxWidth;
    reply.degraded = artifact.degraded;
    reply.degradedReason = artifact.degradedReason;
    if (request.wantSchedule) {
        reply.hasSchedule = true;
        reply.schedule = artifact.schedule;
    }

    // Failpoint: a pulse-library flush fires mid-request. A successful
    // flush is invisible; a failing one degrades this reply (the
    // request itself still succeeded) instead of erroring it.
    if (flushDuringRequestFp.shouldFail() && tier1Oracle_->library()) {
        Status flushed = tier1Oracle_->library()->flush();
        if (!flushed.isOk()) {
            reply.degraded = true;
            reply.degradedReason =
                (reply.degradedReason.empty()
                     ? std::string()
                     : reply.degradedReason + "; ") +
                "pulse-library flush failed mid-request: " +
                flushed.message();
        }
    }
    return reply;
}

ServiceReply
CompileService::process(const CompileRequest &request)
{
    StatusOr<Circuit> circuit_or = parseQasm(request.qasm);
    if (!circuit_or.isOk()) {
        compileErrors_.fetch_add(1, std::memory_order_relaxed);
        return errorReply(request.id,
                          circuit_or.status().withContext(
                              "parsing request qasm"));
    }
    const Circuit &circuit = circuit_or.value();
    if (circuit.numQubits() > kMaxRequestQubits) {
        compileErrors_.fetch_add(1, std::memory_order_relaxed);
        return errorReply(
            request.id,
            invalidArgumentError(
                "request register of " +
                std::to_string(circuit.numQubits()) +
                " qubits exceeds the service bound of " +
                std::to_string(kMaxRequestQubits)));
    }
    const std::string key = canonicalRequestKey(request, circuit);

    // Fast path: serve the cached artifact.
    {
        CacheShard &shard = shardFor(key);
        std::lock_guard<std::mutex> lock(shard.mutex);
        auto it = shard.entries.find(key);
        if (it != shard.entries.end()) {
            it->second.hits++;
            maybeQueuePromotion(key, request, it->second);
            std::shared_ptr<const Artifact> artifact =
                it->second.artifact;
            cacheHits_.fetch_add(1, std::memory_order_relaxed);
            // Render outside nothing — artifact is immutable, the
            // snapshot is safe to read after the lock drops.
            return renderReply(request, *artifact, /*cached=*/true);
        }
    }

    // Cold path: tier-0 compile outside every service lock. Racing
    // workers on one fingerprint compute identical artifacts (the
    // compile is deterministic) and the first insert wins.
    StatusOr<CompilationResult> compiled =
        compileTier(request, circuit, /*tier=*/0);
    tier0Compiles_.fetch_add(1, std::memory_order_relaxed);
    if (!compiled.isOk()) {
        compileErrors_.fetch_add(1, std::memory_order_relaxed);
        return errorReply(request.id, compiled.status());
    }
    const CompilationResult &result = compiled.value();
    std::shared_ptr<const Artifact> served = Artifact::fromResult(
        result, /*tier=*/0, result.latencyNs, request.strategy, key);
    {
        CacheShard &shard = shardFor(key);
        std::lock_guard<std::mutex> lock(shard.mutex);
        auto [it, inserted] = shard.entries.try_emplace(key);
        if (inserted) {
            it->second.artifact = served;
        } else {
            // A racing worker inserted the identical tier-0 artifact,
            // or the entry was promoted while we compiled: keep it, and
            // never clobber a tier-1 artifact with tier 0.
            served = it->second.artifact;
        }
        it->second.hits++;
        maybeQueuePromotion(key, request, it->second);
        evictOverCapacity(shard, key);
    }
    return renderReply(request, *served, /*cached=*/false);
}

void
CompileService::maybeQueuePromotion(const std::string &key,
                                    const CompileRequest &request,
                                    CacheEntry &entry)
{
    if (!options_.enablePromotion || entry.promotionQueued ||
        !entry.artifact || entry.artifact->tier >= 1)
        return;
    if (entry.hits < static_cast<std::uint64_t>(options_.promoteAfter))
        return;
    PromotionJob job;
    job.key = key;
    job.request = request;
    job.request.deadlineMs = 0.0; // background work: no caller deadline
    {
        std::lock_guard<std::mutex> lock(promoMutex_);
        if (promoStopping_ ||
            promoQueue_.size() >= options_.promotionQueueCapacity)
            return; // a later request re-queues it
        promoQueue_.push_back(std::move(job));
        entry.promotionQueued = true;
    }
    promoCv_.notify_one();
}

void
CompileService::promoterLoop()
{
    while (true) {
        PromotionJob job;
        {
            std::unique_lock<std::mutex> lock(promoMutex_);
            promoCv_.wait(lock, [this] {
                return promoStopping_ || !promoQueue_.empty();
            });
            if (promoQueue_.empty())
                break; // promoStopping_ && drained
            job = std::move(promoQueue_.front());
            promoQueue_.pop_front();
            promoterBusy_ = true;
        }
        promote(job);
        {
            std::lock_guard<std::mutex> lock(promoMutex_);
            promoterBusy_ = false;
            if (promoQueue_.empty())
                promoIdleCv_.notify_all();
        }
    }
    std::lock_guard<std::mutex> lock(promoMutex_);
    promoterBusy_ = false;
    promoIdleCv_.notify_all();
}

void
CompileService::promote(const PromotionJob &job)
{
    // Baseline the guard against the current tier-0 answer.
    double tier0_latency = 0.0;
    {
        CacheShard &shard = shardFor(job.key);
        std::lock_guard<std::mutex> lock(shard.mutex);
        auto it = shard.entries.find(job.key);
        if (it == shard.entries.end() || !it->second.artifact ||
            it->second.artifact->tier >= 1)
            return;
        tier0_latency = it->second.artifact->latencyNs;
    }

    // A *failed* promotion unlatches promotionQueued so a later
    // request may retry (the failure may be transient — an injected
    // fault, a deadline); a guard trip stays latched because the
    // compile is deterministic and would only trip again.
    auto unlatch = [this, &job] {
        promotionFailures_.fetch_add(1, std::memory_order_relaxed);
        CacheShard &shard = shardFor(job.key);
        std::lock_guard<std::mutex> lock(shard.mutex);
        auto it = shard.entries.find(job.key);
        if (it != shard.entries.end())
            it->second.promotionQueued = false;
    };

    StatusOr<Circuit> circuit_or = parseQasm(job.request.qasm);
    if (!circuit_or.isOk()) {
        unlatch();
        return;
    }
    StatusOr<CompilationResult> compiled =
        compileTier(job.request, circuit_or.value(), /*tier=*/1);
    if (!compiled.isOk() || promotionFailFp.shouldFail()) {
        // Injected or real: the promotion dies *before* the swap; the
        // tier-0 artifact must keep serving untouched.
        unlatch();
        return;
    }
    const CompilationResult &result = compiled.value();

    // Never-worse guard (the compileWithLatencyGuard argument, applied
    // across tiers): a promotion that routed to a worse makespan than
    // the tier-0 answer is discarded, not served.
    if (result.latencyNs > tier0_latency + kGuardEpsilonNs) {
        guardTrips_.fetch_add(1, std::memory_order_relaxed);
        return;
    }

    std::shared_ptr<const Artifact> artifact = Artifact::fromResult(
        result, /*tier=*/1, tier0_latency, job.request.strategy, job.key);
    {
        // The atomic swap: one shared_ptr assignment under the shard
        // lock. Readers snapshot the pointer under the same lock, so
        // every reply reflects exactly one complete artifact.
        CacheShard &shard = shardFor(job.key);
        std::lock_guard<std::mutex> lock(shard.mutex);
        auto it = shard.entries.find(job.key);
        if (it == shard.entries.end())
            return;
        it->second.artifact = std::move(artifact);
    }
    promotions_.fetch_add(1, std::memory_order_relaxed);
}

ServiceStats
CompileService::stats() const
{
    ServiceStats s;
    s.requests = requests_.load(std::memory_order_relaxed);
    s.cacheHits = cacheHits_.load(std::memory_order_relaxed);
    s.tier0Compiles = tier0Compiles_.load(std::memory_order_relaxed);
    s.compileErrors = compileErrors_.load(std::memory_order_relaxed);
    s.rejected = rejected_.load(std::memory_order_relaxed);
    s.parseErrors = parseErrors_.load(std::memory_order_relaxed);
    s.promotions = promotions_.load(std::memory_order_relaxed);
    s.promotionFailures =
        promotionFailures_.load(std::memory_order_relaxed);
    s.guardTrips = guardTrips_.load(std::memory_order_relaxed);
    s.degradedReplies = degradedReplies_.load(std::memory_order_relaxed);
    s.evictions = evictions_.load(std::memory_order_relaxed);
    {
        std::lock_guard<std::mutex> lock(queueMutex_);
        s.queueDepth = queue_.size();
        s.peakQueueDepth = peakQueueDepth_;
    }
    for (std::size_t i = 0; i < kCacheShards; ++i) {
        std::lock_guard<std::mutex> lock(shards_[i].mutex);
        s.artifacts += shards_[i].entries.size();
    }
    {
        std::lock_guard<std::mutex> lock(promoMutex_);
        s.promotionQueueDepth = promoQueue_.size();
    }
    return s;
}

void
CompileService::waitForPromotionsIdle()
{
    std::unique_lock<std::mutex> lock(promoMutex_);
    promoIdleCv_.wait(lock, [this] {
        return promoQueue_.empty() && !promoterBusy_;
    });
}

void
CompileService::shutdown()
{
    {
        std::lock_guard<std::mutex> lock(shutdownMutex_);
        if (shutdownDone_)
            return;
        shutdownDone_ = true;
    }
    // Phase 1: stop admission, drain the request queue. Workers only
    // exit once the queue is empty, so every admitted request is
    // answered before its thread joins.
    {
        std::lock_guard<std::mutex> lock(queueMutex_);
        stopping_ = true;
    }
    queueCv_.notify_all();
    for (std::thread &worker : workers_)
        worker.join();
    workers_.clear();
    // Phase 2: drain the promotion queue (bounded work — the queue is
    // capped and no new requests can enqueue promotions now).
    {
        std::lock_guard<std::mutex> lock(promoMutex_);
        promoStopping_ = true;
    }
    promoCv_.notify_all();
    if (promoter_.joinable())
        promoter_.join();
}

} // namespace qaic::service
