/**
 * @file
 * The qaiccd-mix workload: the real daemon, driven over its pipes.
 *
 * One client thread keeps at most two requests in flight (a closed
 * loop: each caller waits for its reply) against
 * `qaiccd --workers 1 --no-grape`, so client, worker and promoter need
 * three cores. With two requests in flight and one worker, a
 * paper-size compile holds up the small request queued behind it (the
 * head-of-line case). The seeded request stream mixes three classes:
 *
 *  - hot: 20 repeats of each of the six service-pool circuits (cache
 *    hits, then tier-1 promotion);
 *  - unique: 240 seeded random 5-qubit, 20-gate circuits (tier-0
 *    compiles);
 *  - paper: eight requests of six Table-3 programs on the grid or
 *    heavy-hex lattice at width 10, each once per session (tier-0
 *    aggregation, 0.1-1.4 s each).
 *
 * The class sizes and the goodput limit are synthetic: no observed
 * traffic exists to copy. They are chosen so that one session fits the
 * run budget (about 5-9 s on 4 vCPUs) while each class exercises its
 * own part of the service: 20 repeats take every pool circuit past the
 * promotion threshold and then hit the cache; 240 unique circuits make
 * tier-0 compiles the bulk of the requests; the eight paper-size
 * requests are the slow work small requests queue behind. The 25 ms
 * limit is about 2.5 times the small-class median on that host, so a
 * small request misses it when it waits behind slower work, chiefly a
 * paper-size compile. The run prints each class's share of the summed
 * request time.
 *
 * Sessions repeat while the run's seconds last, each with a fresh
 * daemon, so no cache carries over; compile_s is their median. Every
 * reply must match a sequential in-process replay of the stream (see
 * replay()), and a fresh compile of every small program is linted and
 * equivalence checked.
 */
#include <algorithm>
#include <cstdio>
#include <map>
#include <memory>
#include <string>
#include <unistd.h>
#include <vector>

#include "analysis/diagnostics.h"
#include "checks.h"
#include "common.h"
#include "compiler/pipeline.h"
#include "daemon.h"
#include "device/topology.h"
#include "ir/qasm.h"
#include "service/protocol.h"
#include "service/service.h"
#include "testing/generators.h"
#include "util/rng.h"
#include "workloads/suite.h"

using namespace qaic;
using qaic::service::JsonValue;

namespace perfbench {

namespace {

/** Small-class replies slower than this miss the goodput limit. */
constexpr double kGoodputLimitMs = 25.0;

/** Per-reply wait before the session is declared hung. */
constexpr int kReplyTimeoutMs = 60000;

enum class Class
{
    kHot,
    kUnique,
    kPaper,
};

const char *
className(Class c)
{
    switch (c) {
      case Class::kHot: return "hot";
      case Class::kUnique: return "unique";
      case Class::kPaper: return "paper";
    }
    return "?";
}

/** One distinct request body; the stream refers to these by index. */
struct Program
{
    std::string name;
    Class cls = Class::kHot;
    Circuit circuit{1};
    std::string topology;
    int width = 4;
    std::string qasm;
    /** The request frame minus its id. */
    std::string body;
};

struct Inputs
{
    std::vector<Program> programs;
    /** Program index per request, in send order. */
    std::vector<std::size_t> stream;
};

/**
 * Six Table-3 programs on the grid or the heavy-hex lattice: about 4.5 s
 * of tier-0 aggregation per session on one core.
 */
const std::pair<const char *, const char *> kPaperRequests[] = {
    {"MAXCUT-line", "grid"},    {"MAXCUT-line", "heavy-hex"},
    {"MAXCUT-reg4", "grid"},    {"MAXCUT-cluster", "heavy-hex"},
    {"Ising-n30", "grid"},      {"UCCSD-n4", "grid"},
    {"UCCSD-n4", "heavy-hex"},  {"sqrt-n3", "heavy-hex"},
};

Program
makeProgram(std::string name, Class cls, Circuit circuit,
            std::string topology, int width)
{
    Program p;
    p.name = std::move(name);
    p.cls = cls;
    p.topology = std::move(topology);
    p.width = width;
    p.qasm = toQasm(circuit);
    p.body = "\"qasm\":\"" + jsonEscape(p.qasm) +
             "\",\"strategy\":\"cls-agg\",\"topology\":\"" + p.topology +
             "\",\"width\":" + std::to_string(width) + "}";
    // The daemon compiles the text, so the checks must too.
    p.circuit = parseQasm(p.qasm).value();
    return p;
}

Inputs
makeInputs(std::uint64_t seed, bool reduced)
{
    // Fixed class sizes; the seed draws the unique circuits and the
    // order. Unique circuits share one size so their compile cost does
    // not depend on the seed.
    const int hot_per_program = reduced ? 4 : 20;
    const int unique_requests = reduced ? 12 : 240;
    Inputs in;
    Rng rng(seed);
    std::vector<std::size_t> stream;
    for (const PoolCircuit &pool : servicePool()) {
        for (int i = 0; i < hot_per_program; ++i)
            stream.push_back(in.programs.size());
        in.programs.push_back(makeProgram(pool.name, Class::kHot,
                                          parseQasm(pool.qasm).value(),
                                          pool.topology, 4));
    }
    for (int i = 0; i < unique_requests; ++i) {
        const std::uint64_t circuit_seed =
            static_cast<std::uint64_t>(rng.uniformInt(1, 1 << 30));
        stream.push_back(in.programs.size());
        in.programs.push_back(makeProgram(
            "unique-" + std::to_string(i), Class::kUnique,
            testing::randomCircuit(5, 20, circuit_seed),
            i % 2 ? "grid" : "line", 4));
    }
    for (const auto &[name, topology] : kPaperRequests) {
        if (reduced && std::string(name) != "MAXCUT-line" &&
            std::string(name) != "UCCSD-n4")
            continue;
        stream.push_back(in.programs.size());
        in.programs.push_back(makeProgram(
            std::string(name) + "@" + topology, Class::kPaper,
            benchmarkByName(name, reduced ? 0.3 : 1.0).circuit, topology,
            10));
    }
    rng.shuffle(stream);
    in.stream = std::move(stream);
    return in;
}

/** Programs requested at least qaiccd's default --promote-after (3)
 *  times: each is promoted once. */
int
expectedPromotions(const Inputs &in)
{
    std::map<std::size_t, int> requests;
    for (std::size_t index : in.stream)
        ++requests[index];
    int promoted = 0;
    for (const auto &[index, count] : requests)
        promoted += count >= 3 ? 1 : 0;
    return promoted;
}

std::unique_ptr<Daemon>
startDaemon(const std::string &binary)
{
    auto daemon = std::make_unique<Daemon>(
        binary, std::vector<std::string>{"--workers", "1", "--no-grape"});
    std::string reply;
    if (!daemon->running() || !daemon->send("{\"id\":\"p\",\"op\":\"ping\"}") ||
        !daemon->readLine(&reply, 10000) ||
        reply.find("\"pong\":true") == std::string::npos)
        return nullptr;
    return daemon;
}

/** The digest fields of one reply. */
struct Reply
{
    bool ok = false;
    int tier = 0;
    bool cached = false;
    double latencyNs = 0.0;
    double tier0LatencyNs = 0.0;
    std::string digest;
    std::string error;
};

double
number(const JsonValue &root, const char *key)
{
    const JsonValue *v = root.find(key);
    return v && v->kind == JsonValue::Kind::kNumber ? v->number : 0.0;
}

bool
boolean(const JsonValue &root, const char *key)
{
    const JsonValue *v = root.find(key);
    return v && v->kind == JsonValue::Kind::kBool && v->boolean;
}

struct Session
{
    double wallS = 0.0;
    /** Per request, in stream order. */
    std::vector<double> ms;
    std::vector<Reply> replies;
    /** Wall time with no request in flight (ms). */
    double idleMs = 0.0;
    /** The daemon's "stats" object after the stream. */
    JsonValue stats;
    double peakRssMb = 0.0;
    bool ok = true;
    std::vector<Span> spans;
};

Session
runSession(std::unique_ptr<Daemon> daemon, const Inputs &in,
           int expected_promotions)
{
    Session s;
    const std::size_t n = in.stream.size();
    s.ms.assign(n, 0.0);
    s.replies.assign(n, Reply{});
    std::vector<double> sent(n, 0.0);
    std::size_t next = 0, answered = 0;
    int in_flight = 0;
    const double start = nowNs();
    double idle_since = start;
    while (answered < n) {
        while (in_flight < 2 && next < n) {
            if (in_flight == 0)
                s.idleMs += (nowNs() - idle_since) / 1e6;
            const Program &p = in.programs[in.stream[next]];
            sent[next] = nowNs();
            if (!daemon->send("{\"id\":\"" + std::to_string(next) + "\"," +
                              p.body)) {
                s.ok = false;
                return s;
            }
            ++next;
            ++in_flight;
        }
        std::string line;
        if (!daemon->readLine(&line, kReplyTimeoutMs)) {
            std::printf("FAILED: no reply from qaiccd\n");
            s.ok = false;
            return s;
        }
        const double now = nowNs();
        StatusOr<JsonValue> parsed = service::parseJson(line);
        const JsonValue *id =
            parsed.isOk() ? parsed.value().find("id") : nullptr;
        if (!id || id->kind != JsonValue::Kind::kString) {
            std::printf("FAILED: unparsable reply %s\n", line.c_str());
            s.ok = false;
            return s;
        }
        const std::size_t i = std::stoul(id->string);
        const JsonValue &root = parsed.value();
        Reply &r = s.replies[i];
        r.ok = boolean(root, "ok");
        r.tier = static_cast<int>(number(root, "tier"));
        r.cached = boolean(root, "cached");
        r.latencyNs = number(root, "latency_ns");
        r.tier0LatencyNs = number(root, "tier0_latency_ns");
        r.digest = digest(r.latencyNs, static_cast<int>(number(root, "swaps")),
                          static_cast<int>(number(root, "instructions")));
        if (!r.ok)
            r.error = line;
        s.ms[i] = (now - sent[i]) / 1e6;
        s.spans.push_back({std::string("request/") +
                               className(in.programs[in.stream[i]].cls),
                           sent[i], now, -1});
        ++answered;
        if (--in_flight == 0)
            idle_since = now;
    }
    s.wallS = (nowNs() - start) / 1e9;

    // Promotions run in the background; poll until every promotion the
    // stream queued has finished so the counters repeat exactly.
    const double stats_deadline = nowNs() + 30e9;
    while (nowNs() < stats_deadline) {
        std::string line;
        if (!daemon->send("{\"id\":\"s\",\"op\":\"stats\"}") ||
            !daemon->readLine(&line, 10000))
            break;
        StatusOr<JsonValue> parsed = service::parseJson(line);
        if (!parsed.isOk() || !parsed.value().find("stats"))
            break;
        s.stats = *parsed.value().find("stats");
        if (number(s.stats, "promotions") + number(s.stats, "guard_trips") +
                number(s.stats, "promotion_failures") >=
            static_cast<double>(expected_promotions))
            break;
        usleep(2000);
    }
    // Read before stdin closes: the drain and exit are not the session.
    // The rusage of the reaped child would also count the forked client
    // image before exec.
    s.peakRssMb = peakRssMb(daemon->pid());
    if (s.peakRssMb < 0.0) {
        std::printf("FAILED: cannot read qaiccd's peak resident set\n");
        s.ok = false;
    }
    if (!daemon->finish(30000)) {
        std::printf("FAILED: qaiccd did not exit cleanly\n");
        s.ok = false;
    }
    return s;
}

/** The service's tier settings for one program (compileTier). */
StatusOr<CompilationResult>
compileLikeService(const Program &p, int tier, DeviceModel *device_out)
{
    CompilerOptions options;
    options.maxInstructionWidth = p.width;
    options.routing.router =
        tier == 0 ? RouterKind::kBaseline : RouterKind::kLookahead;
    options.optimize = tier == 1;
    QAIC_ASSIGN_OR_RETURN(*device_out,
                          deviceFromUserConfig(p.topology,
                                               p.circuit.numQubits(),
                                               options.seed));
    CompilationContext context(*device_out, options);
    if (tier == 0)
        return Pipeline::forStrategy(Strategy::kClsAggregation)
            .compile(p.circuit, context);
    return compileWithLatencyGuard(
        Pipeline::forStrategy(Strategy::kClsAggregation, false, true),
        Pipeline::forStrategy(Strategy::kClsAggregation), p.circuit,
        context);
}

/**
 * Lints and equivalence-checks a fresh compile of every small program
 * at the tier settings it is served with (paper programs are checked
 * the same way by fig9-agg's cls-agg cells).
 */
void
verifySmallPrograms(const Inputs &in, Report &report)
{
    for (const Program &p : in.programs) {
        if (p.cls == Class::kPaper)
            continue;
        for (int tier = 0; tier < (p.cls == Class::kHot ? 2 : 1); ++tier) {
            DeviceModel device = DeviceModel::line(2);
            StatusOr<CompilationResult> r =
                compileLikeService(p, tier, &device);
            const std::string why =
                r.isOk() ? checkCompiled(p.circuit, device, r.value())
                         : r.status().toString();
            report.check(why.empty(), "qaiccd-mix: fresh tier-" +
                                          std::to_string(tier) +
                                          " compile of " + p.name + ": " +
                                          why);
        }
    }
}

/** Expected reply digests of one program per tier ("" = none). */
struct Expected
{
    std::string tier0;
    std::string tier1;
};

/**
 * Replays the stream through an in-process CompileService configured
 * like the daemon, one request at a time. The tier-0 oracle is shared
 * across requests and keyed by rounded fingerprints, so a reply can
 * depend on what was priced before it; with one daemon worker the
 * daemon prices in stream order, exactly like this replay.
 */
std::vector<Expected>
replay(const Inputs &in)
{
    service::ServiceOptions options;
    options.workers = 1;
    options.tier1Grape = false;
    service::CompileService replayer(options);
    auto request = [](const Program &p) {
        service::CompileRequest r;
        r.qasm = p.qasm;
        r.width = p.width;
        topologyFromName(p.topology, &r.topology);
        return r;
    };
    std::vector<Expected> expected(in.programs.size());
    for (std::size_t index : in.stream) {
        const service::ServiceReply r =
            replayer.compileSync(request(in.programs[index]));
        if (r.ok && r.tier == 0 && expected[index].tier0.empty())
            expected[index].tier0 =
                digest(r.latencyNs, r.swaps, r.instructions);
        replayer.waitForPromotionsIdle();
    }
    for (std::size_t i = 0; i < in.programs.size(); ++i) {
        const service::ServiceReply r =
            replayer.compileSync(request(in.programs[i]));
        if (r.ok && r.tier == 1)
            expected[i].tier1 = digest(r.latencyNs, r.swaps, r.instructions);
    }
    return expected;
}

/** Checks every reply of @p s; counts one operation per request. */
void
checkSession(const Session &s, const Inputs &in,
             const std::vector<Expected> &expected, Report &report)
{
    for (std::size_t i = 0; i < in.stream.size(); ++i) {
        const Program &p = in.programs[in.stream[i]];
        const Expected &want = expected[in.stream[i]];
        const Reply &r = s.replies[i];
        std::string why;
        if (!r.ok)
            why = "error reply " + r.error;
        else if (r.tier == 0 && r.digest != want.tier0)
            why = "tier-0 digest " + r.digest + " != " + want.tier0;
        else if (r.tier == 1 && (want.tier1.empty() ||
                                 r.digest != want.tier1))
            why = "tier-1 digest " + r.digest + " != " + want.tier1;
        else if (r.latencyNs > r.tier0LatencyNs)
            why = "promoted reply worse than tier 0";
        report.operation(why.empty(), p.name + ": " + why);
    }
}

} // namespace

void
runQaiccdMix(const Args &args, Report &report, Reference &)
{
    // One set-up: the inputs plus a daemon answering its first ping. The
    // daemon of the latest sample serves the next session.
    Inputs in;
    std::unique_ptr<Daemon> daemon;
    std::vector<std::unique_ptr<Daemon>> retired;
    SetupTimer setup([&] {
        if (daemon) {
            // Exits in the background; reaped after the sample.
            daemon->closeInput();
            retired.push_back(std::move(daemon));
        }
        in = makeInputs(args.seed, args.reduced);
        daemon = startDaemon(args.qaiccd);
    });
    auto sample_setup = [&] {
        setup.sample();
        retired.clear();
        if (!daemon)
            report.check(false, "cannot start " + args.qaiccd);
        return daemon != nullptr;
    };
    for (int i = 0; i < 2; ++i)
        if (!sample_setup())
            return;
    std::printf("workload qaiccd-mix: %zu requests per session (%zu "
                "distinct), closed loop, 1 client thread, 2 in flight, "
                "qaiccd --workers 1 --no-grape\n",
                in.stream.size(), in.programs.size());

    std::vector<Session> sessions;
    double elapsed_s = 0.0;
    do {
        sessions.push_back(
            runSession(std::move(daemon), in, expectedPromotions(in)));
        report.check(sessions.back().ok, "session aborted");
        if (!sessions.back().ok || !sample_setup())
            return;
        elapsed_s += sessions.back().wallS;
    } while (!args.trace && elapsed_s < args.seconds);
    daemon.reset();

    verifySmallPrograms(in, report);
    const std::vector<Expected> expected = replay(in);
    std::vector<double> session_s, all_ms, small_ms, hit_ms, paper_ms;
    double peak_rss_mb = 0.0;
    long small_total = 0, small_good = 0;
    std::map<Class, double> class_ms;
    double total_ms = 0.0;
    for (const Session &s : sessions) {
        checkSession(s, in, expected, report);
        session_s.push_back(s.wallS);
        peak_rss_mb = std::max(peak_rss_mb, s.peakRssMb);
        for (std::size_t i = 0; i < in.stream.size(); ++i) {
            const Class cls = in.programs[in.stream[i]].cls;
            class_ms[cls] += s.ms[i];
            total_ms += s.ms[i];
            all_ms.push_back(s.ms[i]);
            if (s.replies[i].cached)
                hit_ms.push_back(s.ms[i]);
            if (cls == Class::kPaper) {
                paper_ms.push_back(s.ms[i]);
                continue;
            }
            small_ms.push_back(s.ms[i]);
            ++small_total;
            if (s.replies[i].ok && s.ms[i] <= kGoodputLimitMs)
                ++small_good;
        }
    }
    // One row per paper program (first session).
    const Session &first = sessions.front();
    for (std::size_t i = 0; i < in.stream.size(); ++i) {
        const Program &p = in.programs[in.stream[i]];
        if (p.cls == Class::kPaper)
            std::printf("request %-26s request_ms=%9.3f latency_ns=%9.1f  "
                        "%s\n",
                        p.name.c_str(), first.ms[i],
                        first.replies[i].latencyNs,
                        first.replies[i].digest.c_str());
    }
    const double req_per_s =
        static_cast<double>(in.stream.size()) / median(session_s);
    const double goodput =
        small_total ? static_cast<double>(small_good) /
                          static_cast<double>(small_total)
                    : 0.0;
    std::printf("sessions %zu, wall_s per session:", sessions.size());
    for (double v : session_s)
        std::printf(" %.3f", v);
    std::printf("\n");
    for (const auto &[cls, ms] : class_ms)
        std::printf("class %-6s %5.1f%% of the summed request time\n",
                    className(cls), 100.0 * ms / total_ms);
    printLatencies("op_ms over requests", all_ms);
    printLatencies("small-class request ms", small_ms);
    printLatencies("paper-class request ms", paper_ms);
    std::printf("req_per_s %.3f 1/s\n", req_per_s);
    std::printf("goodput_share %.4f share (small requests OK within "
                "%.0f ms)\n",
                goodput, kGoodputLimitMs);
    std::printf("daemon stats %s\n",
                first.stats.kind == JsonValue::Kind::kObject ? "received"
                                                             : "missing");
    report.check(first.stats.kind == JsonValue::Kind::kObject,
                 "no stats reply from qaiccd");

    if (!args.trace) {
        report.endToEnd(median(session_s), setup.medianS(), peak_rss_mb);
        return;
    }
    std::map<std::string, double> v;
    v["service.hit_ms_p50"] = median(hit_ms);
    v["service.small_ms_p99"] = quantile(small_ms, 0.99);
    v["service.paper_ms_p50"] = median(paper_ms);
    v["service.tier0_compiles"] = number(first.stats, "tier0_compiles");
    v["service.cache_hits"] = number(first.stats, "cache_hits");
    v["service.promotions"] = number(first.stats, "promotions");
    v["service.rejected"] = number(first.stats, "rejected");
    v["service.guard_trips"] = number(first.stats, "guard_trips");
    v["service.peak_queue_depth"] = number(first.stats, "peak_queue_depth");
    const Tail tail = tailOf(all_ms);
    v["op_ms_p50"] = median(all_ms);
    v["op_ms_tail"] = tail.defined ? tail.value : 0.0;
    v["req_per_s"] = req_per_s;
    v["goodput_share"] = goodput;
    // The client's timing is the same traced or not; spans are the
    // client-side request intervals.
    v["trace.overhead_share"] = 0.0;
    v["trace.uncovered_share"] = first.idleMs / (first.wallS * 1e3);
    report.perLayer(v);
    if (!args.spansDir.empty()) {
        Tracer tracer;
        tracer.spans = first.spans;
        const std::string path = args.spansDir + "/qaiccd-mix-" +
                                 std::to_string(args.seed) + ".json";
        report.check(writeSpans(tracer, path),
                     "cannot write spans to " + path);
    }
}

} // namespace perfbench
