/**
 * @file
 * End-to-end benchmark program: one repetition (rep) of one named
 * workload per process. bench/e2e/run.py runs it rep by rep, checks
 * and aggregates the results; see bench/e2e/README.md for the
 * workloads, the metric dictionary, and the noise findings.
 *
 *   e2e_bench --workload walk_path --seed 42
 *   e2e_bench --workload churn --quick --trace-out churn.json
 *
 * Every layer is measured from outside: the program times its calls
 * into workload/trace/core/oracle/stats and reads the sim/cache/
 * iommu/mem counters through System::statsRoot(), eventQueue() and
 * the ShadowChecker accessors. A rep prints one JSON line to stdout
 * (host times, simulated results, layer counts, a digest of the
 * simulated outputs, and the names of failed checks) and exits 1 when
 * any check failed, so a failed rep is never silent.
 *
 * --trace-out also times every PacketStream call (folded into one
 * child span of core.run per method) and writes the rep's spans as
 * Chrome trace-event JSON. Simulated results and the digest are
 * identical either way; only host time differs.
 */

#include <array>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <optional>
#include <sstream>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "core/config.hh"
#include "core/system.hh"
#include "oracle/shadow.hh"
#include "stats/snapshot.hh"
#include "trace/constructor.hh"
#include "util/json.hh"
#include "util/logging.hh"
#include "util/str.hh"
#include "workload/benchmarks.hh"
#include "workload/soak.hh"

using namespace hypersio;

namespace
{

using Clock = std::chrono::steady_clock;

double
secondsOf(Clock::duration d)
{
    return std::chrono::duration<double>(d).count();
}

// ---- Workloads ---------------------------------------------------------

/** Where a workload's packets come from. */
enum class Input
{
    Trace, ///< generateLogs + constructTrace, then System::run
    Churn, ///< SoakStream through System::runStream with eviction
};

/** One named workload; README.md gives the reason for each. */
struct Workload
{
    const char *name;
    Input input;
    bool basePreset;  ///< Table IV Base instead of HyperTRIO
    bool oracle;      ///< run under a fail-fast ShadowChecker
    workload::Benchmark bench;
    unsigned tenants; ///< Trace: tenants; Churn: virtual population
    double scale;     ///< Trace: per-tenant packet-count scale
    unsigned slots;   ///< Churn: concurrently attached SID slots
    uint64_t stormPeriod;   ///< Churn: packets between episodes
    uint64_t snapshotEvery; ///< Churn: packets between captures
};

constexpr Workload Workloads[] = {
    {"hit_path", Input::Trace, false, false,
     workload::Benchmark::Iperf3, 64, 0.6, 0, 0, 0},
    {"walk_path", Input::Trace, false, false,
     workload::Benchmark::Iperf3, 1024, 0.05, 0, 0, 0},
    {"base_retry", Input::Trace, true, false,
     workload::Benchmark::Websearch, 1024, 0.05, 0, 0, 0},
    {"churn", Input::Churn, false, false,
     workload::Benchmark::Iperf3, 4000, 0.0, 512, 8192, 20000},
    {"hit_path_checked", Input::Trace, false, true,
     workload::Benchmark::Iperf3, 64, 0.6, 0, 0, 0},
};

/** The smoke-test size of `w`: same code paths, ~1/10 the packets. */
Workload
quickSized(Workload w)
{
    if (w.input == Input::Churn) {
        w.tenants = 400;
        w.slots = 64;
        w.stormPeriod = 2048;
        w.snapshotEvery = 5000;
    } else if (w.tenants > 64) {
        w.tenants = 256;
        w.scale = 0.02;
    } else {
        w.scale = 0.06;
    }
    return w;
}

// ---- Spans -------------------------------------------------------------

/**
 * In-memory span recorder. Spans nest by open/close order; folded
 * spans (summed per-call times) are attached to an explicit parent.
 * A span's self time is its duration minus its children's.
 */
class SpanRecorder
{
  public:
    int
    open(std::string name)
    {
        const int parent = _open.empty() ? -1 : _open.back();
        _spans.push_back({std::move(name), Clock::now(), {}, parent});
        _open.push_back(static_cast<int>(_spans.size()) - 1);
        return _open.back();
    }

    void
    close(int id)
    {
        HYPERSIO_ASSERT(!_open.empty() && _open.back() == id,
                        "span %d closed out of order", id);
        _open.pop_back();
        _spans[id].dur = Clock::now() - _spans[id].start;
    }

    /** Adds a finished span of `dur` under `parent`, at `start`. */
    void
    addChild(int parent, std::string name, Clock::time_point start,
             Clock::duration dur)
    {
        _spans.push_back({std::move(name), start, dur, parent});
    }

    Clock::time_point start(int id) const { return _spans[id].start; }
    Clock::duration duration(int id) const { return _spans[id].dur; }

    /** Summed duration of every span named `name`. */
    Clock::duration
    total(std::string_view name) const
    {
        Clock::duration sum{};
        for (const Span &s : _spans) {
            if (s.name == name)
                sum += s.dur;
        }
        return sum;
    }

    /** Duration of `id` minus its direct children's durations. */
    Clock::duration
    selfTime(int id) const
    {
        Clock::duration self = _spans[id].dur;
        for (const Span &s : _spans) {
            if (s.parent == id)
                self -= s.dur;
        }
        return self;
    }

    /** Chrome trace-event JSON ("ph":"X"), rep id as the tid. */
    void
    writeChromeTrace(std::ostream &os, uint64_t tid,
                     const std::string &workload) const
    {
        const Clock::time_point origin =
            _spans.empty() ? Clock::now() : _spans.front().start;
        auto micros = [](Clock::duration d) {
            return std::chrono::duration<double, std::micro>(d)
                .count();
        };
        json::Writer w(os, 0);
        w.beginObject();
        w.key("displayTimeUnit");
        w.value("ms");
        w.key("otherData");
        w.beginObject();
        w.key("workload");
        w.value(workload);
        w.endObject();
        w.key("traceEvents");
        w.beginArray();
        for (size_t i = 0; i < _spans.size(); ++i) {
            const Span &s = _spans[i];
            w.beginObject();
            w.key("name");
            w.value(s.name);
            w.key("cat");
            w.value(s.name.substr(0, s.name.find('.')));
            w.key("ph");
            w.value("X");
            w.key("ts");
            w.value(micros(s.start - origin));
            w.key("dur");
            w.value(micros(s.dur));
            w.key("pid");
            w.value(1);
            w.key("tid");
            w.value(tid);
            w.key("args");
            w.beginObject();
            w.key("id");
            w.value(static_cast<int64_t>(i));
            w.key("parent");
            w.value(static_cast<int64_t>(s.parent));
            w.endObject();
            w.endObject();
        }
        w.endArray();
        w.endObject();
        os << '\n';
    }

  private:
    struct Span
    {
        std::string name;
        Clock::time_point start;
        Clock::duration dur{};
        int parent = -1;
    };

    std::vector<Span> _spans;
    std::vector<int> _open;
};

/** Scoped span; the recorder must outlive it. */
class SpanScope
{
  public:
    SpanScope(SpanRecorder &rec, std::string name)
        : _rec(rec), _id(rec.open(std::move(name)))
    {}
    ~SpanScope() { _rec.close(_id); }
    SpanScope(const SpanScope &) = delete;
    SpanScope &operator=(const SpanScope &) = delete;

    int id() const { return _id; }

  private:
    SpanRecorder &_rec;
    int _id;
};

// ---- Metered stream ----------------------------------------------------

/**
 * PacketStream decorator: counts every call and, when timing, sums
 * steady_clock time per method — the workload layer's in-run cost as
 * the System sees it. Counts are kept in every rep (an increment);
 * timing only in traced reps (two clock reads per call).
 */
class MeteredStream : public trace::PacketStream
{
  public:
    enum Method
    {
        Peek,
        Ops,
        Advance,
        Exhausted,
        NumTenants,
        DrainDetached,
        SidRetired,
        NumMethods
    };
    static constexpr const char *MethodNames[NumMethods] = {
        "peek",       "ops",            "advance",    "exhausted",
        "num_tenants", "drain_detached", "sid_retired"};

    MeteredStream(trace::PacketStream &inner, bool timed)
        : _inner(inner), _timed(timed)
    {}

    const trace::PacketRecord *
    peek() override
    {
        const trace::PacketRecord *head =
            metered(Peek, [&] { return _inner.peek(); });
        _headOps = head ? head->opCount : 0;
        return head;
    }

    const trace::PageOp *
    ops() const override
    {
        return metered(Ops, [&] { return _inner.ops(); });
    }

    void
    advance() override
    {
        _pageOps += _headOps;
        metered(Advance, [&] { _inner.advance(); });
    }

    bool
    exhausted() override
    {
        return metered(Exhausted, [&] { return _inner.exhausted(); });
    }

    uint32_t
    numTenants() const override
    {
        return metered(NumTenants,
                       [&] { return _inner.numTenants(); });
    }

    void
    drainDetached(std::vector<trace::SourceId> &out) override
    {
        metered(DrainDetached, [&] { _inner.drainDetached(out); });
    }

    void
    sidRetired(trace::SourceId sid) override
    {
        metered(SidRetired, [&] { _inner.sidRetired(sid); });
    }

    uint64_t calls(Method m) const { return _calls[m]; }
    Clock::duration time(Method m) const { return _time[m]; }
    /** Page ops of every consumed packet. */
    uint64_t pageOps() const { return _pageOps; }

    uint64_t
    totalCalls() const
    {
        uint64_t sum = 0;
        for (uint64_t c : _calls)
            sum += c;
        return sum;
    }

  private:
    template <typename Fn>
    auto
    metered(Method m, Fn &&fn) const -> decltype(fn())
    {
        ++_calls[m];
        if (!_timed)
            return fn();
        const Clock::time_point t0 = Clock::now();
        if constexpr (std::is_void_v<decltype(fn())>) {
            fn();
            _time[m] += Clock::now() - t0;
        } else {
            auto result = fn();
            _time[m] += Clock::now() - t0;
            return result;
        }
    }

    trace::PacketStream &_inner;
    bool _timed;
    uint16_t _headOps = 0;
    uint64_t _pageOps = 0;
    mutable std::array<uint64_t, NumMethods> _calls{};
    mutable std::array<Clock::duration, NumMethods> _time{};
};

// ---- Stat-tree access --------------------------------------------------

/** The stat at dotted `path` below `root`; fatal when missing. */
const stats::StatBase &
statAt(const stats::StatGroup &root, std::string_view path)
{
    const stats::StatGroup *group = &root;
    const std::string full(path);
    for (size_t dot; (dot = path.find('.')) != std::string_view::npos;
         path.remove_prefix(dot + 1)) {
        const std::string_view name = path.substr(0, dot);
        const stats::StatGroup *next = nullptr;
        group->forEachChild([&](const stats::StatGroup &child) {
            if (child.name() == name)
                next = &child;
        });
        if (!next)
            fatal("stat group of '%s' is missing", full.c_str());
        group = next;
    }
    const stats::StatBase *stat = group->find(std::string(path));
    if (!stat)
        fatal("stat '%s' is missing", full.c_str());
    return *stat;
}

double
statValue(const stats::StatGroup &root, std::string_view path)
{
    return statAt(root, path).value();
}

const stats::Histogram &
histogramAt(const stats::StatGroup &root, std::string_view path)
{
    const auto *hist =
        dynamic_cast<const stats::Histogram *>(&statAt(root, path));
    if (!hist)
        fatal("stat '%.*s' is not a histogram",
              static_cast<int>(path.size()), path.data());
    return *hist;
}

/** 64-bit FNV-1a, folded over successive byte strings. */
uint64_t
fnv1a(uint64_t hash, std::string_view bytes)
{
    for (const unsigned char c : bytes) {
        hash ^= c;
        hash *= 0x100000001b3ULL;
    }
    return hash;
}

constexpr uint64_t FnvOffset = 0xcbf29ce484222325ULL;

// ---- One rep -----------------------------------------------------------

struct Options
{
    const Workload *workload = nullptr;
    uint64_t seed = 42;
    bool quick = false;
    std::string traceOut;
    uint64_t rep = 0;
};

constexpr const char *UsageText =
    "usage: e2e_bench --workload <name> [options]\n"
    "  --workload <name>   hit_path | walk_path | base_retry | churn |\n"
    "                      hit_path_checked\n"
    "  --seed <n>          workload seed (default 42)\n"
    "  --quick             smoke-test input sizes\n"
    "  --trace-out <file>  time stream calls; write Chrome trace JSON\n"
    "  --rep <n>           rep id (the trace's tid)";

Options
parseArgs(int argc, char **argv)
{
    Options opts;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto next_value = [&]() -> std::string {
            if (i + 1 >= argc)
                fatal("%s needs a value", arg.c_str());
            return argv[++i];
        };
        if (arg == "--workload") {
            const std::string name = next_value();
            for (const Workload &w : Workloads) {
                if (name == w.name)
                    opts.workload = &w;
            }
            if (!opts.workload)
                fatal("unknown workload '%s'", name.c_str());
        } else if (arg == "--seed") {
            if (!parseU64(next_value(), opts.seed))
                fatal("--seed needs a non-negative integer");
        } else if (arg == "--quick") {
            opts.quick = true;
        } else if (arg == "--trace-out") {
            opts.traceOut = next_value();
        } else if (arg == "--rep") {
            if (!parseU64(next_value(), opts.rep))
                fatal("--rep needs a non-negative integer");
        } else if (arg == "--help" || arg == "-h") {
            std::puts(UsageText);
            std::exit(0);
        } else {
            std::fputs(UsageText, stderr);
            std::fputc('\n', stderr);
            fatal("unknown option '%s'", arg.c_str());
        }
    }
    if (!opts.workload) {
        std::fputs(UsageText, stderr);
        std::fputc('\n', stderr);
        fatal("--workload is required");
    }
    return opts;
}

/** Layer counts of a finished run, by metric name, in print order. */
std::vector<std::pair<std::string, double>>
layerCounts(const core::System &system, const core::SystemConfig &config,
            const core::RunResults &results)
{
    const stats::StatGroup &root = system.statsRoot();
    auto stat = [&](std::string_view path) {
        return statValue(root, path);
    };
    std::vector<std::pair<std::string, double>> out;
    auto add = [&](std::string name, double v) {
        out.emplace_back(std::move(name), v);
    };

    add("core.ptb_drops", static_cast<double>(results.packetsDropped));
    add("core.translations", static_cast<double>(results.translations));
    add("core.prefetches_sent", stat("device.prefetches_sent"));
    add("core.prefetch_fills", stat("device.prefetch_fills"));
    add("core.prefetch_fills_squashed",
        stat("device.prefetch_fills_squashed"));
    add("core.history_reads",
        system.historyReader() ? stat("history_reader.started") : 0.0);
    add("core.tenants_retired",
        static_cast<double>(system.streamRetirements().size()));

    const sim::EventQueue &queue = system.eventQueue();
    add("sim.events", static_cast<double>(queue.executed()));
    add("sim.fused_hops", static_cast<double>(queue.fusedHops()));

    // The Prefetch Buffer is probed by every translation request when
    // it exists; the tree only counts its hits.
    const double pb_lookups =
        config.device.prefetch.enabled ? stat("device.translations")
                                       : 0.0;
    add("cache.pb.lookups", pb_lookups);
    add("cache.pb.hit_rate",
        pb_lookups == 0.0 ? 0.0 : stat("device.pb_hits") / pb_lookups);
    static constexpr std::pair<const char *, const char *> Caches[] = {
        {"devtlb", "device.devtlb"},
        {"context", "device.context_cache"},
        {"iotlb", "iommu.iotlb"},
        {"l2", "iommu.l2_cache"},
        {"l3", "iommu.l3_cache"},
    };
    double invalidations = 0.0;
    for (const auto &[name, group] : Caches) {
        const std::string base = group;
        const double lookups = stat(base + ".lookups");
        add(strprintf("cache.%s.lookups", name), lookups);
        add(strprintf("cache.%s.hit_rate", name),
            lookups == 0.0 ? 0.0 : stat(base + ".hits") / lookups);
        invalidations += stat(base + ".invalidations");
    }
    add("cache.devtlb.evictions", stat("device.devtlb.evictions"));
    add("cache.invalidations", invalidations);

    const stats::Histogram &walk = histogramAt(root, "iommu.walk_accesses");
    add("iommu.requests", stat("iommu.requests"));
    add("iommu.walks", stat("iommu.walks"));
    add("iommu.walk_accesses_mean", walk.mean());
    add("iommu.walk_accesses_p99", walk.percentile(99.0));
    add("iommu.coalesced", stat("iommu.coalesced"));
    add("iommu.prefetch_requests", stat("iommu.prefetch_requests"));

    add("mem.reads", stat("memory.reads"));
    add("mem.queued", stat("memory.queued"));
    add("mem.live_tables_end", static_cast<double>(system.tables().size()));
    return out;
}

int
runRep(const Options &opts)
{
    const Workload w =
        opts.quick ? quickSized(*opts.workload) : *opts.workload;
    const bool traced = !opts.traceOut.empty();
    PanicContext::set(strprintf("HYPERSIO_E2E_REPRO: workload=%s seed=%" PRIu64
                                " quick=%d",
                                w.name, opts.seed, opts.quick ? 1 : 0));

    // Only the workloads that ask for it run under the oracle, through
    // their own checker; nothing is auto-installed behind the timer.
    oracle::setShadowAutoCheck(false);

    core::SystemConfig config = w.basePreset
                                    ? core::SystemConfig::base()
                                    : core::SystemConfig::hypertrio();
    config.seed = opts.seed;

    SpanRecorder spans;
    std::optional<SpanScope> rep_span;
    rep_span.emplace(spans, "rep");

    // ---- Set-up: inputs and the System, rebuilt in every rep. ----
    trace::HyperTrace hyper;
    std::optional<workload::SoakStream> soak;
    workload::SoakConfig soak_cfg;
    if (w.input == Input::Trace) {
        std::vector<trace::TenantLog> logs;
        {
            SpanScope s(spans, "workload.generate");
            logs = workload::generateLogs(w.bench, w.tenants, opts.seed,
                                          w.scale);
        }
        SpanScope s(spans, "trace.construct");
        hyper = trace::constructTrace(logs,
                                      trace::parseInterleaving("RR1"));
    } else {
        soak_cfg.churn.bench = w.bench;
        soak_cfg.churn.population = w.tenants;
        soak_cfg.churn.slots = w.slots;
        soak_cfg.churn.seed = opts.seed;
        soak_cfg.stormPeriod = w.stormPeriod;
        SpanScope s(spans, "workload.generate");
        soak.emplace(soak_cfg);
    }
    std::optional<core::System> system;
    {
        SpanScope s(spans, "core.system_ctor");
        system.emplace(config);
    }

    // ---- The timed run. ----
    std::optional<MeteredStream> metered;
    if (soak)
        metered.emplace(*soak, traced);
    std::optional<oracle::ShadowChecker> checker;
    std::optional<stats::Snapshotter> snapper;
    uint64_t snapshot_bytes = 0;
    core::RunResults results;
    int run_id = -1;
    {
        SpanScope run(spans, "core.run");
        run_id = run.id();
        std::optional<oracle::ShadowScope> shadow;
        if (w.oracle) {
            checker.emplace(core::toShadowConfig(config),
                            &system->tables(), /*fail_fast=*/true);
            shadow.emplace(*checker);
        }
        if (w.input == Input::Trace) {
            results = system->run(hyper);
        } else {
            core::StreamRunOptions run_opts;
            run_opts.snapshotEveryPackets = w.snapshotEvery;
            run_opts.onSnapshot = [&](const core::System &sys,
                                      uint64_t) {
                SpanScope s(spans, "stats.snapshot");
                if (!snapper)
                    snapper.emplace(sys.statsRoot());
                const stats::Snapshot snap =
                    snapper->capture(sys.eventQueue().now());
                snapshot_bytes += stats::snapshotToJsonLine(
                                      snap, 0, opts.seed, false)
                                      .size();
            };
            results = system->runStream(*metered, run_opts);
        }
    }
    if (metered && traced) {
        Clock::time_point at = spans.start(run_id);
        for (int m = 0; m < MeteredStream::NumMethods; ++m) {
            const auto method = static_cast<MeteredStream::Method>(m);
            if (metered->calls(method) == 0)
                continue;
            spans.addChild(run_id,
                           std::string("workload.stream.") +
                               MeteredStream::MethodNames[m],
                           at, metered->time(method));
            at += metered->time(method);
        }
    }

    // ---- Outputs: the digest covers everything the run computed. ----
    std::string stats_json;
    {
        SpanScope s(spans, "stats.dump");
        std::ostringstream os;
        system->dumpStatsJson(os, 0);
        stats_json = os.str();
    }
    rep_span.reset();

    std::ostringstream results_json;
    {
        json::Writer rw(results_json, 0);
        core::writeRunResultsJson(rw, results);
    }
    const uint64_t digest =
        fnv1a(fnv1a(FnvOffset, results_json.str()), stats_json);

    // ---- Checks. ----
    std::vector<std::string> failed;
    const uint64_t expected_packets =
        soak ? soak->produced() : hyper.packets.size();
    if (results.packetsProcessed != expected_packets ||
        expected_packets == 0)
        failed.push_back("packets_processed");
    if (results.translations != 3 * results.packetsProcessed)
        failed.push_back("translations_per_packet");
    if (!(results.achievedGbps > 0.0 &&
          results.achievedGbps <= config.link.gbps))
        failed.push_back("sim_gbps_range");
    if (soak) {
        const uint64_t expected_tenants =
            soak_cfg.churn.population +
            soak->episodes() * soak_cfg.stormTenants;
        if (soak->attaches() != expected_tenants ||
            system->streamRetirements().size() != soak->attaches())
            failed.push_back("churn_attach_equals_retire");
        if (system->tables().size() != 0)
            failed.push_back("churn_live_tables");
        if (snapper.has_value() != (w.snapshotEvery != 0) ||
            snapshot_bytes == 0)
            failed.push_back("churn_snapshots");
    }
    if (checker &&
        (checker->eventCount() == 0 || checker->violationCount() != 0))
        failed.push_back("oracle");
    stats::Snapshot rss;
    stats::Snapshotter::sampleProcessRss(rss);
    if (!rss.rssKnown)
        failed.push_back("peak_rss_unavailable");

    // ---- Report. ----
    const stats::Histogram &latency =
        histogramAt(system->statsRoot(), "device.packet_latency_ns");
    const double setup =
        secondsOf(spans.total("workload.generate") +
                  spans.total("trace.construct") +
                  spans.total("core.system_ctor"));
    Clock::duration stream_time{};
    if (metered) {
        for (int m = 0; m < MeteredStream::NumMethods; ++m)
            stream_time +=
                metered->time(static_cast<MeteredStream::Method>(m));
    }

    json::Writer out(std::cout, 0);
    out.beginObject();
    out.key("workload");
    out.value(w.name);
    out.key("seed");
    out.value(opts.seed);
    out.key("quick");
    out.value(opts.quick);
    out.key("traced");
    out.value(traced);
    out.key("digest");
    out.value(strprintf("%016" PRIx64, digest));
    out.key("checks_failed");
    out.beginArray();
    for (const std::string &f : failed)
        out.value(f);
    out.endArray();

    out.key("host");
    out.beginObject();
    const std::pair<const char *, double> host[] = {
        {"setup_s", setup},
        {"run_s", secondsOf(spans.duration(run_id))},
        {"peak_rss_mib", static_cast<double>(rss.vmHwmKib) / 1024.0},
        {"workload.generate_s",
         secondsOf(spans.total("workload.generate"))},
        {"trace.construct_s", secondsOf(spans.total("trace.construct"))},
        {"core.system_ctor_s",
         secondsOf(spans.total("core.system_ctor"))},
        {"core.run_s", secondsOf(spans.duration(run_id))},
        {"core.run_self_s", secondsOf(spans.selfTime(run_id))},
        {"workload.stream_s", secondsOf(stream_time)},
        {"stats.snapshot_s", secondsOf(spans.total("stats.snapshot"))},
        {"stats.dump_s", secondsOf(spans.total("stats.dump"))},
    };
    for (const auto &[name, v] : host) {
        out.key(name);
        out.value(v);
    }
    out.endObject();

    out.key("sim");
    out.beginObject();
    const double attempts = static_cast<double>(
        results.packetsProcessed + results.packetsDropped);
    const std::pair<const char *, double> sim[] = {
        {"packets", static_cast<double>(results.packetsProcessed)},
        {"sim_gbps", results.achievedGbps},
        {"sim_utilization", results.utilization},
        {"sim_latency_p50_ns", latency.percentile(50.0)},
        {"sim_latency_p99_ns", latency.percentile(99.0)},
        {"sim_latency_samples", static_cast<double>(latency.samples())},
        {"sim_drop_ratio",
         attempts == 0.0 ? 0.0
                         : static_cast<double>(results.packetsDropped) /
                               attempts},
    };
    for (const auto &[name, v] : sim) {
        out.key(name);
        out.value(v);
    }
    out.endObject();

    out.key("counts");
    out.beginObject();
    const std::pair<const char *, double> input_counts[] = {
        {"workload.tenants_attached",
         static_cast<double>(soak ? soak->attaches() : hyper.numTenants)},
        {"workload.storm_episodes",
         static_cast<double>(soak ? soak->episodes() : 0)},
        {"workload.stream_calls",
         static_cast<double>(metered ? metered->totalCalls() : 0)},
        {"trace.packets", static_cast<double>(expected_packets)},
        {"trace.page_ops",
         static_cast<double>(metered ? metered->pageOps()
                                     : hyper.ops.size())},
        {"oracle.events",
         static_cast<double>(checker ? checker->eventCount() : 0)},
        {"oracle.translation_checks",
         static_cast<double>(checker ? checker->translationChecks() : 0)},
        {"oracle.violations",
         static_cast<double>(checker ? checker->violationCount() : 0)},
        {"stats.snapshots",
         static_cast<double>(snapper ? snapper->captures() : 0)},
    };
    for (const auto &[name, v] : input_counts) {
        out.key(name);
        out.value(v);
    }
    for (const auto &[name, v] : layerCounts(*system, config, results)) {
        out.key(name);
        out.value(v);
    }
    out.endObject();
    out.endObject();
    std::cout << std::endl;

    if (traced) {
        std::ofstream file(opts.traceOut, std::ios::trunc);
        if (!file)
            fatal("cannot open '%s' for writing", opts.traceOut.c_str());
        spans.writeChromeTrace(file, opts.rep, w.name);
        if (!file.flush())
            fatal("cannot write '%s'", opts.traceOut.c_str());
    }
    return failed.empty() ? 0 : 1;
}

} // namespace

int
main(int argc, char **argv)
{
    return runRep(parseArgs(argc, argv));
}
