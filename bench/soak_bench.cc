/**
 * @file
 * Long-haul soak harness: sustained tenant churn punctuated by
 * adversarial invalidate-storm and remap-churn episodes
 * (workload::SoakStream), sharded across independent Systems, with
 * periodic interval-telemetry snapshots streamed to disk as
 * "hypersio-soak-1" JSON lines (stats::Snapshotter).
 *
 * Snapshots trigger on simulated progress (every --snapshot-every
 * completed packets per shard), never on wall time, so every
 * deterministic field of the stream is a pure function of the
 * config; wall clock and VmRSS/VmHWM ride along under each line's
 * "wall" member. scripts/soak_report.py turns the stream into
 * per-interval throughput/hit-rate/RSS trajectories and fails on
 * drift or leak; scripts/check_repo.sh gate 8 runs the --smoke
 * configuration against the committed BENCH_soak.json baseline.
 *
 * Any in-run abort — a shadow-oracle violation, an invariant
 * assertion — prints a single-line HYPERSIO_SOAK_REPRO context
 * (seed, shard, interval) before the panic message, the soak
 * equivalent of the fuzz harness's HYPERSIO_FUZZ_SEED line.
 *
 *   soak_bench --minutes 10 --snapshots soak.jsonl   # long haul
 *   soak_bench --smoke --snapshots smoke.jsonl       # ctest smoke
 */

#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <mutex>
#include <string>
#include <vector>

#include "bench_common.hh"
#include "core/multi_system.hh"
#include "oracle/fault_injection.hh"
#include "stats/snapshot.hh"
#include "util/str.hh"
#include "workload/soak.hh"

using namespace hypersio;

namespace
{

/**
 * Nominal sizing constant for --minutes: virtual tenants simulated
 * per wall minute at scale 1 on the reference dev machine. The
 * resulting run length is approximate by design; the population it
 * derives is what keeps the workload deterministic.
 */
constexpr double TenantsPerMinute = 100000.0;

struct Options
{
    uint64_t population = 20000; ///< virtual tenants over the run
    double minutes = 0.0;        ///< 0 = take --tenants as given
    unsigned active = 512;       ///< concurrently attached slots
    unsigned shards = 4;
    unsigned jobs = 4;
    uint64_t seed = 42;
    workload::Benchmark bench = workload::Benchmark::Iperf3;
    double scale = 1.0; ///< scales per-tenant packet budgets
    uint64_t snapshotEvery = 20000; ///< packets per interval/shard
    uint64_t stormPeriod = 8192;    ///< churn packets per episode
    uint64_t stormPackets = 512;
    unsigned stormTenants = 8;
    uint64_t rssBudgetMb = 0; ///< 0 = report only, no gate
    std::string snapshotPath;
    std::string jsonPath;
    bool smoke = false;
    bool injectFault = false;
};

constexpr const char *UsageText =
    "options:\n"
    "  --minutes <f>        approximate run length; sizes the\n"
    "                       tenant population deterministically\n"
    "  --tenants <n>        virtual-tenant population "
    "(default 20000)\n"
    "  --active <n>         concurrently attached SID slots, "
    "split across shards (default 512)\n"
    "  --shards <n>         independent system shards "
    "(default 4)\n"
    "  --jobs, -j <n>       worker threads (results identical "
    "for any value; default 4)\n"
    "  --seed <n>           workload seed (default 42)\n"
    "  --bench <name>       iperf3 | mediastream | websearch\n"
    "  --scale <f>          per-tenant packet-budget scale "
    "(default 1.0)\n"
    "  --snapshot-every <n> packets per telemetry interval, per "
    "shard (default 20000)\n"
    "  --snapshots <file>   stream hypersio-soak-1 JSON lines "
    "here\n"
    "  --storm-period <n>   churn packets between adversarial "
    "episodes (default 8192; 0 disables)\n"
    "  --storm-packets <n>  packets per episode (default 512)\n"
    "  --storm-tenants <n>  tenants per episode (default 8)\n"
    "  --smoke              quick deterministic run (2000 "
    "tenants, 128 slots, 2 shards)\n"
    "  --rss-budget-mb <n>  fail if peak RSS (VmHWM) exceeds "
    "this many MiB\n"
    "  --inject-fault       plant the DevTLB PTag off-by-one "
    "(must abort with a repro line)\n"
    "  --json <file>        write the hypersio-bench-1 report";

Options
parseArgs(int argc, char **argv)
{
    Options opts;
    bool tenants_set = false, active_set = false;
    bool shards_set = false, jobs_set = false;
    bool every_set = false, period_set = false;
    bool spackets_set = false, stenants_set = false;
    for (core::ArgReader args(argc, argv); args.next();) {
        const std::string &arg = args.flag();
        if (arg == "--minutes") {
            opts.minutes = args.real();
        } else if (arg == "--tenants") {
            opts.population = args.positive();
            tenants_set = true;
        } else if (arg == "--active") {
            opts.active = args.count();
            active_set = true;
        } else if (arg == "--shards") {
            opts.shards = args.count();
            shards_set = true;
        } else if (arg == "--jobs" || arg == "-j") {
            opts.jobs = args.count();
            jobs_set = true;
        } else if (arg == "--seed") {
            opts.seed = args.u64();
        } else if (arg == "--bench") {
            opts.bench = workload::parseBenchmark(args.value());
        } else if (arg == "--scale") {
            opts.scale = args.real();
        } else if (arg == "--snapshot-every") {
            opts.snapshotEvery = args.positive();
            every_set = true;
        } else if (arg == "--snapshots") {
            opts.snapshotPath = args.value();
        } else if (arg == "--storm-period") {
            // 0 is legal here: storms off.
            opts.stormPeriod = args.u64();
            period_set = true;
        } else if (arg == "--storm-packets") {
            opts.stormPackets = args.positive();
            spackets_set = true;
        } else if (arg == "--storm-tenants") {
            opts.stormTenants = args.count();
            stenants_set = true;
        } else if (arg == "--smoke") {
            opts.smoke = true;
        } else if (arg == "--rss-budget-mb") {
            opts.rssBudgetMb = args.positive();
        } else if (arg == "--inject-fault") {
            opts.injectFault = true;
        } else if (arg == "--json") {
            opts.jsonPath = args.value();
        } else if (arg == "--help" || arg == "-h") {
            std::puts(UsageText);
            std::exit(0);
        } else {
            std::fputs(UsageText, stderr);
            std::fputc('\n', stderr);
            fatal("unknown option '%s' (try --help)", arg.c_str());
        }
    }
    if (opts.smoke) {
        if (!tenants_set)
            opts.population = 2000;
        if (!active_set)
            opts.active = 128;
        if (!shards_set)
            opts.shards = 2;
        if (!jobs_set)
            opts.jobs = 2;
        if (!every_set)
            opts.snapshotEvery = 4000;
        if (!period_set)
            opts.stormPeriod = 3000;
        if (!spackets_set)
            opts.stormPackets = 200;
        if (!stenants_set)
            opts.stormTenants = 4;
    }
    if (opts.minutes > 0.0 && !tenants_set) {
        const double sized =
            opts.minutes * TenantsPerMinute / opts.scale;
        if (sized >= 0x1p64)
            fatal("--minutes %g takes the tenant population past 64 "
                  "bits",
                  opts.minutes);
        opts.population = static_cast<uint64_t>(
            sized < 1.0 ? 1.0 : sized);
    }
    if (opts.active < opts.shards)
        fatal("--active must be >= --shards (every shard needs a "
              "slot)");
    return opts;
}

/** Shard `s`'s soak workload: its slice of the population. */
workload::SoakConfig
shardSoak(const Options &opts, unsigned shard)
{
    workload::SoakConfig cfg;
    cfg.churn.bench = opts.bench;
    const uint64_t base = opts.population / opts.shards;
    const uint64_t extra = shard < (opts.population % opts.shards);
    cfg.churn.population = static_cast<unsigned>(base + extra);
    cfg.churn.slots = opts.active / opts.shards;
    cfg.churn.seed = hashCombine(opts.seed, 0x50acULL + shard);
    if (opts.smoke) {
        cfg.churn.minBudget = 24;
        cfg.churn.maxBudget = 64;
        cfg.churn.tailMin = 256;
        cfg.churn.tailMax = 512;
    }
    for (uint64_t *budget : {&cfg.churn.minBudget, &cfg.churn.maxBudget,
                             &cfg.churn.tailMin, &cfg.churn.tailMax})
        *budget = bench::scaledBudget(*budget, opts.scale);
    cfg.stormPeriod = opts.stormPeriod;
    cfg.stormPackets = opts.stormPackets;
    cfg.stormTenants = opts.stormTenants;
    return cfg;
}

/** The single-line abort context (seed first, like the fuzzer). */
std::string
reproLine(const Options &opts, unsigned shard,
          const std::string &interval)
{
    return strprintf(
        "HYPERSIO_SOAK_REPRO: seed=%llu shard=%u interval=%s "
        "bench=%s tenants=%llu active=%u shards=%u scale=%g "
        "storm_period=%llu storm_packets=%llu storm_tenants=%u",
        (unsigned long long)opts.seed, shard, interval.c_str(),
        workload::benchmarkName(opts.bench),
        (unsigned long long)opts.population, opts.active,
        opts.shards, opts.scale,
        (unsigned long long)opts.stormPeriod,
        (unsigned long long)opts.stormPackets, opts.stormTenants);
}

/** Per-shard telemetry state (only its own worker thread touches
 *  the snapshotter/timer; the output stream is shared + locked). */
struct ShardTelemetry
{
    std::unique_ptr<stats::Snapshotter> snapper;
    bench::WallTimer timer;
    uint64_t lines = 0;
};

} // namespace

int
main(int argc, char **argv)
{
    const Options opts = parseArgs(argc, argv);
    bench::WallTimer timer;

    if (opts.injectFault)
        oracle::faultInjection().devtlbPtagOffByOne = true;

    core::BenchOptions report_opts;
    report_opts.scale = opts.scale;
    report_opts.maxTenants = static_cast<unsigned>(opts.population);
    report_opts.seed = opts.seed;
    report_opts.jobs = opts.jobs;
    report_opts.jsonPath = opts.jsonPath;
    bench::JsonReport report("soak_bench", report_opts);

    std::printf("=== soak_bench: long-haul churn + adversarial "
                "episodes ===\n");
    std::printf("(%" PRIu64 " virtual tenants over %u active slots, "
                "%u shards, %s, seed %" PRIu64 ";\n storms every "
                "%" PRIu64 " packets x %" PRIu64 " packets x %u "
                "tenants; snapshots every %" PRIu64 " packets)\n\n",
                opts.population, opts.active, opts.shards,
                workload::benchmarkName(opts.bench), opts.seed,
                opts.stormPeriod, opts.stormPackets,
                opts.stormTenants, opts.snapshotEvery);

    PanicContext::set(reproLine(opts, 0, "setup"));

    core::SystemConfig config = core::SystemConfig::hypertrio();
    core::ShardedMultiSystem sharded(config, opts.shards, opts.jobs);

    std::ofstream snapshot_file;
    std::mutex snapshot_mutex;
    const bool snapshotting = !opts.snapshotPath.empty();
    if (snapshotting) {
        snapshot_file.open(opts.snapshotPath, std::ios::trunc);
        if (!snapshot_file)
            fatal("cannot open '%s' for writing",
                  opts.snapshotPath.c_str());
    }

    std::vector<ShardTelemetry> telemetry(opts.shards);
    std::vector<workload::SoakStream *> soaks(opts.shards);

    auto make_stream = [&](unsigned shard) {
        auto stream = std::make_unique<workload::SoakStream>(
            shardSoak(opts, shard));
        soaks[shard] = stream.get();
        return stream;
    };
    auto make_options = [&](unsigned shard) {
        core::StreamRunOptions run_opts;
        run_opts.onRunStart = [&, shard](const core::System &) {
            // Worker-thread setup: from here on, any panic on this
            // shard's thread carries the repro line.
            PanicContext::set(reproLine(opts, shard, "0"));
            telemetry[shard].timer = bench::WallTimer();
        };
        if (snapshotting) {
            run_opts.snapshotEveryPackets = opts.snapshotEvery;
            run_opts.onSnapshot = [&, shard](
                                      const core::System &system,
                                      uint64_t) {
                ShardTelemetry &tel = telemetry[shard];
                if (!tel.snapper) {
                    tel.snapper =
                        std::make_unique<stats::Snapshotter>(
                            system.statsRoot());
                }
                stats::Snapshot snap = tel.snapper->capture(
                    system.eventQueue().now(),
                    tel.timer.seconds());
                stats::Snapshotter::sampleProcessRss(snap);
                const std::string line = stats::snapshotToJsonLine(
                    snap, shard, opts.seed);
                {
                    const std::lock_guard<std::mutex> lock(
                        snapshot_mutex);
                    snapshot_file << line << '\n';
                    snapshot_file.flush();
                }
                ++tel.lines;
                PanicContext::set(reproLine(
                    opts, shard,
                    std::to_string(snap.interval + 1)));
            };
        }
        return run_opts;
    };

    const core::ShardedRunResults results =
        sharded.run(make_stream, make_options);
    PanicContext::set(reproLine(opts, 0, "end"));

    uint64_t attaches = 0;
    uint64_t episodes = 0;
    uint64_t snapshots = 0;
    for (unsigned s = 0; s < opts.shards; ++s) {
        attaches += soaks[s]->attaches();
        episodes += soaks[s]->episodes();
        snapshots += telemetry[s].lines;
    }

    std::printf("%-26s %" PRIu64 "\n", "packets processed",
                results.packetsProcessed);
    std::printf("%-26s %" PRIu64 "\n", "packets dropped",
                results.packetsDropped);
    std::printf("%-26s %" PRIu64 "\n", "translations",
                results.translations);
    std::printf("%-26s %" PRIu64 "\n", "tenants attached", attaches);
    std::printf("%-26s %" PRIu64 "\n", "tenants retired",
                results.tenantsRetired);
    std::printf("%-26s %" PRIu64 "\n", "storm episodes", episodes);
    std::printf("%-26s %" PRIu64 "\n", "snapshots written",
                snapshots);
    std::printf("%-26s %" PRIu64 "\n", "max shard elapsed (ticks)",
                results.maxElapsed);
    std::printf("%-26s %#014" PRIx64 "\n", "retire-merge checksum",
                results.mergeChecksum);

    // Every tenant — churn population and every storm episode's —
    // must have been attached and fully retired, and every shard
    // must end with zero live page tables: the soak run's own
    // no-leak invariant at the functional level.
    const uint64_t expected =
        opts.population +
        episodes * static_cast<uint64_t>(opts.stormTenants);
    HYPERSIO_ASSERT(attaches == expected,
                    "attached %" PRIu64 " of %" PRIu64 " tenants",
                    attaches, expected);
    HYPERSIO_ASSERT(results.tenantsRetired == expected,
                    "retired %" PRIu64 " of %" PRIu64 " tenants",
                    results.tenantsRetired, expected);
    for (unsigned s = 0; s < opts.shards; ++s) {
        HYPERSIO_ASSERT(sharded.shard(s).tables().size() == 0,
                        "shard %u ended with %zu live page tables",
                        s, sharded.shard(s).tables().size());
    }
    if (snapshotting) {
        HYPERSIO_ASSERT(snapshots >= 3,
                        "only %" PRIu64 " snapshots written — run "
                        "too short for a trajectory (lower "
                        "--snapshot-every)",
                        snapshots);
    }

    bench::checkPeakRss(opts.rssBudgetMb);

    if (opts.injectFault) {
        // A planted fault that the run survives means the shadow
        // oracle missed it — that is itself a failure.
        fatal("--inject-fault run completed without the oracle "
              "catching the planted PTag corruption");
    }

    if (report.enabled()) {
        for (unsigned s = 0; s < opts.shards; ++s) {
            report.addPoint(
                "shard" + std::to_string(s),
                workload::benchmarkName(opts.bench),
                static_cast<unsigned>(soaks[s]->numTenants()),
                "SOAK", results.perShard[s]);
        }
        // Deterministic scalars only (no RSS, no wall clock): gate
        // 10 diffs them at zero drift against BENCH_soak.json.
        report.addScalar("packets_processed",
                         static_cast<double>(
                             results.packetsProcessed));
        report.addScalar("packets_dropped",
                         static_cast<double>(results.packetsDropped));
        report.addScalar("translations",
                         static_cast<double>(results.translations));
        report.addScalar("tenants_attached",
                         static_cast<double>(attaches));
        report.addScalar("tenants_retired",
                         static_cast<double>(results.tenantsRetired));
        report.addScalar("storm_episodes",
                         static_cast<double>(episodes));
        report.addScalar("snapshots_written",
                         static_cast<double>(snapshots));
        report.addScalar("retire_merge_checksum",
                         static_cast<double>(results.mergeChecksum));
        report.write(timer.seconds());
    }

    std::fprintf(stderr, "[wall] %.2f s (--jobs %u)\n",
                 timer.seconds(), opts.jobs);
    return 0;
}
