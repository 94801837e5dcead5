/**
 * @file
 * The tenant-churn harness: a virtual-tenant *population* far beyond
 * the SID space churns through a bounded set of active slots,
 * sharded across independent Systems. Nothing is materialized —
 * packets come from lazy per-tenant generators and detached tenants
 * are fully retired — so peak memory is O(active slots), not
 * O(population). Every shard runs a workload::SoakStream.
 *
 * Two binaries are this file, each given its entry id by
 * HYPERSIO_CHURN (bench/CMakeLists.txt):
 *
 *  - hyperscale_bench: churn only. Its stream's stormPeriod is 0,
 *    where a SoakStream is its ChurnStream. scripts/check_repo.sh
 *    gate 7 diffs a fresh --smoke run, unchecked, against
 *    BENCH_hyperscale.json.
 *  - soak_bench: churn punctuated by adversarial invalidate-storm
 *    and remap-churn episodes, with periodic interval-telemetry
 *    snapshots streamed to disk as "hypersio-soak-1" JSON lines
 *    (stats::Snapshotter). Gate 8 runs its --smoke configuration
 *    under the shadow oracle against BENCH_soak.json.
 *
 * Snapshots trigger on simulated progress (every --snapshot-every
 * completed packets per shard), never on wall time, so every
 * deterministic field of the stream is a pure function of the
 * config; wall clock and VmRSS/VmHWM ride along under each line's
 * "wall" member. scripts/soak_report.py turns the stream into
 * per-interval throughput/hit-rate/RSS trajectories and fails on
 * drift or leak.
 *
 * Any in-run abort — a shadow-oracle violation, an invariant
 * assertion — prints a single-line HYPERSIO_SOAK_REPRO context
 * (seed, shard, interval) before the panic message, the soak
 * equivalent of the fuzz harness's HYPERSIO_FUZZ_SEED line.
 *
 *   hyperscale_bench --tenants 120000 --active 1024 --shards 4 \
 *                    --jobs 4                 # the 100K+ regime
 *   hyperscale_bench --smoke --rss-budget-mb 512   # ctest smoke
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
    std::string snapshotPath{};
    std::string jsonPath{};
    bool smoke = false; ///< small per-tenant packet budgets
    bool injectFault = false;
};

/** One churn binary. */
struct Entry
{
    const char *id;    ///< binary name and `--json` report id
    const char *title; ///< banner title
    uint64_t seedSalt; ///< per-shard churn seeds derive from it
    const char *label; ///< the interleave label of every point
    /** Runs storm episodes and snapshots, and takes their flags. */
    bool episodes;
    Options defaults;
    /** The defaults under `--smoke`; the other flags still win. */
    Options smoke;
};

const Entry Entries[] = {
    {"hyperscale_bench", "streaming tenant churn", 0x5a4d, "CHURN",
     false, {.stormPeriod = 0},
     {.population = 10000, .active = 256, .shards = 2, .jobs = 2,
      .stormPeriod = 0, .smoke = true}},
    {"soak_bench", "long-haul churn + adversarial episodes", 0x50ac,
     "SOAK", true, {},
     {.population = 2000, .active = 128, .shards = 2, .jobs = 2,
      .snapshotEvery = 4000, .stormPeriod = 3000, .stormPackets = 200,
      .stormTenants = 4, .smoke = true}},
};

const Entry &
findEntry(const char *id)
{
    for (const Entry &entry : Entries)
        if (std::strcmp(entry.id, id) == 0)
            return entry;
    panic("no churn entry '%s'", id);
}

void
printUsage(const Entry &entry, std::FILE *out)
{
    std::fputs("options:\n", out);
    if (entry.episodes)
        std::fputs(
            "  --minutes <f>        approximate run length; sizes the\n"
            "                       tenant population "
            "deterministically\n",
            out);
    std::fputs(
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
        "(default 1.0)\n",
        out);
    if (entry.episodes)
        std::fputs(
            "  --snapshot-every <n> packets per telemetry interval, "
            "per shard (default 20000)\n"
            "  --snapshots <file>   stream hypersio-soak-1 JSON lines "
            "here\n"
            "  --storm-period <n>   churn packets between adversarial "
            "episodes (default 8192; 0 disables)\n"
            "  --storm-packets <n>  packets per episode (default 512)\n"
            "  --storm-tenants <n>  tenants per episode (default 8)\n",
            out);
    std::fprintf(out,
                 "  --smoke              quick deterministic run "
                 "(%" PRIu64 " tenants, %u slots, %u shards)\n"
                 "  --rss-budget-mb <n>  fail if peak RSS (VmHWM) "
                 "exceeds this many MiB\n",
                 entry.smoke.population, entry.smoke.active,
                 entry.smoke.shards);
    if (entry.episodes)
        std::fputs("  --inject-fault       plant the DevTLB PTag "
                   "off-by-one (must abort with a repro line)\n",
                   out);
    std::fputs("  --json <file>        write the hypersio-bench-1 "
               "report\n",
               out);
}

/** The flags of argv read over `opts`. */
Options
readFlags(const Entry &entry, Options opts, int argc, char **argv)
{
    const bool soak = entry.episodes;
    bool tenants_given = false;
    for (core::ArgReader args(argc, argv); args.next();) {
        const std::string &arg = args.flag();
        if (arg == "--tenants") {
            opts.population = args.count();
            tenants_given = true;
        } else if (arg == "--active") {
            opts.active = args.count();
        } else if (arg == "--shards") {
            opts.shards = args.count();
        } else if (arg == "--jobs" || arg == "-j") {
            opts.jobs = args.count();
        } else if (arg == "--seed") {
            opts.seed = args.u64();
        } else if (arg == "--bench") {
            opts.bench = workload::parseBenchmark(args.value());
        } else if (arg == "--scale") {
            opts.scale = args.real();
        } else if (arg == "--smoke") {
            opts.smoke = true;
        } else if (arg == "--rss-budget-mb") {
            opts.rssBudgetMb = args.positive();
        } else if (arg == "--json") {
            opts.jsonPath = args.value();
        } else if (soak && arg == "--minutes") {
            opts.minutes = args.real();
        } else if (soak && arg == "--snapshot-every") {
            opts.snapshotEvery = args.positive();
        } else if (soak && arg == "--snapshots") {
            opts.snapshotPath = args.value();
        } else if (soak && arg == "--storm-period") {
            // 0 is legal here: storms off.
            opts.stormPeriod = args.u64();
        } else if (soak && arg == "--storm-packets") {
            opts.stormPackets = args.positive();
        } else if (soak && arg == "--storm-tenants") {
            opts.stormTenants = args.count();
        } else if (soak && arg == "--inject-fault") {
            opts.injectFault = true;
        } else if (arg == "--help" || arg == "-h") {
            printUsage(entry, stdout);
            std::exit(0);
        } else {
            printUsage(entry, stderr);
            fatal("unknown option '%s' (try --help)", arg.c_str());
        }
    }
    if (opts.minutes > 0.0 && !tenants_given) {
        const double sized =
            opts.minutes * TenantsPerMinute / opts.scale;
        if (sized >= 0x1p64)
            fatal("--minutes %g takes the tenant population past 64 "
                  "bits",
                  opts.minutes);
        opts.population = static_cast<uint64_t>(
            sized < 1.0 ? 1.0 : sized);
    }
    return opts;
}

Options
parseArgs(const Entry &entry, int argc, char **argv)
{
    Options opts = readFlags(entry, entry.defaults, argc, argv);
    // --smoke swaps the defaults wherever it stands: read the flags
    // again over the smoke preset.
    if (opts.smoke)
        opts = readFlags(entry, entry.smoke, argc, argv);
    // Shards and the report count tenants in 32 bits.
    if (opts.population > UINT32_MAX)
        fatal("a population of %" PRIu64 " tenants does not fit 32 "
              "bits",
              opts.population);
    if (opts.active < opts.shards)
        fatal("--active must be >= --shards (every shard needs a "
              "slot)");
    return opts;
}

/** Shard `s`'s workload: its slice of the population. */
workload::SoakConfig
shardSoak(const Entry &entry, const Options &opts, unsigned shard)
{
    workload::SoakConfig cfg;
    cfg.churn.bench = opts.bench;
    const uint64_t base = opts.population / opts.shards;
    const uint64_t extra = shard < (opts.population % opts.shards);
    cfg.churn.population = static_cast<unsigned>(base + extra);
    cfg.churn.slots = opts.active / opts.shards;
    cfg.churn.seed = hashCombine(opts.seed, entry.seedSalt + shard);
    // Smoke keeps budgets small so the ctest gates stay fast; the
    // long-tail heavy hitters stay in either mode.
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

/** One printed total; a named one is also a report scalar. */
struct Total
{
    const char *label;
    const char *scalar;
    uint64_t value;
};

} // namespace

int
main(int argc, char **argv)
{
    const Entry &entry = findEntry(HYPERSIO_CHURN);
    const Options opts = parseArgs(entry, argc, argv);
    bench::WallTimer timer;

    if (opts.injectFault)
        oracle::faultInjection().devtlbPtagOffByOne = true;

    // The JSON report rides the standard schema; config.scale and
    // config.max_tenants carry the budget scale and the population
    // so bench_compare.py refuses to diff mismatched regimes.
    core::BenchOptions report_opts;
    report_opts.scale = opts.scale;
    report_opts.maxTenants = static_cast<unsigned>(opts.population);
    report_opts.seed = opts.seed;
    report_opts.jobs = opts.jobs;
    report_opts.jsonPath = opts.jsonPath;
    bench::JsonReport report(entry.id, report_opts);

    std::printf("=== %s: %s ===\n", entry.id, entry.title);
    std::printf("(%" PRIu64 " virtual tenants over %u active slots, "
                "%u shards, %s, seed %" PRIu64,
                opts.population, opts.active, opts.shards,
                workload::benchmarkName(opts.bench), opts.seed);
    if (entry.episodes)
        std::printf(";\n storms every %" PRIu64 " packets x %" PRIu64
                    " packets x %u tenants; snapshots every %" PRIu64
                    " packets",
                    opts.stormPeriod, opts.stormPackets,
                    opts.stormTenants, opts.snapshotEvery);
    std::printf(")\n\n");

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
            shardSoak(entry, opts, shard));
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
        report.addPoint("shard" + std::to_string(s),
                        workload::benchmarkName(opts.bench),
                        static_cast<unsigned>(soaks[s]->numTenants()),
                        entry.label, results.perShard[s]);
    }

    // Deterministic scalars only (no RSS, no wall clock): gates 7
    // and 8 diff them at zero drift against the baselines.
    std::vector<Total> totals{
        {"packets processed", "packets_processed",
         results.packetsProcessed},
        {"packets dropped", "packets_dropped", results.packetsDropped},
        {"translations", "translations", results.translations},
        {"tenants attached", "tenants_attached", attaches},
        {"tenants retired", "tenants_retired", results.tenantsRetired},
    };
    if (entry.episodes) {
        totals.push_back({"storm episodes", "storm_episodes", episodes});
        totals.push_back(
            {"snapshots written", "snapshots_written", snapshots});
    }
    totals.push_back(
        {"max shard elapsed (ticks)", nullptr, results.maxElapsed});
    for (const Total &total : totals) {
        std::printf("%-26s %" PRIu64 "\n", total.label, total.value);
        if (total.scalar)
            report.addScalar(total.scalar,
                             static_cast<double>(total.value));
    }
    std::printf("%-26s %#014" PRIx64 "\n", "retire-merge checksum",
                results.mergeChecksum);
    // 48-bit, so a JSON double round-trip is exact.
    report.addScalar("retire_merge_checksum",
                     static_cast<double>(results.mergeChecksum));

    // Every tenant — churn population and every storm episode's —
    // must have been attached and fully retired, and every shard
    // must end with zero live page tables: the O(active) invariant
    // the harness exists to measure, and its no-leak invariant at
    // the functional level.
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

    report.write(timer.seconds());
    std::fprintf(stderr, "[wall] %.2f s (--jobs %u)\n",
                 timer.seconds(), opts.jobs);
    return 0;
}
