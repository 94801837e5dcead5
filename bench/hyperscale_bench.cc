/**
 * @file
 * Streaming hyper-scale regime: a tenant *population* far beyond the
 * SID space churns through a bounded set of active slots, sharded
 * across independent Systems. Nothing is materialized — packets come
 * from ChurnStream's lazy per-tenant generators and detached tenants
 * are fully retired — so peak memory is O(active slots), not
 * O(population). The committed BENCH_hyperscale.json baseline pins
 * the deterministic scalars (packet/retirement counts, the merged
 * retirement-timeline checksum); scripts/check_repo.sh gate 7 diffs
 * a fresh --smoke run against it.
 *
 *   hyperscale_bench --tenants 120000 --active 1024 --shards 4 \
 *                    --jobs 4                 # the 100K+ regime
 *   hyperscale_bench --smoke --rss-budget-mb 512   # ctest smoke
 */

#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>

#include "bench_common.hh"
#include "core/multi_system.hh"
#include "util/str.hh"
#include "workload/streaming.hh"

using namespace hypersio;

namespace
{

struct Options
{
    uint64_t population = 20000; ///< virtual tenants over the run
    unsigned active = 512;       ///< concurrently attached slots
    unsigned shards = 4;
    unsigned jobs = 4;
    uint64_t seed = 42;
    workload::Benchmark bench = workload::Benchmark::Iperf3;
    double scale = 1.0;     ///< scales per-tenant packet budgets
    uint64_t rssBudgetMb = 0; ///< 0 = report only, no gate
    std::string jsonPath;
    bool smoke = false;
};

constexpr const char *UsageText =
    "options:\n"
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
    "  --smoke              quick deterministic run (10000 "
    "tenants, 256 slots, 2 shards)\n"
    "  --rss-budget-mb <n>  fail if peak RSS (VmHWM) exceeds "
    "this many MiB\n"
    "  --json <file>        write the hypersio-bench-1 report";

Options
parseArgs(int argc, char **argv)
{
    Options opts;
    bool tenants_set = false, active_set = false;
    bool shards_set = false, jobs_set = false;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto next_value = [&](const char *flag) -> std::string {
            if (i + 1 >= argc)
                fatal("%s needs a value", flag);
            return argv[++i];
        };
        auto next_u64 = [&](const char *flag) {
            uint64_t value = 0;
            if (!parseU64(next_value(flag), value) || value == 0)
                fatal("%s needs a positive integer", flag);
            return value;
        };
        // Slot/shard/job counts are `unsigned` throughout the run
        // machinery; narrowing silently (the old static_cast) turned
        // e.g. --active 4G into --active 0. Reject out-of-range
        // values with the offending number instead.
        auto next_unsigned = [&](const char *flag) {
            const uint64_t value = next_u64(flag);
            if (value > std::numeric_limits<unsigned>::max()) {
                fatal("%s value %" PRIu64 " does not fit in an "
                      "unsigned count (max %u)",
                      flag, value,
                      std::numeric_limits<unsigned>::max());
            }
            return static_cast<unsigned>(value);
        };
        if (arg == "--tenants") {
            opts.population = next_u64("--tenants");
            tenants_set = true;
        } else if (arg == "--active") {
            opts.active = next_unsigned("--active");
            active_set = true;
        } else if (arg == "--shards") {
            opts.shards = next_unsigned("--shards");
            shards_set = true;
        } else if (arg == "--jobs" || arg == "-j") {
            opts.jobs = next_unsigned(arg.c_str());
            jobs_set = true;
        } else if (arg == "--seed") {
            uint64_t value = 0;
            if (!parseU64(next_value("--seed"), value))
                fatal("--seed needs an integer");
            opts.seed = value;
        } else if (arg == "--bench") {
            opts.bench =
                workload::parseBenchmark(next_value("--bench"));
        } else if (arg == "--scale") {
            double value = 0.0;
            if (!parseDouble(next_value("--scale"), value) ||
                value <= 0.0)
                fatal("--scale needs a positive number");
            opts.scale = value;
        } else if (arg == "--smoke") {
            opts.smoke = true;
        } else if (arg == "--rss-budget-mb") {
            opts.rssBudgetMb = next_u64("--rss-budget-mb");
        } else if (arg == "--json") {
            opts.jsonPath = next_value("--json");
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
            opts.population = 10000;
        if (!active_set)
            opts.active = 256;
        if (!shards_set)
            opts.shards = 2;
        if (!jobs_set)
            opts.jobs = 2;
    }
    if (opts.active < opts.shards)
        fatal("--active must be >= --shards (every shard needs a "
              "slot)");
    return opts;
}

/**
 * Peak resident set (VmHWM) in KiB from /proc/self/status. Returns
 * false when the file or the field is unavailable (non-Linux, masked
 * procfs) — never a silent 0, which would make an RSS budget gate
 * pass vacuously.
 */
bool
peakRssKib(uint64_t &out)
{
    std::ifstream status("/proc/self/status");
    if (!status)
        return false;
    std::ostringstream text;
    text << status.rdbuf();
    return parseVmHwmKib(text.str(), out);
}

/** Shard `s`'s churn workload: its slice of the population. */
workload::ChurnConfig
shardChurn(const Options &opts, unsigned shard)
{
    workload::ChurnConfig cfg;
    cfg.bench = opts.bench;
    const uint64_t base = opts.population / opts.shards;
    const uint64_t extra = shard < (opts.population % opts.shards);
    cfg.population = static_cast<unsigned>(base + extra);
    cfg.slots = opts.active / opts.shards;
    cfg.seed = hashCombine(opts.seed, 0x5a4dULL + shard);
    // Smoke keeps budgets small so the ctest gate stays fast; the
    // long-tail heavy hitters stay in either mode.
    if (opts.smoke) {
        cfg.minBudget = 24;
        cfg.maxBudget = 64;
        cfg.tailMin = 256;
        cfg.tailMax = 512;
    }
    auto scaled = [&](uint64_t v) {
        const auto s = static_cast<uint64_t>(
            static_cast<double>(v) * opts.scale);
        return s ? s : uint64_t{1};
    };
    cfg.minBudget = scaled(cfg.minBudget);
    cfg.maxBudget = scaled(cfg.maxBudget);
    cfg.tailMin = scaled(cfg.tailMin);
    cfg.tailMax = scaled(cfg.tailMax);
    return cfg;
}

} // namespace

int
main(int argc, char **argv)
{
    const Options opts = parseArgs(argc, argv);
    bench::WallTimer timer;

    // The JSON report rides the standard schema; config.scale and
    // config.max_tenants carry the budget scale and the population
    // so bench_compare.py refuses to diff mismatched regimes.
    core::BenchOptions report_opts;
    report_opts.scale = opts.scale;
    report_opts.maxTenants = static_cast<unsigned>(opts.population);
    report_opts.seed = opts.seed;
    report_opts.jobs = opts.jobs;
    report_opts.jsonPath = opts.jsonPath;
    bench::JsonReport report("hyperscale_bench", report_opts);

    std::printf("=== hyperscale_bench: streaming tenant churn ===\n");
    std::printf("(%" PRIu64 " virtual tenants over %u active slots, "
                "%u shards, %s, seed %" PRIu64 ")\n\n",
                opts.population, opts.active, opts.shards,
                workload::benchmarkName(opts.bench), opts.seed);

    core::SystemConfig config = core::SystemConfig::hypertrio();
    core::ShardedMultiSystem sharded(config, opts.shards, opts.jobs);

    uint64_t attaches = 0;
    std::vector<workload::ChurnStream *> churns(opts.shards);
    const core::ShardedRunResults results = sharded.run(
        [&](unsigned shard) {
            auto stream = std::make_unique<workload::ChurnStream>(
                shardChurn(opts, shard));
            churns[shard] = stream.get();
            return stream;
        });
    for (const workload::ChurnStream *churn : churns)
        attaches += churn->attaches();

    std::printf("%-26s %" PRIu64 "\n", "packets processed",
                results.packetsProcessed);
    std::printf("%-26s %" PRIu64 "\n", "packets dropped",
                results.packetsDropped);
    std::printf("%-26s %" PRIu64 "\n", "translations",
                results.translations);
    std::printf("%-26s %" PRIu64 "\n", "tenants attached", attaches);
    std::printf("%-26s %" PRIu64 "\n", "tenants retired",
                results.tenantsRetired);
    std::printf("%-26s %" PRIu64 "\n", "max shard elapsed (ticks)",
                results.maxElapsed);
    std::printf("%-26s %#014" PRIx64 "\n", "retire-merge checksum",
                results.mergeChecksum);

    // Every virtual tenant must have been attached and retired, and
    // every shard must end with zero live page tables — the bench
    // asserts the O(active) invariant it exists to measure.
    HYPERSIO_ASSERT(attaches == opts.population,
                    "attached %" PRIu64 " of %" PRIu64 " tenants",
                    attaches, opts.population);
    HYPERSIO_ASSERT(results.tenantsRetired == opts.population,
                    "retired %" PRIu64 " of %" PRIu64 " tenants",
                    results.tenantsRetired, opts.population);
    for (unsigned s = 0; s < opts.shards; ++s) {
        HYPERSIO_ASSERT(sharded.shard(s).tables().size() == 0,
                        "shard %u ended with %zu live page tables",
                        s, sharded.shard(s).tables().size());
    }

    uint64_t rss_kib = 0;
    const bool rss_known = peakRssKib(rss_kib);
    if (rss_known) {
        std::printf("%-26s %.1f MiB%s\n", "peak RSS (VmHWM)",
                    static_cast<double>(rss_kib) / 1024.0,
                    opts.rssBudgetMb
                        ? (" (budget " +
                           std::to_string(opts.rssBudgetMb) +
                           " MiB)").c_str()
                        : "");
    } else {
        std::printf("%-26s %s\n", "peak RSS (VmHWM)",
                    "unavailable");
    }
    if (opts.rssBudgetMb && !rss_known) {
        // A budget the harness cannot measure must not pass quietly:
        // the old code read a missing VmHWM as 0 KiB, turning the
        // O(active) memory gate into a no-op.
        fatal("--rss-budget-mb %" PRIu64 " requested but VmHWM is "
              "unavailable in /proc/self/status — cannot verify the "
              "RSS budget",
              opts.rssBudgetMb);
    }
    if (opts.rssBudgetMb && rss_kib > opts.rssBudgetMb * 1024) {
        fatal("peak RSS %.1f MiB exceeds the %" PRIu64
              " MiB budget — O(active) state is broken",
              static_cast<double>(rss_kib) / 1024.0,
              opts.rssBudgetMb);
    }

    if (report.enabled()) {
        for (unsigned s = 0; s < opts.shards; ++s) {
            report.addPoint(
                "shard" + std::to_string(s),
                workload::benchmarkName(opts.bench),
                static_cast<unsigned>(churns[s]->numTenants()),
                "CHURN", results.perShard[s]);
        }
        // Deterministic scalars only (no RSS, no wall clock): the
        // check_repo gate diffs them at zero drift. The checksum is
        // 48-bit so a JSON double round-trip is exact.
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
        report.addScalar("retire_merge_checksum",
                         static_cast<double>(results.mergeChecksum));
        report.write(timer.seconds());
    }

    std::fprintf(stderr, "[wall] %.2f s (--jobs %u)\n",
                 timer.seconds(), opts.jobs);
    return 0;
}
