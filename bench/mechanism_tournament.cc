/**
 * @file
 * Mechanism tournament: the design-space lab the ablation bench
 * opens up, run as a cross-product bake-off. Every competitor keeps
 * the same link, PTB (32 entries) and walker budget, so the sweep
 * isolates the translation-caching mechanism itself:
 *
 *   base       shared LFU DevTLB (no isolation mechanism)
 *   part       PTag row partitioning (the paper's scheme)
 *   subentry   sub-entry sharing: same-layout tenants co-resident
 *              under one shared tag (MIG-style sub-entries)
 *   mmupf      MMU-aware DMA prefetcher along descriptor-ring
 *              strides (PrefetchKind::MmuDma)
 *   hypertrio  the paper's full design (partitions + SID-predictor
 *              prefetch)
 *   part+sub, sub+mmupf, full-combo — the combinations
 *
 * Each config reports achieved Gbps, utilization and hit rates per
 * tenant count (the JSON "points" block), plus a deterministic
 * area-proxy scalar ("area_kbits_<label>") derived from the config
 * geometry alone — SRAM bits for tags, payloads, sub-entries,
 * partition registers and prefetcher state — so the cost axis of
 * the bake-off is pinned by the committed BENCH_tournament.json
 * exactly like the performance axis (scripts/check_repo.sh gate 9).
 *
 *   mechanism_tournament --smoke --jobs 1 --json out.json  # gate
 *   mechanism_tournament --tenants 256 --jobs 8            # full
 */

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench_common.hh"

using namespace hypersio;

namespace
{

constexpr const char *UsageText =
    "options:\n"
    "  --smoke            quick deterministic sweep (scale 0.02,\n"
    "                     tenants {2, 8, 32}) for the ctest/repo "
    "gate\n"
    "  --tenants <n>      max tenant count of the sweep "
    "(default 256)\n"
    "  --scale <f>        trace scale (default 0.05; smoke 0.02)\n"
    "  --seed <n>         workload seed (default 42)\n"
    "  --jobs, -j <n>     worker threads (results identical for "
    "any value)\n"
    "  --verbose          progress lines to stderr\n"
    "  --json <file>      write the hypersio-bench-1 report";

core::BenchOptions
parseArgs(int argc, char **argv, bool &smoke)
{
    core::BenchOptions opts;
    opts.maxTenants = 256;
    bool scale_set = false, tenants_set = false;
    for (core::ArgReader args(argc, argv); args.next();) {
        const std::string &arg = args.flag();
        if (arg == "--smoke") {
            smoke = true;
        } else if (arg == "--tenants") {
            opts.maxTenants = static_cast<unsigned>(
                args.positive(iommu::ContextCache::SidSpace));
            tenants_set = true;
        } else if (arg == "--scale") {
            opts.scale = args.real();
            scale_set = true;
        } else if (arg == "--seed") {
            opts.seed = args.u64();
        } else if (arg == "--jobs" || arg == "-j") {
            opts.jobs = args.count();
        } else if (arg == "--verbose") {
            opts.verbose = true;
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
    if (smoke && !scale_set)
        opts.scale = 0.02;
    if (smoke && !tenants_set)
        opts.maxTenants = 32;
    return opts;
}

// ---- competitors -----------------------------------------------------

/** Common chassis: every mechanism gets the same PTB budget. */
core::SystemConfig
chassis(const char *name)
{
    core::SystemConfig config = core::SystemConfig::base();
    config.name = name;
    config.device.ptbEntries = 32;
    return config;
}

void
addPartitions(core::SystemConfig &config)
{
    config.device.devtlb.partitions = 8;
    config.iommu.l2tlb.partitions = 32;
    config.iommu.l3tlb.partitions = 64;
}

void
addSubEntries(core::SystemConfig &config)
{
    config.device.devtlb.subEntries = 4;
    config.iommu.l2tlb.subEntries = 4;
    config.iommu.l3tlb.subEntries = 4;
}

void
addMmuPrefetch(core::SystemConfig &config)
{
    config.device.prefetch.enabled = true;
    config.device.prefetch.kind = core::PrefetchKind::MmuDma;
    config.device.prefetch.bufferEntries = 32;
    config.device.prefetch.pagesPerPrefetch = 2;
}

struct Competitor
{
    const char *label;
    core::SystemConfig (*make)();
};

constexpr Competitor Competitors[] = {
    {"base", [] { return chassis("base"); }},
    {"part",
     [] {
         core::SystemConfig c = chassis("part");
         addPartitions(c);
         return c;
     }},
    {"subentry",
     [] {
         core::SystemConfig c = chassis("subentry");
         addSubEntries(c);
         return c;
     }},
    {"mmupf",
     [] {
         core::SystemConfig c = chassis("mmupf");
         addMmuPrefetch(c);
         return c;
     }},
    {"hypertrio",
     [] {
         core::SystemConfig c = core::SystemConfig::hypertrio();
         c.name = "hypertrio";
         return c;
     }},
    {"part+sub",
     [] {
         core::SystemConfig c = chassis("part+sub");
         addPartitions(c);
         addSubEntries(c);
         return c;
     }},
    {"sub+mmupf",
     [] {
         core::SystemConfig c = chassis("sub+mmupf");
         addSubEntries(c);
         addMmuPrefetch(c);
         return c;
     }},
    {"full-combo",
     [] {
         core::SystemConfig c = chassis("full-combo");
         addPartitions(c);
         addSubEntries(c);
         addMmuPrefetch(c);
         return c;
     }},
};

// ---- area proxy ------------------------------------------------------
//
// A relative SRAM-bit proxy derived from the config geometry alone
// (no simulation state), so it is bit-exactly reproducible and can
// sit in the committed baseline. It is a *ranking* device, not a
// synthesis result: 40-bit shared tags, 40-bit hPA payloads, 24-bit
// per-sub-entry disambiguation keys (the domain bits the shared tag
// strips), 8-bit PTag registers per partition.

double
cacheAreaBits(const cache::CacheConfig &config)
{
    constexpr double kTagBits = 40.0;
    constexpr double kValueBits = 40.0;
    constexpr double kSubKeyBits = 24.0;
    constexpr double kPtagBits = 8.0;
    double bits = static_cast<double>(config.partitions) * kPtagBits;
    if (config.subEntries <= 1) {
        bits += static_cast<double>(config.entries) *
                (kTagBits + kValueBits);
    } else {
        // One shared tag per entry; each tag carries subEntries
        // (domain key, payload) slots.
        bits += static_cast<double>(config.entries) * kTagBits;
        bits += static_cast<double>(config.entries) *
                static_cast<double>(config.subEntries) *
                (kSubKeyBits + kValueBits);
    }
    return bits;
}

double
prefetchAreaBits(const core::PrefetchConfig &config)
{
    if (!config.enabled)
        return 0.0;
    // The PB itself: full 64-bit keys + payloads.
    double bits = static_cast<double>(config.bufferEntries) *
                  (64.0 + 40.0);
    if (config.kind == core::PrefetchKind::MmuDma) {
        // 64 concurrently tracked streams x (lastPage 52, stride
        // 32, confidence 2, size 1, valid 1).
        bits += 64.0 * (52.0 + 32.0 + 2.0 + 1.0 + 1.0);
    } else {
        // SID-predictor table (256 x 16-bit next-SID) + the
        // history-length window.
        bits += 256.0 * 16.0;
        bits += static_cast<double>(config.historyLength + 1) * 16.0;
    }
    return bits;
}

double
areaKbits(const core::SystemConfig &config)
{
    double bits = cacheAreaBits(config.device.devtlb) +
                  cacheAreaBits(config.iommu.l2tlb) +
                  cacheAreaBits(config.iommu.l3tlb) +
                  prefetchAreaBits(config.device.prefetch);
    // PTB slots: request metadata, ~128 bits each.
    bits += static_cast<double>(config.device.ptbEntries) * 128.0;
    return bits / 1024.0;
}

} // namespace

int
main(int argc, char **argv)
{
    bool smoke = false;
    const core::BenchOptions opts = parseArgs(argc, argv, smoke);
    bench::banner("Mechanism tournament",
                  "partitioning vs sub-entry sharing vs MMU-aware "
                  "prefetch, and their combinations",
                  opts);

    const std::vector<unsigned> tenants =
        smoke ? std::vector<unsigned>{2, 8, 32}
              : core::paperTenantSweep(
                    std::min(opts.maxTenants, 256u));

    core::ExperimentRunner runner = bench::makeRunner(opts);
    const bench::WallTimer timer;
    bench::JsonReport report("mechanism_tournament", opts);
    bench::PointBatch batch(runner, &report);
    for (const Competitor &competitor : Competitors) {
        for (unsigned t : tenants)
            batch.add(competitor.make(), workload::Benchmark::Iperf3,
                      t);
    }
    batch.run(bench::progressSink(opts));

    // Collect in add() order; keep the last (largest-tenant) row of
    // each competitor for the summary table.
    std::vector<std::pair<std::string, std::vector<double>>> series;
    std::vector<core::RunResults> at_max;
    for (const Competitor &competitor : Competitors) {
        std::vector<double> values;
        core::RunResults last;
        for (unsigned t : tenants) {
            (void)t;
            last = batch.take();
            values.push_back(last.achievedGbps);
        }
        series.emplace_back(competitor.label, std::move(values));
        at_max.push_back(std::move(last));
    }
    core::printBandwidthTable(
        std::cout,
        "mechanism bake-off (iperf3 RR1, PTB=32 chassis)", tenants,
        series);

    // Cost/benefit summary at the hyper-tenant end of the sweep.
    std::printf("\nsummary at %u tenants (area proxy: SRAM-bit "
                "model, see header)\n",
                tenants.back());
    std::printf("%-16s %10s %8s %8s %8s %10s\n", "config", "Gb/s",
                "util", "DevTLB", "PB", "area Kb");
    for (size_t i = 0; i < std::size(Competitors); ++i) {
        const core::RunResults &r = at_max[i];
        const double area = areaKbits(Competitors[i].make());
        std::printf("%-16s %10.2f %7.1f%% %7.1f%% %7.1f%% %10.1f\n",
                    Competitors[i].label, r.achievedGbps,
                    r.utilization * 100.0, r.devtlbHitRate * 100.0,
                    r.pbHitRate * 100.0, area);
        report.addScalar(std::string("area_kbits_") +
                             Competitors[i].label,
                         area);
    }

    report.write(timer.seconds());
    bench::wallClockLine(timer, opts);
    return 0;
}
