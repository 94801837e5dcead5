/**
 * @file
 * Every bandwidth sweep as data, and the one driver that runs them:
 * the paper's §V figures (Figs. 4, 5, 9-12 and the design ablations),
 * the mechanism tournament, and the extensions (key-value-store
 * packets, Scalable IOV, multi-device sharing).
 *
 * Each sweep is an entry: banner, panels and a closing note. A panel
 * is a sweep over workloads × interleavings × tenant counts × series,
 * where a workload is a Table III benchmark or a variant of one's
 * tenant pattern, and a series is a column label, the configuration
 * it runs and the devices sharing the chipset. The driver walks every
 * point of every panel once, in one canonical order (panel, workload,
 * interleaving, tenant count, series), runs them all across the
 * `--jobs` pool, records each in the `--json` report, and hands each
 * panel its results to print: one bandwidth table per workload unless
 * the panel brings its own printer.
 *
 * An entry with an ablation panel accepts `--ablate`, and one with a
 * smoke preset accepts `--smoke`; any other entry refuses them.
 *
 * Every series' config.name is distinct within its entry: the
 * `--json` report keys points by (label, benchmark, tenants,
 * interleave) and refuses a key twice.
 *
 * Each binary is bench/figure_main.cc built with its entry's id
 * (bench/CMakeLists.txt).
 */

#include <algorithm>
#include <functional>
#include <limits>
#include <optional>

#include "bench_common.hh"

namespace hypersio::bench
{

namespace
{

using workload::Benchmark;

using Columns =
    std::vector<std::pair<std::string, std::vector<double>>>;

/**
 * A panel's workload: a Table III benchmark's trace, or a variant
 * whose `packets` per tenant are before `--scale`.
 */
struct Workload
{
    Benchmark bench;
    std::optional<core::WorkloadVariant> variant{};
};

/** One column of a panel: its label and the configuration it runs. */
struct Series
{
    std::string label;
    core::SystemConfig config;
    /** Runs untranslated (Fig. 5's native interface). */
    bool bypass = false;
    /** Identical devices sharing the one chipset IOMMU. */
    unsigned devices = 1;
};

struct PanelResults;

/** One sweep of a figure, printed as one unit. */
struct Panel
{
    /** Table title; " — <workload>" is added when there are several. */
    std::string title{};
    std::vector<Workload> workloads{{Benchmark::Iperf3},
                                    {Benchmark::Mediastream},
                                    {Benchmark::Websearch}};
    std::vector<std::string> interleavings{"RR1"};
    /** The tenant counts for a given `--tenants`. */
    std::function<std::vector<unsigned>(unsigned)> axis{};
    std::vector<Series> series{};
    /** Prints the panel; unset, one bandwidth table per workload. */
    std::function<void(const PanelResults &)> print{};
    /** Runs only under `--ablate`. */
    bool ablation = false;
};

/** What `--smoke` sets unless `--scale` or `--tenants` is given. */
struct Preset
{
    double scale;
    unsigned maxTenants;
    /** Every panel's tenant axis under `--smoke`, given `--tenants`. */
    std::function<std::vector<unsigned>(unsigned)> axis;
};

/** One sweep binary. */
struct Figure
{
    std::string id; ///< binary name and `--json` report id
    std::string banner;
    std::string title;
    std::vector<Panel> panels;
    /** Printed after the panels; empty for none. */
    std::string note;
    /** Set: the entry accepts `--smoke`. */
    std::optional<Preset> smoke{};
};

/** A panel's results, indexed the way the driver walked them. */
struct PanelResults
{
    const Panel &panel;
    std::vector<unsigned> tenants;
    uint64_t seed;
    /** The panel's first point in the driver's rows. */
    const core::ExperimentRow *first;
    /** Takes the panel's scalars; the driver has recorded its points. */
    JsonReport &report;

    const core::RunResults &
    at(size_t workload, size_t il, size_t tenant, size_t series) const
    {
        return first[((workload * panel.interleavings.size() + il) *
                           tenants.size() +
                       tenant) *
                          panel.series.size() +
                      series]
            .results;
    }

    std::string
    title(size_t workload) const
    {
        const Workload &w = panel.workloads[workload];
        if (panel.workloads.size() == 1)
            return panel.title;
        return panel.title + " — " +
               (w.variant ? w.variant->name
                          : workload::benchmarkName(w.bench));
    }

    /**
     * One workload's bandwidth columns: every series under every
     * interleaving, labelled "<series>/<interleaving>" when the panel
     * has several.
     */
    Columns
    columns(size_t workload) const
    {
        Columns cols;
        for (size_t il = 0; il < panel.interleavings.size(); ++il) {
            for (size_t s = 0; s < panel.series.size(); ++s) {
                std::string label = panel.series[s].label;
                if (panel.interleavings.size() > 1)
                    label += "/" + panel.interleavings[il];
                std::vector<double> gbps;
                for (size_t t = 0; t < tenants.size(); ++t)
                    gbps.push_back(at(workload, il, t, s).achievedGbps);
                cols.emplace_back(std::move(label), std::move(gbps));
            }
        }
        return cols;
    }
};

void
printTables(const PanelResults &r)
{
    for (size_t w = 0; w < r.panel.workloads.size(); ++w)
        core::printBandwidthTable(std::cout, r.title(w), r.tenants,
                                  r.columns(w));
}

/** The paper's 4, 8, 16, ... sweep up to `--tenants`, at most `cap`. */
std::function<std::vector<unsigned>(unsigned)>
tenantSweep(unsigned cap = std::numeric_limits<unsigned>::max())
{
    return [cap](unsigned max_tenants) {
        return core::paperTenantSweep(std::min(max_tenants, cap));
    };
}

/** `--tenants`, at most `cap`: one tenant count. */
std::function<std::vector<unsigned>(unsigned)>
cappedCount(unsigned cap)
{
    return [cap](unsigned max_tenants) {
        return std::vector<unsigned>{std::min(max_tenants, cap)};
    };
}

/** The counts in `counts` that `--tenants` reaches. */
std::function<std::vector<unsigned>(unsigned)>
upTo(std::vector<unsigned> counts)
{
    return [counts](unsigned max_tenants) {
        std::vector<unsigned> axis = counts;
        std::erase_if(axis, [&](unsigned t) { return t > max_tenants; });
        return axis;
    };
}

/** The same tenant (connection) counts whatever `--tenants` says. */
std::function<std::vector<unsigned>(unsigned)>
fixedAxis(std::vector<unsigned> counts)
{
    return [counts](unsigned) { return counts; };
}

core::SystemConfig
renamed(core::SystemConfig config, std::string name)
{
    config.name = std::move(name);
    return config;
}

/** Table IV "HyperTRIO without prefetching" with a given PTB depth. */
core::SystemConfig
partitionedPtbConfig(unsigned ptb_entries)
{
    core::SystemConfig config =
        renamed(core::SystemConfig::hypertrio(),
                "part+ptb" + std::to_string(ptb_entries));
    config.device.ptbEntries = ptb_entries;
    config.device.prefetch.enabled = false;
    return config;
}

/** Table IV's DevTLB, L2 and L3 TLB partitioning added to `config`. */
core::SystemConfig
partitioned(core::SystemConfig config, std::string name)
{
    config.name = std::move(name);
    config.device.devtlb.partitions = 8;
    config.iommu.l2tlb.partitions = 32;
    config.iommu.l3tlb.partitions = 64;
    return config;
}

const std::vector<Workload> Iperf3Only{{Benchmark::Iperf3}};

/**
 * Fig. 4. The paper read IOMMU counters on an AMD host over a 10 Gb/s
 * NIC. The IOTLB is sized so the capacity knee falls inside the
 * measured 80-120 connection window (8 hot pages per iperf3 tenant).
 * The panel prints the IOTLB miss rate and the nested (walk) reads.
 */
Figure
fig04()
{
    core::SystemConfig amd =
        renamed(core::SystemConfig::base(), "amd-analogue");
    amd.link.gbps = 10.0;
    amd.iommu.iotlb.entries = 768;
    amd.iommu.iotlb.ways = 8;
    auto print = [](const PanelResults &r) {
        std::printf("%12s %16s %18s\n", "connections", "miss rate (%)",
                    "nested PT reads");
        for (size_t t = 0; t < r.tenants.size(); ++t) {
            const core::RunResults &res = r.at(0, 0, t, 0);
            const double miss_rate =
                res.iommuRequests == 0
                    ? 0.0
                    : 100.0 * (1.0 - res.iotlbHitRate);
            std::printf("%12u %16.2f %18llu\n", r.tenants[t],
                        miss_rate, (unsigned long long)res.walks);
        }
    };
    return {"fig04_iommu_missrate", "Fig. 4",
            "IOMMU TLB miss rate vs parallel connections (10 Gb/s, "
            "AMD-host analogue)",
            {{.workloads = Iperf3Only,
              .axis = fixedAxis({40, 60, 80, 90, 100, 110, 120}),
              .series = {{"amd-analogue", amd}},
              .print = print}},
            "paper: <0.1% below 80 connections, ~4.3% at 120; nested "
            "reads grow >400x from 80 to 120\n(model nested-read "
            "growth is reported in the table above)"};
}

/** Fig. 5, Intel-host analogue: "native" bypasses translation. */
Figure
fig05()
{
    core::SystemConfig intel = core::SystemConfig::base();
    intel.link.gbps = 10.0;
    return {"fig05_native_vs_vf", "Fig. 5",
            "native vs VF cumulative bandwidth (10 Gb/s, Intel-host "
            "analogue)",
            {{.title = "cumulative bandwidth (Gb/s)",
              .workloads = Iperf3Only,
              .axis = fixedAxis({1, 2, 4, 8, 12, 16, 24, 32}),
              .series = {{"native", renamed(intel, "intel-native"), true},
                         {"VF", renamed(intel, "intel-vf")}}}},
            "paper: native ~9.5 Gb/s throughout; VF matches native up "
            "to 8 pairs, then collapses to ~0.5 Gb/s beyond 16"};
}

Figure
fig09()
{
    auto shape = [](const char *label, size_t entries, size_t ways) {
        core::SystemConfig config =
            renamed(core::SystemConfig::base(), label);
        config.device.devtlb.entries = entries;
        config.device.devtlb.ways = ways;
        return Series{label, config};
    };
    return {"fig09_devtlb_config", "Fig. 9",
            "modeled bandwidth vs DevTLB config and connection count "
            "(200 Gb/s, Base)",
            {{.title = "aggregate bandwidth (Gb/s), iperf3 RR1",
              .workloads = Iperf3Only,
              .axis = tenantSweep(256),
              .series = {shape("64e/8w", 64, 8), shape("64e/fa", 64, 64),
                         shape("32e/8w", 32, 8)}}},
            "paper: full link for few connections; for an 8-way "
            "DevTLB more than ~4 concurrent connections start "
            "evicting each other until the translation subsystem "
            "throttles the link"};
}

Figure
fig10()
{
    return {"fig10_scalability", "Fig. 10",
            "HyperTRIO vs Base bandwidth scalability",
            {{.title = "bandwidth (Gb/s)",
              .interleavings = {"RR1", "RR4", "RAND1"},
              .axis = tenantSweep(),
              .series = {{"base", core::SystemConfig::base()},
                         {"HT", core::SystemConfig::hypertrio()}}}},
            "paper: Base stays between 12 and 30 Gb/s beyond 32 "
            "tenants (<=15% of the link, RR4 above RR1); HyperTRIO "
            "reaches up to 100% at 1024 tenants and ~80% under RAND1"};
}

Figure
fig11a()
{
    std::vector<Series> sizes;
    for (unsigned entries : {64u, 1024u}) {
        const std::string label = std::to_string(entries) + "e";
        core::SystemConfig config =
            renamed(core::SystemConfig::base(), "base-" + label);
        config.device.devtlb.entries = entries;
        sizes.push_back({label, config});
    }
    return {"fig11a_devtlb_size", "Fig. 11a",
            "Base design, 64 vs 1024-entry 8-way DevTLB",
            {{.title = "bandwidth (Gb/s)",
              .interleavings = {"RR1", "RR4"},
              .axis = tenantSweep(),
              .series = std::move(sizes)}},
            "paper: 1024 entries help up to ~64 tenants; beyond 128 "
            "tenants both sizes perform the same because hot sets "
            "conflict (same guest gIOVAs), and RR4 can beat a bigger "
            "DevTLB via in-burst reuse"};
}

/** Fig. 11b: LFU suits the three frequency groups; Belady bounds it. */
Figure
fig11b()
{
    std::vector<Series> policies;
    for (auto policy :
         {cache::ReplPolicyKind::LRU, cache::ReplPolicyKind::LFU,
          cache::ReplPolicyKind::Oracle}) {
        const std::string label = cache::replPolicyName(policy);
        core::SystemConfig config =
            renamed(core::SystemConfig::base(), "base-" + label);
        config.device.devtlb.policy = policy;
        policies.push_back({label, config});
    }
    return {"fig11b_replacement", "Fig. 11b",
            "DevTLB replacement policies (Base, 64e/8w)",
            {{.title = "bandwidth (Gb/s), RR1",
              .axis = tenantSweep(256),
              .series = std::move(policies)}},
            "paper: LFU outperforms LRU near the knee (up to 2x for "
            "iperf3 at 16 tenants); oracle is slightly better still, "
            "but no policy makes the shared DevTLB scale in the "
            "hyper-tenant regime"};
}

/**
 * Fig. 11c: once the tenant count approaches the entry count, even an
 * ideally replaced fully-associative DevTLB misses. The measured
 * active translation sets (cf. Fig. 8) head the tables.
 */
Figure
fig11c()
{
    std::vector<Series> sizes;
    for (size_t entries : {8u, 32u, 36u, 64u}) {
        core::SystemConfig config =
            renamed(core::SystemConfig::base(),
                    "base-fa" + std::to_string(entries));
        config.device.devtlb = {entries, entries, 1,
                                cache::ReplPolicyKind::Oracle, 7};
        sizes.push_back({std::to_string(entries) + "e-FA", config});
    }
    auto print = [](const PanelResults &r) {
        for (Benchmark bench : workload::AllBenchmarks)
            std::printf("measured active translation set, %-12s: %u\n",
                        workload::benchmarkName(bench),
                        activeSet(bench, r.seed));
        printTables(r);
    };
    return {"fig11c_fullassoc", "Fig. 11c",
            "fully-associative DevTLB with oracle replacement",
            {{.title = "bandwidth (Gb/s), RR1",
              .axis = tenantSweep(128),
              .series = std::move(sizes),
              .print = print}},
            "paper: once more than ~8 tenants share the device, even "
            "an ideally replaced fully-associative DevTLB produces low "
            "utilisation — the tenant count reaches the entry count "
            "and every request misses"};
}

/** Fig. 12a: Table IV partitioning, still PTB=1 and no prefetching. */
Figure
fig12a()
{
    return {"fig12a_partitioning", "Fig. 12a",
            "partitioned DevTLB + L2/L3 TLBs (PTB=1, no prefetch)",
            {{.title = "bandwidth (Gb/s), RR1",
              .axis = tenantSweep(),
              .series = {{"base", core::SystemConfig::base()},
                         {"partitioned",
                          partitioned(core::SystemConfig::base(),
                                      "partitioned")}}}},
            "paper: link utilisation stays high until multiple "
            "tenants share a partition; partitioning beats "
            "bigger/“smarter” DevTLBs but does not solve hyper-tenant "
            "scalability alone"};
}

/**
 * Fig. 12b: PTB depth on the partitioned design. Its `--ablate` panel
 * sweeps the IOMMU walker slots, a knob the paper keeps implicit (its
 * model allows unlimited concurrent walks).
 */
Figure
fig12b()
{
    std::vector<Series> depths;
    for (unsigned ptb : {1u, 2u, 4u, 8u, 16u, 32u, 64u})
        depths.push_back(
            {"PTB" + std::to_string(ptb), partitionedPtbConfig(ptb)});
    std::vector<Series> walkers;
    for (unsigned w : {4u, 8u, 16u, 32u, 0u}) {
        const std::string label =
            w == 0 ? "unlimited" : "W" + std::to_string(w);
        core::SystemConfig config =
            renamed(partitionedPtbConfig(32), "part+ptb32-" + label);
        config.iommu.walkers = w;
        walkers.push_back({label, config});
    }
    auto print_walkers = [](const PanelResults &r) {
        std::printf("\n--- ablation: IOMMU walker slots (PTB=32, "
                    "partitioned, iperf3) ---\n");
        printTables(r);
    };
    return {"fig12b_ptb", "Fig. 12b",
            "Pending Translation Buffer size (partitioned design, no "
            "prefetch)",
            {{.title = "bandwidth (Gb/s), RR1",
              .axis = tenantSweep(),
              .series = std::move(depths)},
             {.title = "walker-slot ablation (Gb/s)",
              .workloads = Iperf3Only,
              .axis = tenantSweep(),
              .series = std::move(walkers),
              .print = print_walkers,
              .ablation = true}},
            "paper: 8 PTB entries reach full bandwidth up to 16 "
            "tenants; 32 entries achieve ~136 Gb/s at 1024 tenants; "
            "beyond that, growing the PTB stops paying for its "
            "hardware"};
}

/**
 * Fig. 12c: prefetching on top of partitioning + PTB-32, with the
 * Prefetch Buffer hit rate beside it, then the PB size × history
 * length sensitivity sweep. This model's prefetch path is shorter
 * than the authors' testbed, so its calibrated optimum differs from
 * the paper's (8-entry PB, 48-access stride); the sweep shows the
 * trade-off.
 */
Figure
fig12c()
{
    auto print_gain = [](const PanelResults &r) {
        for (size_t w = 0; w < r.panel.workloads.size(); ++w) {
            Columns cols = r.columns(w);
            std::vector<double> pb_rate;
            for (size_t t = 0; t < r.tenants.size(); ++t)
                pb_rate.push_back(r.at(w, 0, t, 1).pbHitRate * 100.0);
            cols.emplace_back("PB-hit(%)", std::move(pb_rate));
            core::printBandwidthTable(std::cout, r.title(w),
                                      r.tenants, cols);
        }
    };
    std::vector<Series> knobs;
    for (unsigned pb : {8u, 16u, 32u}) {
        for (unsigned h : {12u, 20u, 32u, 48u}) {
            core::SystemConfig config =
                renamed(core::SystemConfig::hypertrio(),
                        "hypertrio-pb" + std::to_string(pb) + "-h" +
                            std::to_string(h));
            config.device.prefetch.bufferEntries = pb;
            config.device.prefetch.historyLength = h;
            knobs.push_back({"", config});
        }
    }
    auto print_knobs = [](const PanelResults &r) {
        std::printf("\n--- prefetcher sensitivity at %u tenants "
                    "(iperf3 RR1) ---\n",
                    r.tenants[0]);
        std::printf("%8s %8s %12s %10s\n", "PB", "history", "Gb/s",
                    "PB-hit(%)");
        for (size_t s = 0; s < r.panel.series.size(); ++s) {
            const auto &prefetch =
                r.panel.series[s].config.device.prefetch;
            const core::RunResults &res = r.at(0, 0, 0, s);
            std::printf("%8u %8u %12.1f %10.1f\n",
                        prefetch.bufferEntries, prefetch.historyLength,
                        res.achievedGbps, res.pbHitRate * 100.0);
        }
    };
    return {"fig12c_prefetch", "Fig. 12c",
            "translation prefetching gain over partitioned design "
            "with PTB=32",
            {{.title = "bandwidth (Gb/s), RR1",
              .axis = tenantSweep(),
              .series = {{"no-prefetch", partitionedPtbConfig(32)},
                         {"prefetch", core::SystemConfig::hypertrio()}},
              .print = print_gain},
             {.workloads = Iperf3Only,
              .axis = cappedCount(256),
              .series = std::move(knobs),
              .print = print_knobs}},
            "paper: prefetching improves hyper-tenant link utilisation "
            "by up to 30% (websearch) and serves ~45% of requests from "
            "the Prefetch Buffer at 1024 tenants; it scales better "
            "than growing the PTB because buffer and history length "
            "stay fixed"};
}

/**
 * Design choices the paper fixes or leaves open: paging depth (4-level
 * vs the 5-level paging/EPT the paper cites from Intel's white
 * papers, 24 vs 35 accesses per full walk), partition granularity
 * (which the paper leaves "outside the scope of this work") and the
 * LFU counter width (its 4-bit, halve-on-saturate choice).
 */
Figure
ablations()
{
    std::vector<Series> levels;
    for (unsigned n : {4u, 5u}) {
        core::SystemConfig config =
            renamed(partitionedPtbConfig(32),
                    "part+ptb32-" + std::to_string(n) + "level");
        config.iommu.pagingLevels = n;
        levels.push_back({std::to_string(n) + "-level", config});
    }
    std::vector<Series> partitions;
    for (size_t n : {1u, 2u, 4u, 8u}) {
        core::SystemConfig config =
            renamed(core::SystemConfig::base(),
                    "base+ptb8-" + std::to_string(n) + "part");
        config.device.ptbEntries = 8;
        config.device.devtlb.partitions = n;
        partitions.push_back({std::to_string(n) + "-part", config});
    }
    std::vector<Series> widths;
    for (unsigned bits : {2u, 4u, 8u}) {
        core::SystemConfig config =
            renamed(core::SystemConfig::base(),
                    "base-lfu" + std::to_string(bits) + "bit");
        config.device.devtlb.lfuBits = bits;
        widths.push_back({std::to_string(bits) + "-bit", config});
    }
    return {"ablation_design", "Ablations",
            "paging depth, partition granularity, LFU width",
            {{.title = "paging depth (partitioned, PTB=32, no "
                       "prefetch, iperf3 RR1)",
              .workloads = Iperf3Only,
              .axis = tenantSweep(256),
              .series = std::move(levels)},
             {.title = "DevTLB partition count (PTB=8, iperf3 RR1) — "
                       "more partitions isolate more tenant groups "
                       "but shrink each group's reach",
              .workloads = Iperf3Only,
              .axis = tenantSweep(256),
              .series = std::move(partitions)},
             {.title = "LFU counter width (Base, iperf3 RR1)",
              .workloads = Iperf3Only,
              .axis = tenantSweep(256),
              .series = std::move(widths)}},
            ""};
}

// ---- area proxy of the mechanism tournament -------------------------
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

/**
 * The mechanism tournament: the paper's partitioning against
 * sub-entry sharing (same-layout tenants co-resident under one shared
 * tag, Li et al., arXiv 2404.18361) and an MMU-aware DMA prefetcher
 * along descriptor-ring strides (Kurth et al., arXiv 1808.09751),
 * alone and combined. Every competitor keeps the same link, 32-entry
 * PTB and walker budget, so the sweep isolates the translation-caching
 * mechanism itself. The summary
 * adds each competitor's area proxy (above), reported as the scalar
 * `area_kbits_<label>`, so the committed BENCH_tournament.json pins
 * the cost axis like the performance one (scripts/check_repo.sh
 * gate 9 runs `--smoke`).
 */
Figure
tournament()
{
    auto chassis = [](const char *name, bool partitions,
                      bool sub_entries, bool mmu_prefetch) {
        core::SystemConfig config =
            renamed(core::SystemConfig::base(), name);
        config.device.ptbEntries = 32;
        if (partitions)
            config = partitioned(config, name);
        if (sub_entries) {
            config.device.devtlb.subEntries = 4;
            config.iommu.l2tlb.subEntries = 4;
            config.iommu.l3tlb.subEntries = 4;
        }
        if (mmu_prefetch) {
            config.device.prefetch.enabled = true;
            config.device.prefetch.kind = core::PrefetchKind::MmuDma;
            config.device.prefetch.bufferEntries = 32;
            config.device.prefetch.pagesPerPrefetch = 2;
        }
        return Series{name, config};
    };
    auto print = [](const PanelResults &r) {
        printTables(r);
        std::printf("\nsummary at %u tenants (area proxy: SRAM-bit "
                    "model, see header)\n",
                    r.tenants.back());
        std::printf("%-16s %10s %8s %8s %8s %10s\n", "config", "Gb/s",
                    "util", "DevTLB", "PB", "area Kb");
        for (size_t s = 0; s < r.panel.series.size(); ++s) {
            const Series &series = r.panel.series[s];
            const core::RunResults &res =
                r.at(0, 0, r.tenants.size() - 1, s);
            const double area = areaKbits(series.config);
            std::printf("%-16s %10.2f %7.1f%% %7.1f%% %7.1f%% %10.1f\n",
                        series.label.c_str(), res.achievedGbps,
                        res.utilization * 100.0,
                        res.devtlbHitRate * 100.0,
                        res.pbHitRate * 100.0, area);
            r.report.addScalar("area_kbits_" + series.label, area);
        }
    };
    return {"mechanism_tournament", "Mechanism tournament",
            "partitioning vs sub-entry sharing vs MMU-aware prefetch, "
            "and their combinations",
            {{.title = "mechanism bake-off (iperf3 RR1, PTB=32 chassis)",
              .workloads = Iperf3Only,
              .axis = tenantSweep(256),
              .series = {chassis("base", false, false, false),
                         chassis("part", true, false, false),
                         chassis("subentry", false, true, false),
                         chassis("mmupf", false, false, true),
                         {"hypertrio", core::SystemConfig::hypertrio()},
                         chassis("part+sub", true, true, false),
                         chassis("sub+mmupf", false, true, true),
                         chassis("full-combo", true, true, true)},
              .print = print}},
            "",
            Preset{0.02, 32, upTo({2, 8, 32})}};
}

/**
 * An extension workload: iperf3's tenant pattern as `vary` changes
 * it, 22000 packets per tenant before `--scale`.
 */
Workload
iperf3Variant(std::string name,
              const std::function<void(workload::TenantPattern &)> &vary)
{
    workload::TenantPattern pattern =
        workload::benchmarkProfile(Benchmark::Iperf3).pattern;
    vary(pattern);
    return {Benchmark::Iperf3,
            core::WorkloadVariant{std::move(name), pattern, 22000}};
}

/** The Base and HyperTRIO designs the extensions compare. */
const std::vector<Series> BaseVsHyperTrio{
    {"base", core::SystemConfig::base()},
    {"hypertrio", core::SystemConfig::hypertrio()}};

/**
 * Extension: small-packet (key-value-store) traffic. The paper
 * motivates the PTB by noting that at 200 Gb/s a 1500 B packet leaves
 * only ~74 device cycles for all translations — "even less for
 * real-world applications" like key-value stores where most keys are
 * under 60 B and values under 1000 B. A growing fraction of an
 * iperf3-like tenant's packets are 256 B on the wire.
 */
Figure
kvstore()
{
    std::vector<Workload> mixes;
    for (double mix : {0.0, 0.5, 0.9}) {
        mixes.push_back(iperf3Variant(
            "kvstore-mix" + std::to_string(static_cast<int>(mix * 100)),
            [mix](workload::TenantPattern &pattern) {
                pattern.smallPacketBytes = 256;
                pattern.smallPacketProb = mix;
            }));
    }
    auto print = [](const PanelResults &r) {
        std::printf("%u tenants, RR1; small packets are 256 B on the "
                    "wire (vs 1542 B full)\n\n",
                    r.tenants[0]);
        std::printf("%14s %12s %14s %14s %12s\n", "small-pkt mix",
                    "config", "Gb/s", "packets/us", "drops(%)");
        for (size_t w = 0; w < r.panel.workloads.size(); ++w) {
            for (size_t s = 0; s < r.panel.series.size(); ++s) {
                const core::RunResults &res = r.at(w, 0, 0, s);
                const double arrivals = static_cast<double>(
                    res.packetsProcessed + res.packetsDropped);
                const double pkt_rate =
                    res.elapsed == 0
                        ? 0.0
                        : static_cast<double>(res.packetsProcessed) /
                              (ticksToNs(res.elapsed) / 1000.0);
                const double drop_pct =
                    arrivals == 0 ? 0.0
                                  : 100.0 * static_cast<double>(
                                                res.packetsDropped) /
                                        arrivals;
                std::printf(
                    "%13.0f%% %12s %14.1f %14.2f %12.1f\n",
                    r.panel.workloads[w].variant->pattern
                            .smallPacketProb *
                        100.0,
                    r.panel.series[s].label.c_str(), res.achievedGbps,
                    pkt_rate, drop_pct);
            }
        }
    };
    return {"ext_kvstore", "Extension: key-value-store packets",
            "bandwidth under shrinking per-packet time budgets",
            {{.workloads = std::move(mixes),
              .axis = cappedCount(256),
              .series = BaseVsHyperTrio,
              .print = print}},
            "Small packets shrink the arrival interval (256 B = 10.2 ns "
            "at 200 Gb/s vs 61.7 ns full-size): the same translation "
            "latency must now hide behind far fewer nanoseconds, so "
            "the packet *rate* a design sustains — not its Gb/s — is "
            "the telling column."};
}

/**
 * Extension: Intel Scalable I/O Virtualization. The paper counts VMs,
 * containers *and application processes* as tenants, and translation
 * requests carry "a Source ID (SID) and/or Process Address Space
 * Identifier (PASID)". With Scalable IOV one VF hosts many
 * process-level address spaces; the VF count stays at 32 while the
 * processes per VF grow, reaching the hyper-tenant regime through
 * PASIDs alone.
 */
Figure
scalableIov()
{
    std::vector<Workload> processes;
    for (unsigned n : {1u, 2u, 6u}) {
        processes.push_back(iperf3Variant(
            "scalable-iov-proc" + std::to_string(n),
            [n](workload::TenantPattern &pattern) {
                pattern.processesPerTenant = n;
            }));
    }
    auto print = [](const PanelResults &r) {
        const unsigned vfs = r.tenants[0];
        std::printf("%u VFs, iperf3 RR1; streams are spread across the "
                    "VF's processes\n\n",
                    vfs);
        std::printf("%12s %14s %12s %12s %12s\n", "processes",
                    "addr spaces", "config", "Gb/s", "devtlb hit");
        for (size_t w = 0; w < r.panel.workloads.size(); ++w) {
            const unsigned n =
                r.panel.workloads[w].variant->pattern.processesPerTenant;
            for (size_t s = 0; s < r.panel.series.size(); ++s) {
                const core::RunResults &res = r.at(w, 0, 0, s);
                std::printf("%12u %14u %12s %12.1f %11.1f%%\n", n,
                            vfs * n, r.panel.series[s].label.c_str(),
                            res.achievedGbps,
                            res.devtlbHitRate * 100.0);
            }
        }
    };
    return {"ext_scalable_iov", "Extension: Scalable IOV",
            "process-level tenants (PASIDs) per VF",
            {{.workloads = std::move(processes),
              .axis = fixedAxis({32}),
              .series = BaseVsHyperTrio,
              .print = print}},
            "Each extra process per VF is another address space whose "
            "translations contend for the same caches: the "
            "hyper-tenant collapse appears even at a fixed VF count, "
            "and HyperTRIO's mechanisms absorb it the same way."};
}

/**
 * Extension: multi-host device sharing (Fig. 1). Identical devices,
 * one per host link, translate through one shared chipset IOMMU: the
 * offered load grows with the device count while the chipset's
 * caches, walker slots and memory stay fixed.
 */
Figure
multidevice()
{
    std::vector<Series> designs;
    for (unsigned devices : {1u, 2u, 4u}) {
        for (Series series : BaseVsHyperTrio) {
            series.config.name =
                series.label + "@dev" + std::to_string(devices);
            series.devices = devices;
            designs.push_back(series);
        }
    }
    auto print = [](const PanelResults &r) {
        std::printf("%u tenants total, iperf3 RR1, tenants split "
                    "round-robin across devices\n\n",
                    r.tenants[0]);
        std::printf("%8s %12s %16s %16s %14s\n", "devices", "config",
                    "aggregate Gb/s", "per-device Gb/s", "IOTLB hit");
        for (size_t s = 0; s < r.panel.series.size(); ++s) {
            const Series &series = r.panel.series[s];
            const core::RunResults &res = r.at(0, 0, 0, s);
            std::printf("%8u %12s %16.1f %16.1f %13.1f%%\n",
                        series.devices, series.label.c_str(),
                        res.achievedGbps,
                        res.achievedGbps / series.devices,
                        res.iotlbHitRate * 100.0);
        }
    };
    return {"ext_multidevice", "Extension: multi-device",
            "devices sharing one chipset IOMMU (Fig. 1 scenario)",
            {{.workloads = Iperf3Only,
              .axis = cappedCount(256),
              .series = std::move(designs),
              .print = print}},
            "With HyperTRIO devices the shared IOMMU serves several "
            "full links as long as its caches absorb the combined "
            "working set; Base devices bottleneck on their own PTB "
            "before the shared chipset saturates."};
}

Figure
findFigure(const char *id)
{
    for (Figure (*entry)() :
         {fig04, fig05, fig09, fig10, fig11a, fig11b, fig11c, fig12a,
          fig12b, fig12c, ablations, tournament, kvstore, scalableIov,
          multidevice}) {
        Figure figure = entry();
        if (figure.id == id)
            return figure;
    }
    panic("no figure entry '%s'", id);
}

} // namespace

int
runFigure(const char *id, int argc, char **argv)
{
    const Figure figure = findFigure(id);
    const auto ablation =
        std::find_if(figure.panels.begin(), figure.panels.end(),
                     [](const Panel &p) { return p.ablation; });
    const bool ablatable = ablation != figure.panels.end();
    bool ablate = false, smoke = false;
    std::vector<char *> args{argv[0]};
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (ablatable && arg == "--ablate")
            ablate = true;
        else if (figure.smoke && arg == "--smoke")
            smoke = true;
        else
            args.push_back(argv[i]);
        if (arg != "--help" && arg != "-h")
            continue;
        std::printf("usage: %s [options]\n", id);
        if (ablatable)
            std::printf("  --ablate        also run the panel \"%s\"\n",
                        ablation->title.c_str());
        if (figure.smoke)
            std::printf("  --smoke         the quick deterministic "
                        "sweep (scale %g, max %u tenants)\n",
                        figure.smoke->scale, figure.smoke->maxTenants);
    }
    core::BenchOptions defaults;
    if (smoke) {
        defaults.scale = figure.smoke->scale;
        defaults.maxTenants = figure.smoke->maxTenants;
    }
    const auto opts = core::BenchOptions::parse(
        static_cast<int>(args.size()), args.data(), defaults);
    banner(figure.banner.c_str(), figure.title.c_str(), opts);

    core::ExperimentRunner runner(opts.scale, opts.seed, opts.jobs,
                                  !opts.jsonPath.empty());
    const WallTimer timer;
    JsonReport report(figure.id, opts);
    std::vector<const Panel *> panels;
    std::vector<std::vector<unsigned>> axes;
    std::vector<core::ExperimentPoint> points;
    for (const Panel &panel : figure.panels) {
        if (panel.ablation && !ablate)
            continue;
        panels.push_back(&panel);
        axes.push_back(
            (smoke ? figure.smoke->axis : panel.axis)(opts.maxTenants));
        if (axes.back().empty())
            fatal("--tenants %u leaves the panel \"%s\" no tenant "
                  "count",
                  opts.maxTenants, panel.title.c_str());
        for (const Workload &workload : panel.workloads) {
            core::ExperimentPoint point;
            point.bench = workload.bench;
            point.variant = workload.variant;
            if (point.variant)
                point.variant->packets =
                    scaledBudget(point.variant->packets, opts.scale);
            for (const std::string &il : panel.interleavings) {
                point.interleave = trace::parseInterleaving(il);
                for (unsigned tenants : axes.back()) {
                    point.tenants = tenants;
                    for (const Series &series : panel.series) {
                        point.label = series.config.name;
                        point.config = series.config;
                        point.bypassTranslation = series.bypass;
                        point.devices = series.devices;
                        points.push_back(point);
                    }
                }
            }
        }
    }
    const std::vector<core::ExperimentRow> rows =
        runner.runAll(points, opts.verbose ? &std::cerr : nullptr);
    for (const core::ExperimentRow &row : rows)
        report.addPoint(row.point.label, row.point.workloadName(),
                        row.point.tenants, row.point.interleave.name(),
                        row.results, row.statsJson);

    const core::ExperimentRow *next = rows.data();
    for (size_t p = 0; p < panels.size(); ++p) {
        const PanelResults r{*panels[p], axes[p], opts.seed, next,
                             report};
        if (panels[p]->print)
            panels[p]->print(r);
        else
            printTables(r);
        next += panels[p]->workloads.size() *
                panels[p]->interleavings.size() * axes[p].size() *
                panels[p]->series.size();
    }
    if (!figure.note.empty())
        std::printf("\n%s\n", figure.note.c_str());
    report.write(timer.seconds());
    wallClockLine(timer, opts);
    return 0;
}

} // namespace hypersio::bench
