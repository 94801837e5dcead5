/**
 * @file
 * The paper's bandwidth sweeps (§V: Figs. 4, 5, 9-12 and the design
 * ablations) as data, and the one driver that runs them.
 *
 * Each figure is an entry: banner, panels and the paper's note. A
 * panel is a sweep over benchmarks × interleavings × tenant counts ×
 * series, where a series is a column label and the configuration it
 * runs. The driver walks every point of every panel once, in one
 * canonical order (panel, benchmark, interleaving, tenant count,
 * series), runs them all across the `--jobs` pool, and hands each
 * panel its results to print: one bandwidth table per benchmark
 * unless the panel brings its own printer.
 *
 * Every series' config.name is distinct within its figure: the
 * `--json` report keys points by (label, benchmark, tenants,
 * interleave) and refuses a key twice.
 *
 * Each figure binary is bench/figure_main.cc built with its entry's
 * id (bench/CMakeLists.txt).
 */

#include <algorithm>
#include <functional>
#include <limits>

#include "bench_common.hh"

namespace hypersio::bench
{

namespace
{

using workload::Benchmark;

using Columns =
    std::vector<std::pair<std::string, std::vector<double>>>;

/** One column of a panel: its label and the configuration it runs. */
struct Series
{
    std::string label;
    core::SystemConfig config;
    /** Runs untranslated (Fig. 5's native interface). */
    bool bypass = false;
};

struct PanelResults;

/** One sweep of a figure, printed as one unit. */
struct Panel
{
    /** Table title; " — <benchmark>" is added when there are several. */
    std::string title{};
    std::vector<Benchmark> benches{std::begin(workload::AllBenchmarks),
                                   std::end(workload::AllBenchmarks)};
    std::vector<std::string> interleavings{"RR1"};
    /** The tenant counts for a given `--tenants`. */
    std::function<std::vector<unsigned>(unsigned)> axis{};
    std::vector<Series> series{};
    /** Prints the panel; unset, one bandwidth table per benchmark. */
    std::function<void(const PanelResults &)> print{};
    /** Runs only under `--ablate`. */
    bool ablation = false;
};

/** One figure binary. */
struct Figure
{
    std::string id; ///< binary name and `--json` report id
    std::string banner;
    std::string title;
    std::vector<Panel> panels;
    /** Printed after the panels; empty for none. */
    std::string note;
};

/** A panel's results, indexed the way the driver walked them. */
struct PanelResults
{
    const Panel &panel;
    std::vector<unsigned> tenants;
    uint64_t seed;
    /** The panel's first point in the driver's results. */
    const core::RunResults *first;

    const core::RunResults &
    at(size_t bench, size_t il, size_t tenant, size_t series) const
    {
        return first[((bench * panel.interleavings.size() + il) *
                          tenants.size() +
                      tenant) *
                         panel.series.size() +
                     series];
    }

    std::string
    title(size_t bench) const
    {
        if (panel.benches.size() == 1)
            return panel.title;
        return panel.title + " — " +
               workload::benchmarkName(panel.benches[bench]);
    }

    /**
     * One benchmark's bandwidth columns: every series under every
     * interleaving, labelled "<series>/<interleaving>" when the panel
     * has several.
     */
    Columns
    columns(size_t bench) const
    {
        Columns cols;
        for (size_t il = 0; il < panel.interleavings.size(); ++il) {
            for (size_t s = 0; s < panel.series.size(); ++s) {
                std::string label = panel.series[s].label;
                if (panel.interleavings.size() > 1)
                    label += "/" + panel.interleavings[il];
                std::vector<double> gbps;
                for (size_t t = 0; t < tenants.size(); ++t)
                    gbps.push_back(at(bench, il, t, s).achievedGbps);
                cols.emplace_back(std::move(label), std::move(gbps));
            }
        }
        return cols;
    }
};

void
printTables(const PanelResults &r)
{
    for (size_t b = 0; b < r.panel.benches.size(); ++b)
        core::printBandwidthTable(std::cout, r.title(b), r.tenants,
                                  r.columns(b));
}

/** The paper's 4, 8, 16, ... sweep up to `--tenants`, at most `cap`. */
std::function<std::vector<unsigned>(unsigned)>
tenantSweep(unsigned cap = std::numeric_limits<unsigned>::max())
{
    return [cap](unsigned max_tenants) {
        return core::paperTenantSweep(std::min(max_tenants, cap));
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

const std::vector<Benchmark> Iperf3Only{Benchmark::Iperf3};

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
            {{.benches = Iperf3Only,
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
              .benches = Iperf3Only,
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
              .benches = Iperf3Only,
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
    core::SystemConfig partitioned =
        renamed(core::SystemConfig::base(), "partitioned");
    partitioned.device.devtlb.partitions = 8;
    partitioned.iommu.l2tlb.partitions = 32;
    partitioned.iommu.l3tlb.partitions = 64;
    return {"fig12a_partitioning", "Fig. 12a",
            "partitioned DevTLB + L2/L3 TLBs (PTB=1, no prefetch)",
            {{.title = "bandwidth (Gb/s), RR1",
              .axis = tenantSweep(),
              .series = {{"base", core::SystemConfig::base()},
                         {"partitioned", partitioned}}}},
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
              .benches = Iperf3Only,
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
        for (size_t b = 0; b < r.panel.benches.size(); ++b) {
            Columns cols = r.columns(b);
            std::vector<double> pb_rate;
            for (size_t t = 0; t < r.tenants.size(); ++t)
                pb_rate.push_back(r.at(b, 0, t, 1).pbHitRate * 100.0);
            cols.emplace_back("PB-hit(%)", std::move(pb_rate));
            core::printBandwidthTable(std::cout, r.title(b),
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
             {.benches = Iperf3Only,
              .axis =
                  [](unsigned max_tenants) {
                      return std::vector<unsigned>{
                          std::min(max_tenants, 256u)};
                  },
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
              .benches = Iperf3Only,
              .axis = tenantSweep(256),
              .series = std::move(levels)},
             {.title = "DevTLB partition count (PTB=8, iperf3 RR1) — "
                       "more partitions isolate more tenant groups "
                       "but shrink each group's reach",
              .benches = Iperf3Only,
              .axis = tenantSweep(256),
              .series = std::move(partitions)},
             {.title = "LFU counter width (Base, iperf3 RR1)",
              .benches = Iperf3Only,
              .axis = tenantSweep(256),
              .series = std::move(widths)}},
            ""};
}

Figure
findFigure(const char *id)
{
    for (Figure (*entry)() : {fig04, fig05, fig09, fig10, fig11a,
                              fig11b, fig11c, fig12a, fig12b, fig12c,
                              ablations}) {
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
    bool ablate = false;
    std::vector<char *> args;
    for (int i = 0; i < argc; ++i) {
        const std::string arg = argv[i];
        if (ablation == figure.panels.end()) {
            args.push_back(argv[i]);
        } else if (i > 0 && arg == "--ablate") {
            ablate = true;
        } else {
            if (arg == "--help" || arg == "-h")
                std::printf("usage: %s [--ablate] [options]\n"
                            "  --ablate        also run the panel "
                            "\"%s\"\n",
                            id, ablation->title.c_str());
            args.push_back(argv[i]);
        }
    }
    const auto opts = core::BenchOptions::parse(
        static_cast<int>(args.size()), args.data());
    banner(figure.banner.c_str(), figure.title.c_str(), opts);

    core::ExperimentRunner runner = makeRunner(opts);
    const WallTimer timer;
    JsonReport report(figure.id, opts);
    PointBatch batch(runner, &report);
    std::vector<const Panel *> panels;
    std::vector<std::vector<unsigned>> axes;
    for (const Panel &panel : figure.panels) {
        if (panel.ablation && !ablate)
            continue;
        panels.push_back(&panel);
        axes.push_back(panel.axis(opts.maxTenants));
        for (Benchmark bench : panel.benches)
            for (const std::string &il : panel.interleavings)
                for (unsigned tenants : axes.back())
                    for (const Series &series : panel.series)
                        batch.add(series.config, bench, tenants, il,
                                  series.bypass);
    }
    batch.run(progressSink(opts));
    std::vector<core::RunResults> results;
    while (results.size() < batch.size())
        results.push_back(batch.take());

    const core::RunResults *next = results.data();
    for (size_t p = 0; p < panels.size(); ++p) {
        const PanelResults r{*panels[p], axes[p], opts.seed, next};
        if (panels[p]->print)
            panels[p]->print(r);
        else
            printTables(r);
        next += panels[p]->benches.size() *
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
