/**
 * @file
 * Extension experiment: multi-host device sharing (Fig. 1).
 *
 * Several identical devices — one per host link — translate through
 * one shared chipset IOMMU. Aggregate offered load grows with the
 * device count while the chipset's caches, walker slots, and memory
 * stay fixed, so this measures how far the translation subsystem
 * can be shared before it becomes the bottleneck, for both Base and
 * HyperTRIO device designs.
 */

#include "bench_common.hh"

using namespace hypersio;

int
main(int argc, char **argv)
{
    const auto opts = core::BenchOptions::parse(argc, argv);
    bench::banner("Extension: multi-device",
                  "devices sharing one chipset IOMMU (Fig. 1 "
                  "scenario)",
                  opts);

    core::ExperimentRunner runner = bench::makeRunner(opts);
    const bench::WallTimer timer;
    bench::JsonReport report("ext_multidevice", opts);
    const unsigned tenants = std::min(opts.maxTenants, 256u);

    std::printf("%u tenants total, iperf3 RR1, tenants split "
                "round-robin across devices\n\n",
                tenants);
    std::printf("%8s %12s %16s %16s %14s\n", "devices", "config",
                "aggregate Gb/s", "per-device Gb/s", "IOTLB hit");
    for (unsigned devices : {1u, 2u, 4u}) {
        for (bool hypertrio : {false, true}) {
            const auto &tr = runner.getTrace(
                workload::Benchmark::Iperf3, tenants,
                trace::parseInterleaving("RR1"));
            core::SystemConfig config =
                hypertrio ? core::SystemConfig::hypertrio()
                          : core::SystemConfig::base();
            config.seed = opts.seed;
            core::System system(config, devices);
            const core::RunResults r = system.run(tr);
            std::printf("%8u %12s %16.1f %16.1f %13.1f%%\n",
                        devices, config.name.c_str(), r.achievedGbps,
                        r.achievedGbps / devices,
                        r.iotlbHitRate * 100.0);
            const std::string tag = config.name + "@dev" +
                                    std::to_string(devices);
            report.addScalar(tag + ".total_gbps", r.achievedGbps);
            report.addScalar(tag + ".iotlb_hit_rate",
                             r.iotlbHitRate);
        }
    }

    std::printf(
        "\nWith HyperTRIO devices the shared IOMMU serves several "
        "full links as long as its caches absorb the combined "
        "working set; Base devices bottleneck on their own PTB "
        "before the shared chipset saturates.\n");
    report.write(timer.seconds());
    bench::wallClockLine(timer, opts);
    return 0;
}
