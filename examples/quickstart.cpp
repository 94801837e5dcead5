/**
 * @file
 * Quickstart: build a 64-tenant iperf3 hyper-trace, run it through
 * the Base and HyperTRIO configurations, and compare achieved I/O
 * bandwidth.
 *
 * Usage: quickstart [tenants] [scale]
 */

#include <cstdio>

#include "example_args.hh"
#include "hypersio/hypersio.hh"

using namespace hypersio;

int
main(int argc, char **argv)
{
    unsigned tenants = 64;
    double scale = 0.05;
    if (argc > 1)
        tenants = examples::countArg("tenants", argv[1]);
    if (argc > 2)
        scale = examples::scaleArg(argv[2]);

    std::printf("generating %u iperf3 tenant logs (scale %.2f)...\n",
                tenants, scale);
    auto logs = workload::generateLogs(workload::Benchmark::Iperf3,
                                       tenants, /*seed=*/42, scale);

    auto hyper_trace =
        trace::constructTrace(logs, trace::parseInterleaving("RR1"));
    std::printf("hyper-trace: %zu packets, %llu translations\n",
                hyper_trace.packets.size(),
                (unsigned long long)hyper_trace.translations());

    for (const auto &config : {core::SystemConfig::base(),
                               core::SystemConfig::hypertrio()}) {
        core::System system(config);
        const core::RunResults results = system.run(hyper_trace);
        std::printf(
            "%-10s %7.1f Gb/s (%5.1f%% of link)  "
            "devtlb-hit %5.1f%%  pb-hit %5.1f%%  drops %llu\n",
            config.name.c_str(), results.achievedGbps,
            results.utilization * 100.0,
            results.devtlbHitRate * 100.0,
            results.pbHitRate * 100.0,
            (unsigned long long)results.packetsDropped);
    }
    return 0;
}
