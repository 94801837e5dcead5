/**
 * @file
 * Prefetcher tuning walkthrough: how Prefetch Buffer capacity and
 * the SID-predictor history stride interact with prefetch latency.
 *
 * The history stride decides how far ahead of a tenant's next visit
 * the prefetch is issued; the buffer must keep the fill alive until
 * that visit. Too short a stride and the fill arrives late; too
 * long and it is evicted before use. This example sweeps both knobs
 * and prints achieved bandwidth plus the PB hit share so the
 * timeliness trade-off (Srinath et al.-style accuracy/timeliness
 * framing, Section V-D of the paper) is visible.
 *
 * Usage: prefetch_tuning [tenants] [scale]
 */

#include <cstdio>

#include "example_args.hh"
#include "hypersio/hypersio.hh"

using namespace hypersio;

int
main(int argc, char **argv)
{
    unsigned tenants = 128;
    double scale = 0.05;
    if (argc > 1)
        tenants = examples::countArg("tenants", argv[1]);
    if (argc > 2)
        scale = examples::scaleArg(argv[2]);

    auto logs = workload::generateLogs(workload::Benchmark::Iperf3,
                                       tenants, 42, scale);
    const auto tr =
        trace::constructTrace(logs, trace::parseInterleaving("RR1"));
    std::printf("iperf3, %u tenants, RR1, %zu packets\n\n", tenants,
                tr.packets.size());

    // Baseline without prefetching.
    {
        core::SystemConfig config = core::SystemConfig::hypertrio();
        config.device.prefetch.enabled = false;
        core::System system(config);
        const auto r = system.run(tr);
        std::printf("no prefetch:               %6.1f Gb/s\n\n",
                    r.achievedGbps);
    }

    std::printf("%8s %10s %10s %12s %12s\n", "PB", "stride",
                "Gb/s", "PB hit (%)", "prefetches");
    for (unsigned pb : {8u, 16u, 32u, 64u}) {
        for (unsigned stride : {8u, 16u, 20u, 28u, 48u}) {
            core::SystemConfig config =
                core::SystemConfig::hypertrio();
            config.device.prefetch.bufferEntries = pb;
            config.device.prefetch.historyLength = stride;
            core::System system(config);
            const auto r = system.run(tr);
            std::printf("%8u %10u %10.1f %12.1f %12llu\n", pb,
                        stride, r.achievedGbps,
                        r.pbHitRate * 100.0,
                        (unsigned long long)system.device()
                            .prefetchesSent());
        }
        std::printf("\n");
    }

    std::printf(
        "Reading the table: the stride must cover the prefetch\n"
        "round trip (~16 packet slots in this model) and the fill\n"
        "must survive in the buffer until the predicted tenant\n"
        "arrives — larger buffers widen the timeliness window.\n");
    return 0;
}
