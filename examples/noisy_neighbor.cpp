/**
 * @file
 * Noisy-neighbor scenario: performance isolation with the
 * Partitioned Device-TLB.
 *
 * A few high-bandwidth tenants share the device with a crowd of
 * low-rate tenants whose drivers allocate the same gIOVAs. Without
 * partitioning, the crowd's translations continuously evict the
 * streamers' hot entries; with a PTag per DevTLB row, evictions stay
 * inside each tenant group. For a shared and a partitioned DevTLB
 * the example prints the link's aggregate Gb/s, the DevTLB hit rate
 * and the packet drops; it has no per-tenant or per-group figure.
 *
 * Usage: noisy_neighbor [streamers] [crowd] [scale]
 */

#include <cstdio>

#include "example_args.hh"
#include "hypersio/hypersio.hh"

using namespace hypersio;

namespace
{

/** Builds a mixed trace: `streamers` long logs + `crowd` short ones,
 *  interleaved so the crowd injects a packet between every pair of
 *  streamer packets (a slow but steady background drip). */
trace::HyperTrace
mixedTrace(unsigned streamers, unsigned crowd, double scale,
           uint64_t seed)
{
    const auto profile =
        workload::benchmarkProfile(workload::Benchmark::Iperf3);
    const auto streamer_packets = static_cast<uint64_t>(
        22000 * scale);
    workload::TenantPattern pattern = profile.pattern;
    workload::scaleInitPhase(pattern, streamer_packets);

    // Crowd tenants send ~1/8 of the streamers' rate.
    const uint64_t crowd_packets =
        std::max<uint64_t>(64, streamer_packets / 8);

    std::vector<trace::TenantLog> logs;
    for (unsigned t = 0; t < streamers; ++t)
        logs.push_back(
            workload::TenantStream(pattern, seed, t, streamer_packets)
                .drain());
    for (unsigned t = 0; t < crowd; ++t)
        logs.push_back(
            workload::TenantStream(pattern, seed, streamers + t,
                                   crowd_packets)
                .drain());
    // Random interleaving approximates independent arrivals.
    trace::Interleaving il = trace::parseInterleaving("RAND1");
    il.seed = seed;
    return trace::constructTrace(logs, il);
}

} // namespace

int
main(int argc, char **argv)
{
    unsigned streamers = 4;
    unsigned crowd = 60;
    double scale = 0.05;
    if (argc > 1)
        streamers = examples::countArg("streamers", argv[1]);
    if (argc > 2)
        crowd = examples::countArg("crowd", argv[2]);
    if (argc > 3)
        scale = examples::scaleArg(argv[3]);

    std::printf("%u streaming tenants + %u low-rate neighbors, all "
                "using identical guest gIOVAs\n\n",
                streamers, crowd);
    const trace::HyperTrace tr =
        mixedTrace(streamers, crowd, scale, 42);

    std::printf("%-26s %10s %12s %12s\n", "configuration",
                "link Gb/s", "DevTLB hit", "drops");
    for (size_t partitions : {1u, 8u}) {
        core::SystemConfig config = core::SystemConfig::base();
        config.name = partitions == 1 ? "shared DevTLB"
                                      : "partitioned DevTLB (8)";
        config.device.ptbEntries = 8;
        config.device.devtlb.partitions = partitions;
        core::System system(config);
        const core::RunResults r = system.run(tr);
        std::printf("%-26s %10.1f %11.1f%% %12llu\n",
                    config.name.c_str(), r.achievedGbps,
                    r.devtlbHitRate * 100.0,
                    (unsigned long long)r.packetsDropped);
    }

    std::printf("\nPartitioning pins each tenant group to its own "
                "DevTLB rows, so the crowd can no longer evict the "
                "streamers' hot translations (Section III, "
                "P-DevTLB).\n");
    return 0;
}
