/**
 * @file
 * Extension experiment: small-packet (key-value-store) traffic.
 *
 * The paper motivates the PTB by noting that at 200 Gb/s a 1500 B
 * packet leaves only ~74 device cycles for all translations — "even
 * less for real-world applications" like key-value stores where
 * most keys are under 60 B and values under 1000 B. This bench
 * replays an iperf3-like tenant pattern with a growing fraction of
 * small packets and reports how the translation subsystem copes as
 * the per-packet time budget shrinks.
 */

#include "bench_common.hh"

using namespace hypersio;

int
main(int argc, char **argv)
{
    const auto opts = core::BenchOptions::parse(argc, argv);
    bench::banner("Extension: key-value-store packets",
                  "bandwidth under shrinking per-packet time "
                  "budgets",
                  opts);

    const bench::WallTimer timer;
    bench::JsonReport report("ext_kvstore", opts);
    const unsigned tenants = std::min(opts.maxTenants, 256u);
    const auto profile =
        workload::benchmarkProfile(workload::Benchmark::Iperf3);

    std::printf("%u tenants, RR1; small packets are 256 B on the "
                "wire (vs 1542 B full)\n\n",
                tenants);
    std::printf("%14s %12s %14s %14s %12s\n", "small-pkt mix",
                "config", "Gb/s", "packets/us", "drops(%)");
    for (double mix : {0.0, 0.5, 0.9}) {
        workload::TenantPattern pattern = profile.pattern;
        pattern.smallPacketBytes = 256;
        pattern.smallPacketProb = mix;
        const uint64_t packets = bench::scaledBudget(22000, opts.scale);
        workload::scaleInitPhase(pattern, packets);
        workload::TenantLogGenerator gen(pattern, opts.seed);
        std::vector<trace::TenantLog> logs;
        for (unsigned t = 0; t < tenants; ++t)
            logs.push_back(gen.generate(t, packets));
        const auto tr = trace::constructTrace(
            logs, trace::parseInterleaving("RR1"));

        for (bool hypertrio : {false, true}) {
            core::SystemConfig config =
                hypertrio ? core::SystemConfig::hypertrio()
                          : core::SystemConfig::base();
            config.seed = opts.seed;
            core::System system(config);
            const core::RunResults r = system.run(tr);
            const double pkt_rate =
                r.elapsed == 0
                    ? 0.0
                    : static_cast<double>(r.packetsProcessed) /
                          (ticksToNs(r.elapsed) / 1000.0);
            const double drop_pct =
                r.packetsProcessed + r.packetsDropped == 0
                    ? 0.0
                    : 100.0 * static_cast<double>(r.packetsDropped) /
                          static_cast<double>(r.packetsDropped +
                                              r.packetsProcessed);
            std::printf("%13.0f%% %12s %14.1f %14.2f %12.1f\n",
                        mix * 100.0, config.name.c_str(),
                        r.achievedGbps, pkt_rate, drop_pct);
            report.addPoint(
                config.name + "@mix" +
                    std::to_string(
                        static_cast<int>(mix * 100.0)),
                "kvstore-iperf3", tenants, "RR1", r,
                report.enabled() ? bench::captureStatsJson(system)
                                 : std::string());
        }
    }

    std::printf(
        "\nSmall packets shrink the arrival interval (256 B = "
        "10.2 ns at 200 Gb/s vs 61.7 ns full-size): the same "
        "translation latency must now hide behind far fewer "
        "nanoseconds, so the packet *rate* a design sustains — not "
        "its Gb/s — is the telling column.\n");
    report.write(timer.seconds());
    bench::wallClockLine(timer, opts);
    return 0;
}
