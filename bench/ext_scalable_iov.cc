/**
 * @file
 * Extension experiment: Intel Scalable I/O Virtualization.
 *
 * The paper's introduction counts VMs, containers, *and application
 * processes* as tenants, and its architecture section notes that
 * translation requests carry "a Source ID (SID) and/or Process
 * Address Space Identifier (PASID)". With Scalable IOV one VF hosts
 * many process-level address spaces, multiplying the number of
 * independent address spaces without adding VFs. This bench holds
 * the VF count fixed and grows processes per VF, pushing the system
 * into the hyper-tenant regime through PASIDs alone.
 */

#include "bench_common.hh"

using namespace hypersio;

int
main(int argc, char **argv)
{
    const auto opts = core::BenchOptions::parse(argc, argv);
    bench::banner("Extension: Scalable IOV",
                  "process-level tenants (PASIDs) per VF", opts);

    const bench::WallTimer timer;
    bench::JsonReport report("ext_scalable_iov", opts);
    const unsigned vfs = 32;
    const auto profile =
        workload::benchmarkProfile(workload::Benchmark::Iperf3);

    std::printf("%u VFs, iperf3 RR1; streams are spread across the "
                "VF's processes\n\n",
                vfs);
    std::printf("%12s %14s %12s %12s %12s\n", "processes",
                "addr spaces", "config", "Gb/s", "devtlb hit");
    for (unsigned processes : {1u, 2u, 6u}) {
        workload::TenantPattern pattern = profile.pattern;
        pattern.processesPerTenant = processes;
        const uint64_t packets = bench::scaledBudget(22000, opts.scale);
        workload::scaleInitPhase(pattern, packets);
        workload::TenantLogGenerator gen(pattern, opts.seed);
        std::vector<trace::TenantLog> logs;
        for (unsigned t = 0; t < vfs; ++t)
            logs.push_back(gen.generate(t, packets));
        const auto tr = trace::constructTrace(
            logs, trace::parseInterleaving("RR1"));

        for (bool hypertrio : {false, true}) {
            core::SystemConfig config =
                hypertrio ? core::SystemConfig::hypertrio()
                          : core::SystemConfig::base();
            config.seed = opts.seed;
            core::System system(config);
            const auto r = system.run(tr);
            std::printf("%12u %14u %12s %12.1f %11.1f%%\n",
                        processes, vfs * processes,
                        config.name.c_str(), r.achievedGbps,
                        r.devtlbHitRate * 100.0);
            report.addPoint(
                config.name + "@proc" + std::to_string(processes),
                "scalable-iov-iperf3", vfs, "RR1", r,
                report.enabled() ? bench::captureStatsJson(system)
                                 : std::string());
        }
    }

    std::printf(
        "\nEach extra process per VF is another address space whose "
        "translations contend for the same caches: the hyper-tenant "
        "collapse appears even at a fixed VF count, and HyperTRIO's "
        "mechanisms absorb it the same way.\n");
    report.write(timer.seconds());
    bench::wallClockLine(timer, opts);
    return 0;
}
