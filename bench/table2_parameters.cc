/**
 * @file
 * Table II: system parameters used by the performance simulator.
 * Prints the model's active latency/geometry constants next to the
 * paper's values.
 */

#include <cstdio>

#include "bench_common.hh"

using namespace hypersio;

int
main(int argc, char **argv)
{
    const auto opts = core::BenchOptions::parse(argc, argv);
    const bench::WallTimer timer;
    bench::JsonReport report("table2_parameters", opts);
    const auto config = core::SystemConfig::base();
    std::printf("=== Table II: performance-model parameters ===\n");
    std::printf("%-40s %12s %12s\n", "parameter", "paper", "model");
    std::printf("%-40s %12s %12.0f\n", "one-way PCIe latency (ns)",
                "450", ticksToNs(config.pcieOneWay));
    std::printf("%-40s %12s %12.0f\n", "DRAM latency (ns)", "50",
                ticksToNs(config.memory.accessLatency));
    std::printf("%-40s %12s %12.0f\n", "IOTLB hit (ns)", "2",
                ticksToNs(iommu::IotlbHitLatency));
    std::printf("%-40s %12s %12u\n",
                "memory accesses per 4KB 2-D walk", "24",
                mem::fullWalkAccesses(mem::PageSize::Size4K));
    std::printf("%-40s %12s %12u\n", "packet size at I/O link (B)",
                "1542", config.link.packetBytes);
    std::printf("%-40s %12s %12.0f\n", "I/O link bandwidth (Gb/s)",
                "200", config.link.gbps);
    std::printf("%-40s %12s %9zu/%zu\n", "L2 page cache", "512/16w",
                config.iommu.l2tlb.entries, config.iommu.l2tlb.ways);
    std::printf("%-40s %12s %9zu/%zu\n", "L3 page cache", "1024/16w",
                config.iommu.l3tlb.entries, config.iommu.l3tlb.ways);
    std::printf("\nfull active configuration:\n%s",
                config.describe().c_str());
    report.addScalar("pcie_one_way_ns",
                     ticksToNs(config.pcieOneWay));
    report.addScalar("dram_latency_ns",
                     ticksToNs(config.memory.accessLatency));
    report.addScalar("iotlb_hit_ns",
                     ticksToNs(iommu::IotlbHitLatency));
    report.addScalar(
        "walk_accesses_4k",
        mem::fullWalkAccesses(mem::PageSize::Size4K));
    report.addScalar("packet_bytes", config.link.packetBytes);
    report.addScalar("link_gbps", config.link.gbps);
    report.write(timer.seconds());
    return 0;
}
