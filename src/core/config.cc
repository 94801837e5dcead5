#include "core/config.hh"

#include <sstream>

#include "core/chipset.hh"
#include "util/str.hh"

namespace hypersio::core
{

SystemConfig
SystemConfig::base()
{
    SystemConfig config;
    config.name = "base";
    config.device.ptbEntries = 1;
    config.device.devtlb = {64, 8, 1, cache::ReplPolicyKind::LFU, 7};
    config.device.prefetch.enabled = false;
    config.iommu.l2tlb = {512, 16, 1, cache::ReplPolicyKind::LFU, 2};
    config.iommu.l3tlb = {1024, 16, 1, cache::ReplPolicyKind::LFU, 3};
    return config;
}

SystemConfig
SystemConfig::hypertrio()
{
    SystemConfig config;
    config.name = "hypertrio";
    config.device.ptbEntries = 32;
    config.device.devtlb = {64, 8, 8, cache::ReplPolicyKind::LFU, 7};
    // The paper uses an 8-entry PB with a 48-access stride, tuned to
    // its testbed's prefetch latency. Our model's prefetch path is
    // shorter (~16 packet slots), so the calibrated defaults are a
    // 32-entry PB with a 20-packet stride; the fig12c_prefetch bench
    // (bench/figures.cc) sweeps both knobs (see EXPERIMENTS.md,
    // calibration notes).
    config.device.prefetch.enabled = true;
    config.device.prefetch.bufferEntries = 32;
    config.device.prefetch.historyLength = 20;
    config.device.prefetch.pagesPerPrefetch = 2;
    config.iommu.l2tlb = {512, 16, 32, cache::ReplPolicyKind::LFU, 2};
    config.iommu.l3tlb = {1024, 16, 64, cache::ReplPolicyKind::LFU, 3};
    return config;
}

namespace
{

/** ", N sub-entries/tag" when sharing is on; empty otherwise. */
std::string
subEntrySuffix(const cache::CacheConfig &config)
{
    if (config.subEntries <= 1)
        return "";
    return strprintf(", %zu sub-entries/tag", config.subEntries);
}

} // namespace

std::string
SystemConfig::describe() const
{
    std::ostringstream os;
    os << "configuration '" << name << "'\n";
    os << strprintf("  link              %.0f Gb/s, %u B packets "
                    "(interval %.2f ns)\n",
                    link.gbps, link.packetBytes,
                    ticksToNs(link.packetInterval()));
    os << strprintf("  PCIe one-way      %.0f ns\n",
                    ticksToNs(pcieOneWay));
    os << strprintf("  DRAM latency      %.0f ns\n",
                    ticksToNs(memory.accessLatency));
    os << strprintf("  PTB               %u entries\n",
                    device.ptbEntries);
    os << strprintf("  DevTLB            %zu entries, %zu-way, "
                    "%zu partition(s), %s, hit %.0f ns%s\n",
                    device.devtlb.entries, device.devtlb.ways,
                    device.devtlb.partitions,
                    cache::replPolicyName(device.devtlb.policy),
                    ticksToNs(device.devtlbHitLatency),
                    subEntrySuffix(device.devtlb).c_str());
    os << strprintf("  IOTLB             %zu entries, %zu-way, %s, "
                    "hit %.0f ns\n",
                    iommu.iotlb.entries, iommu.iotlb.ways,
                    cache::replPolicyName(iommu.iotlb.policy),
                    ticksToNs(iommu::IotlbHitLatency));
    os << strprintf("  L2TLB             %zu entries, %zu-way, "
                    "%zu partition(s), %s%s\n",
                    iommu.l2tlb.entries, iommu.l2tlb.ways,
                    iommu.l2tlb.partitions,
                    cache::replPolicyName(iommu.l2tlb.policy),
                    subEntrySuffix(iommu.l2tlb).c_str());
    os << strprintf("  L3TLB             %zu entries, %zu-way, "
                    "%zu partition(s), %s%s\n",
                    iommu.l3tlb.entries, iommu.l3tlb.ways,
                    iommu.l3tlb.partitions,
                    cache::replPolicyName(iommu.l3tlb.policy),
                    subEntrySuffix(iommu.l3tlb).c_str());
    os << strprintf("  walkers           %u\n", iommu.walkers);
    if (!device.prefetch.enabled) {
        os << "  prefetch          off\n";
    } else if (device.prefetch.kind == PrefetchKind::MmuDma) {
        os << strprintf("  prefetch          MMU-aware DMA stride, "
                        "%u-entry buffer, %u page(s)/stream\n",
                        device.prefetch.bufferEntries,
                        device.prefetch.pagesPerPrefetch);
    } else {
        os << strprintf("  prefetch          %u-entry buffer, "
                        "%u-access stride, %u page(s)/tenant\n",
                        device.prefetch.bufferEntries,
                        device.prefetch.historyLength,
                        device.prefetch.pagesPerPrefetch);
    }
    return os.str();
}

oracle::ShadowConfig
toShadowConfig(const SystemConfig &config)
{
    oracle::ShadowConfig sc;
    sc.devtlbEntries = config.device.devtlb.entries;
    sc.devtlbWays = config.device.devtlb.ways;
    sc.devtlbPartitions = config.device.devtlb.partitions;
    sc.iotlbEntries = config.iommu.iotlb.entries;
    sc.iotlbWays = config.iommu.iotlb.ways;
    sc.iotlbPartitions = config.iommu.iotlb.partitions;
    sc.l2Entries = config.iommu.l2tlb.entries;
    sc.l2Ways = config.iommu.l2tlb.ways;
    sc.l2Partitions = config.iommu.l2tlb.partitions;
    sc.l3Entries = config.iommu.l3tlb.entries;
    sc.l3Ways = config.iommu.l3tlb.ways;
    sc.l3Partitions = config.iommu.l3tlb.partitions;
    sc.prefetchEnabled = config.device.prefetch.enabled;
    sc.pbEntries = config.device.prefetch.bufferEntries;
    sc.historyLength = config.device.prefetch.historyLength;
    sc.pagesPerPrefetch = config.device.prefetch.pagesPerPrefetch;
    sc.historyDepth = HistoryReader::HistoryDepth;
    sc.ptbEntries = config.device.ptbEntries;
    sc.walkers = config.iommu.walkers;
    sc.pagingLevels = config.iommu.pagingLevels;
    sc.devtlbSubEntries = config.device.devtlb.subEntries;
    sc.l2SubEntries = config.iommu.l2tlb.subEntries;
    sc.l3SubEntries = config.iommu.l3tlb.subEntries;
    sc.mmuPrefetch =
        config.device.prefetch.enabled &&
        config.device.prefetch.kind == PrefetchKind::MmuDma;
    return sc;
}

} // namespace hypersio::core
