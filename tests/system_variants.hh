/**
 * @file
 * The system variants the translation fuzzer (fuzz_translation.cc)
 * and the fused-vs-unfused goldens (test_event_fusion.cc) both run,
 * so the two suites cover the same structure space: baseline and
 * HyperTRIO geometries, the overflow-everything "stressed" shape,
 * five-level walks, sub-entry sharing, and the MMU-aware DMA
 * prefetcher (whose squash machinery must force fusion fallbacks,
 * not fused mispredictions).
 */

#ifndef HYPERSIO_TESTS_SYSTEM_VARIANTS_HH
#define HYPERSIO_TESTS_SYSTEM_VARIANTS_HH

#include "core/config.hh"

namespace hypersio::core
{

struct SystemVariant
{
    const char *name;
    SystemConfig (*make)();
};

inline SystemConfig
makeStressed()
{
    // Small caches + bounded walkers: every structure overflows and
    // the walker queues engage even on short traces.
    SystemConfig config = SystemConfig::hypertrio();
    config.name = "stressed";
    config.device.ptbEntries = 4;
    config.device.devtlb = {16, 4, 4, cache::ReplPolicyKind::LFU, 7};
    config.device.prefetch.bufferEntries = 8; // the paper's PB size
    config.device.prefetch.historyLength = 4;
    config.iommu.iotlb = {64, 4, 1, cache::ReplPolicyKind::LFU, 1,
                          true};
    config.iommu.l2tlb = {32, 4, 4, cache::ReplPolicyKind::LFU, 2};
    config.iommu.l3tlb = {64, 4, 8, cache::ReplPolicyKind::LFU, 3};
    config.iommu.walkers = 2;
    return config;
}

inline SystemConfig
makeFiveLevel()
{
    SystemConfig config = SystemConfig::base();
    config.name = "base5";
    config.iommu.pagingLevels = 5;
    config.iommu.walkers = 1;
    return config;
}

inline SystemConfig
makeSubEntry()
{
    // Sub-entry sharing on every structure that supports it, sized
    // small so tags and sub-slots both overflow under fuzzing.
    SystemConfig config = SystemConfig::base();
    config.name = "subentry";
    config.device.devtlb = {16, 4, 1, cache::ReplPolicyKind::LRU, 7};
    config.device.devtlb.subEntries = 4;
    config.iommu.l2tlb = {32, 4, 1, cache::ReplPolicyKind::LRU, 2};
    config.iommu.l2tlb.subEntries = 4;
    config.iommu.l3tlb = {64, 4, 1, cache::ReplPolicyKind::LRU, 3};
    config.iommu.l3tlb.subEntries = 4;
    return config;
}

inline SystemConfig
makeMmuPrefetch()
{
    // The MMU-aware DMA prefetcher with a small buffer: every issued
    // page is checked against the reference stride detector, and the
    // invalidate-vs-in-flight squash machinery runs constantly.
    SystemConfig config = SystemConfig::base();
    config.name = "mmudma";
    config.device.ptbEntries = 8;
    config.device.prefetch.enabled = true;
    config.device.prefetch.kind = PrefetchKind::MmuDma;
    config.device.prefetch.bufferEntries = 8;
    config.device.prefetch.pagesPerPrefetch = 2;
    return config;
}

inline constexpr SystemVariant Variants[] = {
    {"base", &SystemConfig::base},
    {"hypertrio", &SystemConfig::hypertrio},
    {"stressed", &makeStressed},
    {"base5", &makeFiveLevel},
    {"subentry", &makeSubEntry},
    {"mmudma", &makeMmuPrefetch},
};

} // namespace hypersio::core

#endif // HYPERSIO_TESTS_SYSTEM_VARIANTS_HH
