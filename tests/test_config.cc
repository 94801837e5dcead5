/** Unit tests for the system configuration presets and description
 *  output (Table II / Table IV parameters). */

#include <gtest/gtest.h>

#include "core/chipset.hh"
#include "core/config.hh"

namespace hypersio::core
{
namespace
{

TEST(Config, TableIILatencies)
{
    const SystemConfig config = SystemConfig::base();
    EXPECT_EQ(config.pcieOneWay, 450 * TicksPerNs);
    EXPECT_EQ(config.memory.accessLatency, 50 * TicksPerNs);
    EXPECT_EQ(iommu::IotlbHitLatency, 2 * TicksPerNs);
    EXPECT_EQ(config.link.packetBytes, 1542u);
    EXPECT_DOUBLE_EQ(config.link.gbps, 200.0);
}

TEST(Config, PacketIntervalMatchesPaper)
{
    // 1542 B at 200 Gb/s is ~62 ns per packet (Section III).
    const LinkConfig link;
    EXPECT_EQ(link.packetInterval(), 61680u);
}

TEST(Config, BasePresetMatchesTableIV)
{
    const SystemConfig config = SystemConfig::base();
    EXPECT_EQ(config.device.ptbEntries, 1u);
    EXPECT_EQ(config.device.devtlb.entries, 64u);
    EXPECT_EQ(config.device.devtlb.ways, 8u);
    EXPECT_EQ(config.device.devtlb.partitions, 1u);
    EXPECT_EQ(config.device.devtlb.policy,
              cache::ReplPolicyKind::LFU);
    EXPECT_FALSE(config.device.prefetch.enabled);
    EXPECT_EQ(config.iommu.l2tlb.entries, 512u);
    EXPECT_EQ(config.iommu.l2tlb.ways, 16u);
    EXPECT_EQ(config.iommu.l2tlb.partitions, 1u);
    EXPECT_EQ(config.iommu.l3tlb.entries, 1024u);
    EXPECT_EQ(config.iommu.l3tlb.partitions, 1u);
}

TEST(Config, HyperTrioPresetMatchesTableIV)
{
    const SystemConfig config = SystemConfig::hypertrio();
    EXPECT_EQ(config.device.ptbEntries, 32u);
    EXPECT_EQ(config.device.devtlb.entries, 64u);
    EXPECT_EQ(config.device.devtlb.partitions, 8u);
    EXPECT_EQ(config.iommu.l2tlb.partitions, 32u);
    EXPECT_EQ(config.iommu.l3tlb.partitions, 64u);
    EXPECT_TRUE(config.device.prefetch.enabled);
    EXPECT_EQ(config.device.prefetch.pagesPerPrefetch, 2u);
    // Calibrated for this model's prefetch latency (see DESIGN.md):
    // the paper's 8-entry/48-stride values are sweepable in the
    // fig12c_prefetch bench (bench/figures.cc).
    EXPECT_EQ(config.device.prefetch.bufferEntries, 32u);
    EXPECT_EQ(config.device.prefetch.historyLength, 20u);
    // The oracle mirrors the History Reader's depth from the model's
    // own constant, so the two cannot drift apart.
    EXPECT_EQ(toShadowConfig(config).historyDepth,
              HistoryReader::HistoryDepth);
}

TEST(Config, DescribeMentionsEveryBlock)
{
    const std::string text = SystemConfig::hypertrio().describe();
    EXPECT_NE(text.find("hypertrio"), std::string::npos);
    EXPECT_NE(text.find("PTB"), std::string::npos);
    EXPECT_NE(text.find("DevTLB"), std::string::npos);
    EXPECT_NE(text.find("L2TLB"), std::string::npos);
    EXPECT_NE(text.find("L3TLB"), std::string::npos);
    EXPECT_NE(text.find("prefetch"), std::string::npos);
    EXPECT_NE(text.find("8 partition"), std::string::npos);
}

TEST(Config, DescribeShowsPrefetchOffForBase)
{
    const std::string text = SystemConfig::base().describe();
    EXPECT_NE(text.find("prefetch          off"), std::string::npos);
}

TEST(Config, DevtlbSeedsDifferFromPagingCacheSeeds)
{
    // Randomized policies must not be correlated across structures.
    const SystemConfig config = SystemConfig::base();
    EXPECT_NE(config.device.devtlb.seed, config.iommu.l2tlb.seed);
    EXPECT_NE(config.iommu.l2tlb.seed, config.iommu.l3tlb.seed);
}

} // namespace
} // namespace hypersio::core
