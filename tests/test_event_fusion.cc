/**
 * Fused-vs-unfused golden equality: the event-fusion fast path
 * (sim/event_queue.hh::tryFuseAdvance) elides hop *events*, never
 * hop *behaviour*, so a run with SystemConfig::eventFusion on must
 * be indistinguishable from the event-per-hop reference — identical
 * RunResults, identical stat-tree bytes, identical streaming
 * retirement ledgers — under every system variant the translation
 * fuzzer covers (tests/fuzz_translation.cc) and every adversarial
 * interleaving pattern.
 *
 * In the checked build each leg additionally runs under a collecting
 * shadow oracle, so the fused path's hook ordering is verified
 * packet by packet while the equality is being established.
 * bench/layer_bench repeats the A/B on its timed fusion storms.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <sstream>
#include <string>
#include <utility>

#include "core/multi_system.hh"
#include "core/system.hh"
#include "oracle/shadow.hh"
#include "workload/adversarial.hh"
#include "workload/streaming.hh"

namespace hypersio::core
{
namespace
{

/**
 * The system variants fuzz_translation.cc runs, mirrored here so
 * the fusion goldens cover the same structure space: baseline and
 * HyperTRIO geometries, the overflow-everything "stressed" shape,
 * five-level walks, sub-entry sharing, and the MMU-aware DMA
 * prefetcher (whose squash machinery must force fallbacks, not
 * fused mispredictions).
 */
struct SystemVariant
{
    const char *name;
    SystemConfig (*make)();
};

SystemConfig
makeStressed()
{
    SystemConfig config = SystemConfig::hypertrio();
    config.name = "stressed";
    config.device.ptbEntries = 4;
    config.device.devtlb = {16, 4, 4, cache::ReplPolicyKind::LFU, 7};
    config.device.prefetch.bufferEntries = 8;
    config.device.prefetch.historyLength = 4;
    config.iommu.iotlb = {64, 4, 1, cache::ReplPolicyKind::LFU, 1,
                          true};
    config.iommu.l2tlb = {32, 4, 4, cache::ReplPolicyKind::LFU, 2};
    config.iommu.l3tlb = {64, 4, 8, cache::ReplPolicyKind::LFU, 3};
    config.iommu.walkers = 2;
    return config;
}

SystemConfig
makeFiveLevel()
{
    SystemConfig config = SystemConfig::base();
    config.name = "base5";
    config.iommu.pagingLevels = 5;
    config.iommu.walkers = 1;
    return config;
}

SystemConfig
makeSubEntry()
{
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

SystemConfig
makeMmuPrefetch()
{
    SystemConfig config = SystemConfig::base();
    config.name = "mmudma";
    config.device.ptbEntries = 8;
    config.device.prefetch.enabled = true;
    config.device.prefetch.kind = PrefetchKind::MmuDma;
    config.device.prefetch.bufferEntries = 8;
    config.device.prefetch.pagesPerPrefetch = 2;
    return config;
}

constexpr SystemVariant Variants[] = {
    {"base", &SystemConfig::base},
    {"hypertrio", &SystemConfig::hypertrio},
    {"stressed", &makeStressed},
    {"base5", &makeFiveLevel},
    {"subentry", &makeSubEntry},
    {"mmudma", &makeMmuPrefetch},
};

/** One leg's complete observable outcome. */
struct Golden
{
    RunResults results;
    std::string statsBytes;
    uint64_t fusedHops = 0;
    /**
     * Drops and the final seq ledger. The per-hop leg can keep more
     * hop events pending, so its refused arrivals may fast-forward
     * over shorter spans (DESIGN.md §15); equal drops and an equal
     * final scheduledSeq() cross-check the seqs those spans burn.
     */
    uint64_t packetsDropped = 0;
    uint64_t scheduledSeq = 0;
};

/**
 * Runs `trace` under `variant` with the fusion knob as given. In
 * the checked build the run executes under a collecting shadow
 * oracle and any violation fails the test with the repro context.
 */
Golden
runLeg(const SystemVariant &variant, const trace::HyperTrace &trace,
       uint64_t seed, bool fusion)
{
    SystemConfig config = variant.make();
    config.seed = seed;
    config.eventFusion = fusion;
    System system(config);

    Golden leg;
#ifdef HYPERSIO_CHECKED
    oracle::ShadowChecker checker(toShadowConfig(config),
                                  &system.tables(),
                                  /*fail_fast=*/false);
    {
        oracle::ShadowScope scope(checker);
        leg.results = system.run(trace);
    }
    EXPECT_GT(checker.translationChecks(), 0u);
    EXPECT_EQ(checker.violationCount(), 0u);
    for (const auto &violation : checker.violations()) {
        ADD_FAILURE() << "config=" << variant.name
                      << " fusion=" << fusion << " seed=" << seed
                      << ": " << violation;
    }
#else
    leg.results = system.run(trace);
#endif

    std::ostringstream stats;
    system.dumpStats(stats);
    leg.statsBytes = stats.str();
    leg.fusedHops = system.eventQueue().fusedHops();
    leg.packetsDropped = leg.results.packetsDropped;
    leg.scheduledSeq = system.eventQueue().scheduledSeq();
    return leg;
}

/**
 * Every adversarial pattern under every variant: the fused and
 * per-hop legs must agree exactly — RunResults field for field and
 * the full stat tree byte for byte. The per-hop leg must never
 * fuse; the fused legs must collectively fuse (per-pattern counts
 * may be zero when a trace never hits the deterministic window).
 */
TEST(EventFusion, GoldenEqualityAcrossVariantsAndPatterns)
{
    constexpr uint64_t Seed = 20260808;
    constexpr uint64_t Packets = 120;

    uint64_t total_fused = 0;
    uint64_t total_dropped = 0;
    for (const auto pattern : workload::AllAdversarialPatterns) {
        workload::AdversarialConfig tc;
        tc.tenants = 6;
        tc.packets = Packets;
        tc.seed = Seed;
        const trace::HyperTrace trace =
            workload::makeAdversarialTrace(pattern, tc);

        for (const auto &variant : Variants) {
            SCOPED_TRACE(std::string("pattern=") +
                         workload::adversarialPatternName(pattern) +
                         " config=" + variant.name);
            const Golden fused =
                runLeg(variant, trace, Seed, /*fusion=*/true);
            const Golden perhop =
                runLeg(variant, trace, Seed, /*fusion=*/false);

            EXPECT_TRUE(fused.results == perhop.results)
                << "RunResults diverged";
            EXPECT_EQ(fused.statsBytes, perhop.statsBytes);
            EXPECT_EQ(fused.packetsDropped, perhop.packetsDropped);
            EXPECT_EQ(fused.scheduledSeq, perhop.scheduledSeq)
                << "seq ledger diverged";
            EXPECT_EQ(perhop.fusedHops, 0u);
            total_dropped += fused.packetsDropped;
            total_fused += fused.fusedHops;
        }
    }
    EXPECT_GT(total_fused, 0u) << "fast path never engaged";
    // The refused-slot fast-forward must actually be exercised.
    EXPECT_GT(total_dropped, 0u);
}

/**
 * Streaming churn (attach/evict storms through runStream) with
 * fusion on vs off: the retirement ledger carries the event
 * kernel's sequence numbers, so equality here proves the fused
 * runs burn exactly the sequence numbers the elided events would
 * have consumed — the strongest single observable of ledger parity.
 */
TEST(EventFusion, StreamingChurnLedgerParity)
{
    constexpr uint64_t Seed = 20260808;

    for (const auto &variant : Variants) {
        SCOPED_TRACE(std::string("config=") + variant.name);
        workload::ChurnConfig cc;
        cc.population = 24;
        cc.slots = 5;
        cc.seed = Seed;
        cc.minBudget = 12;
        cc.maxBudget = 36;
        cc.tailProb = 0.1;
        cc.tailMin = 64;
        cc.tailMax = 160;

        auto leg = [&](bool fusion) {
            SystemConfig config = variant.make();
            config.seed = Seed;
            config.eventFusion = fusion;
            System system(config);
            workload::ChurnStream stream(cc);
#ifdef HYPERSIO_CHECKED
            oracle::ShadowChecker checker(toShadowConfig(config),
                                          &system.tables(),
                                          /*fail_fast=*/false);
            {
                oracle::ShadowScope scope(checker);
                system.runStream(stream);
            }
            EXPECT_EQ(checker.violationCount(), 0u);
            for (const auto &violation : checker.violations()) {
                ADD_FAILURE() << "config=" << variant.name
                              << " fusion=" << fusion << ": "
                              << violation;
            }
#else
            system.runStream(stream);
#endif
            EXPECT_EQ(system.tables().size(), 0u);
            std::ostringstream stats;
            system.dumpStats(stats);
            return std::pair(system.streamRetirements(),
                             stats.str());
        };

        const auto fused = leg(true);
        const auto perhop = leg(false);
        EXPECT_EQ(fused.first, perhop.first)
            << "retirement (tick, seq, sid) ledger diverged";
        EXPECT_EQ(fused.second, perhop.second);
    }
}

/**
 * Multi-device sharing: N devices on one shared chipset run the
 * same queue, so a fused hop on one device must never leapfrog
 * another device's pending event. The shared-queue heap check in
 * tryFuseAdvance is what this pins down.
 */
TEST(EventFusion, MultiSystemGoldenEquality)
{
    constexpr uint64_t Seed = 20260808;

    workload::AdversarialConfig tc;
    tc.tenants = 6;
    tc.packets = 160;
    tc.seed = Seed;
    const trace::HyperTrace trace = workload::makeAdversarialTrace(
        workload::AdversarialPattern::RemapChurn, tc);

    auto leg = [&](bool fusion) {
        SystemConfig config = SystemConfig::hypertrio();
        config.seed = Seed;
        config.eventFusion = fusion;
        MultiSystem system(config, /*num_devices=*/2);
        const MultiRunResults results = system.run(trace);
        std::ostringstream stats;
        system.dumpStats(stats);
        return std::tuple(results.packetsProcessed,
                          results.packetsDropped, results.elapsed,
                          results.walks, stats.str(),
                          system.eventQueue().fusedHops());
    };

    const auto fused = leg(true);
    const auto perhop = leg(false);
    EXPECT_EQ(std::get<0>(fused), std::get<0>(perhop));
    EXPECT_EQ(std::get<1>(fused), std::get<1>(perhop));
    EXPECT_EQ(std::get<2>(fused), std::get<2>(perhop));
    EXPECT_EQ(std::get<3>(fused), std::get<3>(perhop));
    EXPECT_EQ(std::get<4>(fused), std::get<4>(perhop));
    EXPECT_EQ(std::get<5>(perhop), 0u);
    EXPECT_GT(std::get<5>(fused), 0u);
}

} // namespace
} // namespace hypersio::core
