/** Tests for the differential oracle: the reference models
 *  themselves, the shadow checker's violation detection on
 *  manufactured event streams, fault-injection end-to-end (the
 *  oracle must catch a deliberately planted DevTLB PTag bug), and
 *  the observation-only guarantee (checked == unchecked results). */

#include <gtest/gtest.h>

#include <string>

#include "core/prefetch.hh"
#include "core/system.hh"
#include "mem/memory_model.hh"
#include "oracle/fault_injection.hh"
#include "oracle/hooks.hh"
#include "oracle/ref_cache.hh"
#include "oracle/ref_predictor.hh"
#include "oracle/ref_ptb.hh"
#include "oracle/ref_walk.hh"
#include "oracle/shadow.hh"
#include "util/rng.hh"
#include "workload/adversarial.hh"

namespace hypersio::oracle
{
namespace
{

bool
mentions(const std::optional<std::string> &violation,
         const char *needle)
{
    return violation && violation->find(needle) != std::string::npos;
}

// ---- CacheMirror -------------------------------------------------------

TEST(CacheMirror, TracksFillsLookupsAndInvalidations)
{
    CacheMirror mirror;
    mirror.configure("T", 8, 2, 1);

    // Miss before any fill, hit with the right value after.
    EXPECT_FALSE(mirror.lookup(0x10, 0, 0, false, 0));
    EXPECT_FALSE(mirror.fill(0x10, 0, 0, 0xabc, std::nullopt));
    EXPECT_FALSE(mirror.lookup(0x10, 0, 0, true, 0xabc));
    EXPECT_TRUE(mirror.contains(0x10));
    EXPECT_EQ(mirror.size(), 1u);

    // Invalidation outcomes must match residency.
    EXPECT_FALSE(mirror.invalidated(0x10, true));
    EXPECT_FALSE(mirror.invalidated(0x10, false));
    EXPECT_EQ(mirror.size(), 0u);
}

TEST(CacheMirror, DetectsMisclassifiedLookups)
{
    CacheMirror mirror;
    mirror.configure("T", 8, 2, 1);

    // Phantom hit: the timed cache claims a hit the mirror lacks.
    EXPECT_TRUE(mentions(mirror.lookup(0x20, 0, 0, true, 1), "hit"));
    // Lost entry: a resident key reported as a miss.
    ASSERT_FALSE(mirror.fill(0x20, 0, 0, 5, std::nullopt));
    EXPECT_TRUE(mentions(mirror.lookup(0x20, 0, 0, false, 0),
                         "miss"));
    // Wrong value on a genuine hit.
    EXPECT_TRUE(mentions(mirror.lookup(0x20, 0, 0, true, 6),
                         "reference holds"));
}

TEST(CacheMirror, DetectsEvictionViolations)
{
    CacheMirror mirror;
    mirror.configure("T", 4, 2, 1); // 2 sets x 2 ways

    // Evicting a key that was never resident.
    EXPECT_TRUE(mentions(
        mirror.fill(0x1, 0, 0, 1, std::optional<uint64_t>(0x99)),
        "never held"));
    // Overfilling a set without reporting an eviction.
    ASSERT_FALSE(mirror.fill(0x2, 1, 0, 1, std::nullopt));
    ASSERT_FALSE(mirror.fill(0x4, 1, 0, 1, std::nullopt));
    EXPECT_TRUE(mentions(mirror.fill(0x6, 1, 0, 1, std::nullopt),
                         "missed eviction"));
    // An in-place update must not evict.
    EXPECT_TRUE(mentions(
        mirror.fill(0x2, 1, 0, 2, std::optional<uint64_t>(0x4)),
        "in-place"));
}

TEST(CacheMirror, EnforcesPartitionRowLegality)
{
    CacheMirror mirror;
    mirror.configure("P", 64, 8, 4); // 8 sets, 2 per partition

    // Tag 3 owns sets 6-7; set 0 belongs to tag 0's group.
    EXPECT_FALSE(mirror.checkRow(0x1, 6, 3));
    EXPECT_FALSE(mirror.checkRow(0x1, 7, 3));
    EXPECT_TRUE(mentions(mirror.checkRow(0x1, 0, 3),
                         "PTag violation"));
    // Tags wrap modulo the partition count.
    EXPECT_FALSE(mirror.checkRow(0x1, 2, 9));
    // Sets beyond the geometry are always illegal.
    EXPECT_TRUE(mentions(mirror.checkRow(0x1, 8, 0), "beyond"));
    // Fills and lookups run the same row check.
    EXPECT_TRUE(mentions(mirror.fill(0x1, 0, 3, 1, std::nullopt),
                         "PTag violation"));
    EXPECT_TRUE(mentions(mirror.lookup(0x1, 0, 3, false, 0),
                         "PTag violation"));
}

TEST(CacheMirror, DetectsKeysMigratingBetweenSets)
{
    CacheMirror mirror;
    mirror.configure("T", 8, 2, 1);
    ASSERT_FALSE(mirror.fill(0x8, 1, 0, 1, std::nullopt));
    EXPECT_TRUE(mentions(mirror.fill(0x8, 2, 0, 1, std::nullopt),
                         "moved"));
}

// ---- RefPtb ------------------------------------------------------------

TEST(RefPtb, EnforcesSlotDiscipline)
{
    RefPtb ptb;
    ptb.configure(2);

    EXPECT_FALSE(ptb.allocated(0, 1));
    EXPECT_FALSE(ptb.allocated(1, 2));
    // Slot already live.
    EXPECT_TRUE(ptb.allocated(1, 2).has_value());
    // Beyond capacity.
    EXPECT_TRUE(mentions(ptb.allocated(5, 3), "beyond"));
    // Dropping is legal exactly when full.
    EXPECT_FALSE(ptb.dropped());
    EXPECT_FALSE(ptb.released(0, 1));
    EXPECT_TRUE(mentions(ptb.dropped(), "only legal when full"));
    // Releasing an idle slot.
    EXPECT_TRUE(mentions(ptb.released(0, 0), "idle"));
    // Occupancy mismatches are caught on both event kinds.
    EXPECT_TRUE(mentions(ptb.allocated(0, 7), "occupancy"));
}

// ---- RefSidPredictor ---------------------------------------------------

TEST(RefSidPredictor, MatchesTimedPredictorOnRandomStreams)
{
    for (unsigned history : {0u, 1u, 4u, 20u, 48u}) {
        RefSidPredictor ref;
        ref.configure(history);
        core::SidPredictor timed(history);

        Rng rng(history * 977 + 5);
        for (int n = 0; n < 3000; ++n) {
            const auto sid = static_cast<uint32_t>(rng.below(32));
            timed.train(sid);
            ref.observe(sid);
            // Spot-check a prediction every step, full sweep at end.
            const auto probe =
                static_cast<uint32_t>(rng.below(32));
            EXPECT_EQ(timed.predict(probe), ref.predict(probe))
                << "history=" << history << " n=" << n;
        }
        for (uint32_t sid = 0; sid < 32; ++sid)
            EXPECT_EQ(timed.predict(sid), ref.predict(sid))
                << "history=" << history;
    }
}

TEST(RefSidPredictor, ImplementsTheDefinitionDirectly)
{
    // After arrivals 0,1,2,...,9 with H=3, the prediction for the
    // SID of arrival n must be the SID of arrival n+3.
    RefSidPredictor ref;
    ref.configure(3);
    for (uint32_t n = 0; n < 10; ++n)
        ref.observe(100 + n);
    for (uint32_t n = 0; n + 3 < 10; ++n)
        EXPECT_EQ(ref.predict(100 + n), 100 + n + 3);
    EXPECT_FALSE(ref.predict(107).has_value());
}

// ---- RefHistory --------------------------------------------------------

TEST(RefHistory, KeepsMruOrderDedupedAndCapped)
{
    RefHistory hist;
    hist.configure(3);
    hist.observe(7, 0x1000, 12);
    hist.observe(7, 0x2000, 12);
    hist.observe(7, 0x200000, 21);
    ASSERT_TRUE(hist.recent(7, 0).has_value());
    EXPECT_EQ(hist.recent(7, 0)->pageBase, 0x200000u);
    EXPECT_EQ(hist.recent(7, 2)->pageBase, 0x1000u);

    // Re-observing moves to front and keeps the recorded size, even
    // if the re-observation claims another size.
    hist.observe(7, 0x1000, 21);
    EXPECT_EQ(hist.recent(7, 0)->pageBase, 0x1000u);
    EXPECT_EQ(hist.recent(7, 0)->sizeBytesLog2, 12u);

    // Depth cap evicts the least recent.
    hist.observe(7, 0x3000, 12);
    EXPECT_FALSE(hist.recent(7, 3).has_value());
    EXPECT_EQ(hist.recent(7, 2)->pageBase, 0x200000u);

    // Tenants are independent.
    EXPECT_FALSE(hist.recent(8, 0).has_value());
}

// ---- refWalkAccesses ---------------------------------------------------

TEST(RefWalkAccesses, AgreesWithTheTimedAccessFormula)
{
    for (unsigned levels : {4u, 5u}) {
        for (bool huge : {false, true}) {
            const unsigned leaf = huge ? 2 : 1;
            EXPECT_EQ(refWalkAccesses(false, false, levels, huge),
                      mem::walkAccessesAtDepth(levels - leaf + 1,
                                               levels));
            EXPECT_EQ(refWalkAccesses(false, true, levels, huge),
                      mem::walkAccessesAtDepth(3 - leaf, levels));
            EXPECT_EQ(refWalkAccesses(true, false, levels, huge),
                      mem::walkAccessesAtDepth(2 - leaf, levels));
        }
    }
    // The headline Table II numbers.
    EXPECT_EQ(refWalkAccesses(false, false, 4, false), 24u);
    EXPECT_EQ(refWalkAccesses(false, false, 5, false), 35u);
    EXPECT_EQ(refWalkAccesses(true, false, 4, false), 9u);
    EXPECT_EQ(refWalkAccesses(false, true, 4, false), 14u);
    EXPECT_EQ(refWalkAccesses(true, false, 4, true), 4u);
}

// ---- ShadowChecker on manufactured event streams -----------------------

ShadowConfig
smallConfig()
{
    ShadowConfig config;
    config.devtlbEntries = 16;
    config.devtlbWays = 4;
    config.devtlbPartitions = 2;
    config.iotlbEntries = 16;
    config.iotlbWays = 4;
    config.l2Entries = 8;
    config.l2Ways = 2;
    config.l3Entries = 8;
    config.l3Ways = 2;
    config.ptbEntries = 2;
    config.historyLength = 2;
    config.historyDepth = 2;
    config.pagesPerPrefetch = 2;
    return config;
}

TEST(ShadowChecker, CollectsViolationsInsteadOfDying)
{
    ShadowChecker checker(smallConfig(), nullptr,
                          /*fail_fast=*/false);
    // Drop with an empty PTB: illegal.
    checker.devicePacketDropped();
    // Phantom DevTLB hit.
    checker.deviceDevtlbLookup(0, 0, 0x1000, mem::PageSize::Size4K,
                               0, true, 0xdead);
    EXPECT_EQ(checker.violationCount(), 2u);
    ASSERT_EQ(checker.violations().size(), 2u);
    EXPECT_NE(checker.violations()[0].find("drop"),
              std::string::npos);
    EXPECT_EQ(checker.eventCount(), 2u);
    EXPECT_EQ(checker.translationChecks(), 1u);
}

// A parked arrival slot reports a run of drops at one full PTB
// through a single bulk hook; it must count exactly the events n
// single drops would, and stay clean while the PTB is full.
TEST(ShadowChecker, BulkDropsCountLikeSingleDropsAtAFullPtb)
{
    ShadowChecker single(smallConfig(), nullptr, /*fail_fast=*/false);
    ShadowChecker bulk(smallConfig(), nullptr, /*fail_fast=*/false);
    for (ShadowChecker *checker : {&single, &bulk}) {
        checker->devicePacketAccepted(/*sid=*/0, /*idx=*/0, 1);
        checker->devicePacketAccepted(/*sid=*/1, /*idx=*/1, 2);
    }
    constexpr uint64_t Drops = 37;
    for (uint64_t i = 0; i < Drops; ++i)
        single.devicePacketDropped();
    bulk.devicePacketsDropped(Drops);
    EXPECT_EQ(bulk.eventCount(), single.eventCount());
    EXPECT_EQ(bulk.eventCount(), 2 + Drops);
    EXPECT_EQ(single.violationCount(), 0u);
    EXPECT_EQ(bulk.violationCount(), 0u);
}

TEST(ShadowChecker, BulkDropAtANonFullPtbIsOneViolation)
{
    ShadowChecker checker(smallConfig(), nullptr,
                          /*fail_fast=*/false);
    checker.devicePacketAccepted(/*sid=*/0, /*idx=*/0, 1); // 1 of 2
    checker.devicePacketsDropped(5);
    EXPECT_EQ(checker.violationCount(), 1u);
    ASSERT_EQ(checker.violations().size(), 1u);
    EXPECT_NE(checker.violations()[0].find("drop"),
              std::string::npos);
    EXPECT_EQ(checker.eventCount(), 1u + 5u);
}

TEST(ShadowChecker, ChecksWalkAccountingAgainstPagingMirrors)
{
    ShadowChecker checker(smallConfig(), nullptr,
                          /*fail_fast=*/false);
    const mem::DomainId did = 1;
    const mem::Iova iova = 0x4000;
    const auto size = mem::PageSize::Size4K;

    // A walk must allocate its MSHR entry first…
    checker.iommuWalkStarted(did, iova, size, 24, 1);
    EXPECT_EQ(checker.violationCount(), 1u); // no MSHR entry
    checker.iommuMshrAllocated(did, iova, size);
    // …and a cold walk costs the full 24 accesses, not 9.
    checker.iommuWalkStarted(did, iova, size, 9, 1);
    EXPECT_EQ(checker.violationCount(), 2u);
    checker.iommuWalkStarted(did, iova, size, 24, 1);
    EXPECT_EQ(checker.violationCount(), 2u);
    checker.iommuWalkCompleted(did, iova, size, true, 0x1234);
    // Completing again: the MSHR entry is gone.
    checker.iommuWalkCompleted(did, iova, size, true, 0x1234);
    EXPECT_EQ(checker.violationCount(), 3u);
}

TEST(ShadowChecker, FailFastPanicsOnFirstViolation)
{
    EXPECT_DEATH(
        {
            ShadowChecker checker(smallConfig(), nullptr,
                                  /*fail_fast=*/true);
            checker.devicePacketDropped();
        },
        "shadow oracle");
}

TEST(ShadowScope, InstallsPerThreadAndNests)
{
    EXPECT_EQ(shadowChecker(), nullptr);
    ShadowChecker outer(smallConfig(), nullptr, false);
    {
        ShadowScope scope(outer);
        EXPECT_EQ(shadowChecker(), &outer);
        ShadowChecker inner(smallConfig(), nullptr, false);
        {
            ShadowScope nested(inner);
            EXPECT_EQ(shadowChecker(), &inner);
        }
        EXPECT_EQ(shadowChecker(), &outer);
    }
    EXPECT_EQ(shadowChecker(), nullptr);
}

// The hot path passes O(entries) snapshots as hook arguments, so a
// hook must evaluate its arguments only while a checker is installed.
TEST(ShadowHook, EvaluatesArgumentsOnlyUnderAChecker)
{
    ShadowChecker checker(smallConfig(), nullptr, false);
    uint32_t n = 0;
    HYPERSIO_SHADOW(deviceSidObserved(++n));
    EXPECT_EQ(n, 0u);
    {
        ShadowScope scope(checker);
        HYPERSIO_SHADOW(deviceSidObserved(++n));
    }
    EXPECT_EQ(n, 1u);
}

// ---- End-to-end: fault injection and observation-only ------------------

trace::HyperTrace
smallTrace(uint64_t seed)
{
    workload::AdversarialConfig tc;
    tc.tenants = 6;
    tc.packets = 120;
    tc.seed = seed;
    return workload::makeAdversarialTrace(
        workload::AdversarialPattern::UniformRandom, tc);
}

TEST(FaultInjection, OracleCatchesDevtlbPtagOffByOne)
{
    // Plant the off-by-one: partition = sid & partitions collapses
    // every SID into row group 0 of the 8-partition DevTLB. The
    // row-legality check must fire for every non-zero-group SID.
    FaultInjectionScope guard;
    faultInjection().devtlbPtagOffByOne = true;

    const auto tr = smallTrace(3);
    core::SystemConfig config = core::SystemConfig::hypertrio();
    core::System system(config);
    ShadowChecker checker(core::toShadowConfig(config),
                          &system.tables(), /*fail_fast=*/false);
    {
        ShadowScope scope(checker);
        system.run(tr);
    }

    EXPECT_GT(checker.violationCount(), 0u);
    ASSERT_FALSE(checker.violations().empty());
    bool ptag = false;
    for (const auto &violation : checker.violations())
        ptag = ptag ||
               violation.find("PTag violation") != std::string::npos;
    EXPECT_TRUE(ptag) << "expected a PTag row-legality violation, "
                         "first was: "
                      << checker.violations().front();
}

TEST(FaultInjection, CleanModelPassesTheSameCampaign)
{
    // Control run: same trace and config, knob off — no violations.
    const auto tr = smallTrace(3);
    core::SystemConfig config = core::SystemConfig::hypertrio();
    core::System system(config);
    ShadowChecker checker(core::toShadowConfig(config),
                          &system.tables(), /*fail_fast=*/false);
    {
        ShadowScope scope(checker);
        system.run(tr);
    }
    EXPECT_EQ(checker.violationCount(), 0u);
    EXPECT_GT(checker.translationChecks(), 0u);
}

TEST(ShadowChecker, IsObservationOnly)
{
    // A checked run must be byte-identical to an unchecked run:
    // the oracle never feeds back into the timed model.
    const auto tr = smallTrace(9);

    const bool was_enabled = shadowAutoCheckEnabled();
    setShadowAutoCheck(false);
    core::RunResults unchecked;
    {
        core::System system(core::SystemConfig::hypertrio());
        unchecked = system.run(tr);
    }
    setShadowAutoCheck(true);
    core::RunResults checked;
    {
        core::System system(core::SystemConfig::hypertrio());
        checked = system.run(tr);
    }
    setShadowAutoCheck(was_enabled);

    EXPECT_TRUE(checked == unchecked);
}

TEST(ShadowAutoCheck, TogglesAndRestores)
{
    const bool was_enabled = shadowAutoCheckEnabled();
    setShadowAutoCheck(false);
    EXPECT_FALSE(shadowAutoCheckEnabled());
    setShadowAutoCheck(true);
    EXPECT_TRUE(shadowAutoCheckEnabled());
    setShadowAutoCheck(was_enabled);
}

// A misspelt switch must not leave the oracle in the wrong state.
TEST(ShadowAutoCheckDeathTest, AcceptsOnlyOnOneOffAndZero)
{
    EXPECT_TRUE(parseShadowSwitch(nullptr));
    EXPECT_TRUE(parseShadowSwitch("on"));
    EXPECT_TRUE(parseShadowSwitch("1"));
    EXPECT_FALSE(parseShadowSwitch("off"));
    EXPECT_FALSE(parseShadowSwitch("0"));
    for (const char *bad : {"OFF", "false", "no", ""}) {
        EXPECT_EXIT(parseShadowSwitch(bad),
                    ::testing::ExitedWithCode(1),
                    std::string("fatal: HYPERSIO_SHADOW='") + bad +
                        "' is not one of on, 1, off, 0");
    }
}

} // namespace
} // namespace hypersio::oracle
