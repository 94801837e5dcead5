/** Tests for the differential oracle: the reference models
 *  themselves, the shadow checker's violation detection on
 *  manufactured event streams, fault-injection end-to-end (the
 *  oracle must catch a deliberately planted DevTLB PTag bug), and
 *  the observation-only guarantee (checked == unchecked results). */

#include <gtest/gtest.h>

#include <string>
#include <unordered_map>

#include "core/prefetch.hh"
#include "core/system.hh"
#include "iommu/iommu.hh"
#include "mem/memory_model.hh"
#include "oracle/fault_injection.hh"
#include "oracle/hooks.hh"
#include "oracle/ref_cache.hh"
#include "oracle/ref_mmu_prefetch.hh"
#include "oracle/ref_predictor.hh"
#include "oracle/ref_ptb.hh"
#include "oracle/ref_table.hh"
#include "oracle/ref_walk.hh"
#include "oracle/shadow.hh"
#include "util/rng.hh"
#include "util/str.hh"
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

// ---- RefTable ----------------------------------------------------------

// The oracle's table against std::unordered_map over a seeded random
// mix of inserts, erases and lookups. Half the keys are 64 domains x
// one frame (they differ only at bit 40 and up, as co-located
// tenants' translation keys do), and the key count runs far past the
// table's configured size, so it grows several times.
TEST(RefTable, MatchesUnorderedMapOnRandomOperations)
{
    RefTable<uint64_t> table;
    table.reset(16);
    std::unordered_map<uint64_t, uint64_t> reference;
    Rng rng(2404);
    const auto randomKey = [&]() -> uint64_t {
        if (rng.below(2))
            return (rng.below(64) << 40) | 0x7f123;
        return (rng.below(64) << 40) | (uint64_t(1) << 39) |
               rng.below(4096);
    };
    for (int op = 0; op < 200000; ++op) {
        const uint64_t key = randomKey();
        switch (rng.below(3)) {
          case 0: {
            auto [value, inserted] = table.tryEmplace(key);
            const bool ref_inserted = !reference.count(key);
            ASSERT_EQ(inserted, ref_inserted) << "op " << op;
            *value = uint64_t(op);
            reference[key] = uint64_t(op);
            break;
          }
          case 1:
            ASSERT_EQ(table.erase(key), reference.erase(key) == 1)
                << "op " << op;
            break;
          default: {
            const uint64_t *value = table.find(key);
            auto it = reference.find(key);
            ASSERT_EQ(value != nullptr, it != reference.end())
                << "op " << op;
            if (value) {
                ASSERT_EQ(*value, it->second) << "op " << op;
            }
          }
        }
        ASSERT_EQ(table.size(), reference.size()) << "op " << op;
    }
    EXPECT_GT(table.size(), 16u);
    size_t visited = 0;
    table.forEach([&](uint64_t key, uint64_t value) {
        ++visited;
        auto it = reference.find(key);
        ASSERT_NE(it, reference.end());
        EXPECT_EQ(value, it->second);
    });
    EXPECT_EQ(visited, reference.size());
    table.clear();
    EXPECT_TRUE(table.empty());
    EXPECT_FALSE(table.contains((uint64_t(5) << 40) | 0x7f123));
}

// A model that never reports its evictions overfills the mirror far
// past its configured size in collecting mode; the table grows, and
// every fill past the set's ways keeps reporting the missed eviction.
TEST(CacheMirror, KeepsReportingMissedEvictionsPastItsCapacity)
{
    CacheMirror mirror;
    mirror.configure("T", 4, 2, 1); // 2 sets x 2 ways
    size_t violations = 0;
    for (uint64_t did = 0; did < 64; ++did) {
        const auto err = mirror.fill((did << 40) | 0x10, 0, 0, did,
                                     std::nullopt);
        if (did >= 2) {
            EXPECT_TRUE(mentions(err, "missed eviction")) << did;
            violations += err.has_value();
        } else {
            EXPECT_FALSE(err) << did;
        }
    }
    EXPECT_EQ(violations, 62u);
    EXPECT_EQ(mirror.size(), 64u);
    for (uint64_t did = 0; did < 64; ++did)
        EXPECT_TRUE(mirror.lookup((did << 40) | 0x10, 0, 0, true, did)
                        .value_or("")
                        .empty())
            << did;
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

    // A partition count that is not a power of two wraps the same way.
    CacheMirror odd;
    odd.configure("P", 48, 8, 3); // 6 sets, 2 per partition
    EXPECT_FALSE(odd.checkRow(0x1, 4, 5));
    EXPECT_FALSE(odd.checkRow(0x1, 3, 4));
    EXPECT_TRUE(mentions(odd.checkRow(0x1, 4, 4), "PTag violation"));
}

TEST(CacheMirror, DetectsKeysMigratingBetweenSets)
{
    CacheMirror mirror;
    mirror.configure("T", 8, 2, 1);
    ASSERT_FALSE(mirror.fill(0x8, 1, 0, 1, std::nullopt));
    EXPECT_TRUE(mentions(mirror.fill(0x8, 2, 0, 1, std::nullopt),
                         "moved"));
}

// ---- CacheMirror in sub-entry mode -------------------------------------

/** A key of domain `did` behind the shared tag of `frame`. */
uint64_t
tenantKey(uint64_t did, uint64_t frame)
{
    return (did << RefSubEntrySharedKeyBits) | frame;
}

TEST(CacheMirror, WholeTagEvictionRemovesEveryTenantBehindTheTag)
{
    CacheMirror mirror;
    mirror.configure("S", 2, 1, 1, true, 4); // 2 sets x 1 way x 4
    for (uint64_t did = 1; did <= 3; ++did)
        ASSERT_FALSE(mirror.fill(tenantKey(did, 0x10), 0, 0, did,
                                 std::nullopt));
    ASSERT_FALSE(mirror.fill(tenantKey(1, 0x31), 1, 0, 9,
                             std::nullopt));
    EXPECT_EQ(mirror.size(), 4u);

    // A fill of another tag names one tenant of the victim tag; all
    // three go, and the tag in the other set stays.
    EXPECT_FALSE(mirror.fill(tenantKey(1, 0x20), 0, 0, 7,
                             std::optional<uint64_t>(
                                 tenantKey(2, 0x10))));
    for (uint64_t did = 1; did <= 3; ++did)
        EXPECT_FALSE(mirror.contains(tenantKey(did, 0x10))) << did;
    EXPECT_TRUE(mirror.contains(tenantKey(1, 0x20)));
    EXPECT_TRUE(mirror.contains(tenantKey(1, 0x31)));
    EXPECT_EQ(mirror.size(), 2u);
}

TEST(CacheMirror, DetectsMissedSubEviction)
{
    CacheMirror mirror;
    mirror.configure("S", 2, 1, 1, true, 2);
    ASSERT_FALSE(mirror.fill(tenantKey(1, 0x10), 0, 0, 1,
                             std::nullopt));
    ASSERT_FALSE(mirror.fill(tenantKey(2, 0x10), 0, 0, 2,
                             std::nullopt));
    EXPECT_TRUE(mentions(mirror.fill(tenantKey(3, 0x10), 0, 0, 3,
                                     std::nullopt),
                         "missed sub-eviction"));
    // A sub-eviction within the tag keeps the tenant count legal.
    mirror.configure("S", 2, 1, 1, true, 2);
    EXPECT_FALSE(mirror.fill(tenantKey(4, 0x10), 1, 0, 4,
                             std::nullopt));
    EXPECT_FALSE(mirror.fill(tenantKey(5, 0x10), 1, 0, 5,
                             std::nullopt));
    EXPECT_FALSE(mirror.fill(tenantKey(6, 0x10), 1, 0, 6,
                             std::optional<uint64_t>(
                                 tenantKey(4, 0x10))));
    EXPECT_FALSE(mirror.contains(tenantKey(4, 0x10)));
}

TEST(CacheMirror, WayFreesOnlyWhenTheLastTenantBehindItsTagLeaves)
{
    CacheMirror mirror;
    mirror.configure("S", 2, 1, 1, true, 4); // one way per set
    ASSERT_FALSE(mirror.fill(tenantKey(1, 0x10), 0, 0, 1,
                             std::nullopt));
    ASSERT_FALSE(mirror.fill(tenantKey(2, 0x10), 0, 0, 2,
                             std::nullopt));

    // One tenant leaves: the tag still holds the set's only way.
    ASSERT_FALSE(mirror.invalidated(tenantKey(1, 0x10), true));
    EXPECT_TRUE(mentions(mirror.fill(tenantKey(1, 0x20), 0, 0, 3,
                                     std::nullopt),
                         "missed eviction"));

    // With the last tenant of a tag gone, its way is free again.
    CacheMirror fresh;
    fresh.configure("S", 2, 1, 1, true, 4);
    ASSERT_FALSE(fresh.fill(tenantKey(1, 0x10), 0, 0, 1,
                            std::nullopt));
    ASSERT_FALSE(fresh.fill(tenantKey(2, 0x10), 0, 0, 2,
                            std::nullopt));
    ASSERT_FALSE(fresh.invalidated(tenantKey(1, 0x10), true));
    ASSERT_FALSE(fresh.invalidated(tenantKey(2, 0x10), true));
    EXPECT_FALSE(fresh.fill(tenantKey(1, 0x20), 0, 0, 3,
                            std::nullopt));
    EXPECT_EQ(fresh.size(), 1u);
}

// ---- Violation messages, pinned word for word ---------------------------

TEST(CacheMirror, ViolationMessagesAreExact)
{
    const auto text = [](const std::optional<std::string> &v) {
        return v ? *v : std::string("(none)");
    };
    CacheMirror mirror;
    mirror.configure("T", 8, 2, 1); // 4 sets x 2 ways
    EXPECT_EQ(text(mirror.checkRow(0x1f, 4, 0)),
              "T: key 0x1f uses set 4 beyond the 4 sets");
    EXPECT_EQ(text(mirror.lookup(0x20, 0, 0, true, 1)),
              "T: lookup of key 0x20 reported a hit but the "
              "reference holds no entry");
    ASSERT_FALSE(mirror.fill(0x20, 0, 0, 5, std::nullopt));
    EXPECT_EQ(text(mirror.lookup(0x20, 0, 0, false, 0)),
              "T: lookup of key 0x20 reported a miss but the "
              "reference holds that entry");
    EXPECT_EQ(text(mirror.lookup(0x20, 0, 0, true, 6)),
              "T: hit on key 0x20 returned 0x6, reference holds 0x5");
    EXPECT_EQ(text(mirror.fill(0x1, 0, 0, 1,
                               std::optional<uint64_t>(0x99))),
              "T: fill of 0x1 evicted 0x99 which the reference never "
              "held");
    ASSERT_FALSE(mirror.fill(0x2, 1, 0, 1, std::nullopt));
    ASSERT_FALSE(mirror.fill(0x4, 1, 0, 1, std::nullopt));
    EXPECT_EQ(text(mirror.fill(0x2, 1, 0, 2,
                               std::optional<uint64_t>(0x4))),
              "T: in-place update of 0x2 reported an eviction of 0x4");
    EXPECT_EQ(text(mirror.fill(0x6, 1, 0, 1, std::nullopt)),
              "T: set 1 holds 3 keys but has only 2 ways (missed "
              "eviction)");
    EXPECT_EQ(text(mirror.fill(0x20, 2, 0, 5, std::nullopt)),
              "T: key 0x20 moved from set 0 to set 2");
    EXPECT_EQ(text(mirror.invalidated(0x77, true)),
              "T: invalidate of key 0x77 removed an entry but the "
              "reference does not hold it");
    EXPECT_EQ(text(mirror.invalidated(0x20, false)),
              "T: invalidate of key 0x20 found nothing but the "
              "reference holds it");

    CacheMirror partitioned;
    partitioned.configure("P", 64, 8, 4); // 8 sets, 2 per partition
    EXPECT_EQ(text(partitioned.checkRow(0x1, 0, 3)),
              "P: PTag violation — key 0x1 (tag 3) allocated row "
              "group 0, legal group is 3");

    CacheMirror shared;
    shared.configure("S", 2, 2, 1, true, 2); // 1 set x 2 ways x 2
    ASSERT_FALSE(shared.fill(tenantKey(1, 0x10), 0, 0, 1,
                             std::nullopt));
    ASSERT_FALSE(shared.fill(tenantKey(2, 0x10), 0, 0, 2,
                             std::nullopt));
    EXPECT_EQ(text(shared.fill(tenantKey(3, 0x10), 0, 0, 3,
                               std::nullopt)),
              "S: tag 0x10 in set 0 carries 3 tenants but has only 2 "
              "sub-entries (missed sub-eviction)");
    ASSERT_FALSE(shared.fill(tenantKey(1, 0x11), 0, 0, 4,
                             std::nullopt));
    EXPECT_EQ(text(shared.fill(tenantKey(2, 0x11), 0, 0, 5,
                               std::nullopt)),
              "S: 5 resident keys exceed the 4 entries");
}

TEST(RefPtb, ViolationMessagesAreExact)
{
    RefPtb ptb;
    ptb.configure(2);
    EXPECT_EQ(ptb.allocated(5, 0).value_or("(none)"),
              "PTB: allocated slot 5 beyond capacity 2");
    ASSERT_FALSE(ptb.allocated(1, 1));
    EXPECT_EQ(ptb.allocated(1, 1).value_or("(none)"),
              "PTB: slot 1 allocated twice");
    EXPECT_EQ(ptb.dropped().value_or("(none)"),
              "PTB: packet dropped at occupancy 1/2 — drops are only "
              "legal when full");
    EXPECT_EQ(ptb.allocated(0, 7).value_or("(none)"),
              "PTB: occupancy 7 reported after allocate, reference "
              "holds 2");
    EXPECT_EQ(ptb.released(0, 3).value_or("(none)"),
              "PTB: occupancy 3 reported after release, reference "
              "holds 1");
    EXPECT_EQ(ptb.released(0, 1).value_or("(none)"),
              "PTB: released idle slot 0");
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

// ---- Retirement --------------------------------------------------------

// Per-tenant reference state lives only while its tenant does: after
// every SID and DID retires, the predictor, the history and the MMU
// streams hold no entries, so churn keeps the oracle O(active).
TEST(RefModels, HoldNothingAfterEveryTenantRetires)
{
    RefSidPredictor predictor;
    predictor.configure(3);
    RefHistory history;
    history.configure(4);
    RefMmuPrefetcher mmu;
    Rng rng(77);
    for (int n = 0; n < 20000; ++n) {
        const auto id = static_cast<uint32_t>(rng.below(300));
        predictor.observe(id);
        history.observe(id, rng.below(64) << 12, 12);
        mmu.observe(id, static_cast<unsigned>(rng.below(3)),
                    rng.below(64) << 12, mem::PageSize::Size4K);
    }
    EXPECT_GT(predictor.size(), 0u);
    EXPECT_GT(history.size(), 0u);
    EXPECT_GT(mmu.streams(), 0u);
    for (uint32_t id = 0; id < 300; ++id) {
        predictor.retire(id);
        history.retire(id);
        mmu.retire(id);
    }
    EXPECT_EQ(predictor.size(), 0u);
    EXPECT_EQ(history.size(), 0u);
    EXPECT_EQ(mmu.streams(), 0u);
    EXPECT_FALSE(predictor.predict(5).has_value());
    EXPECT_FALSE(history.recent(5, 0).has_value());
    EXPECT_FALSE(mmu.predicted(5, 0, 0).has_value());
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

// A PB lookup is checked and, on a reported hit, consumes the entry
// it found: a reported miss of a held entry leaves it in place, a
// hit with the wrong value still consumes it, and a consumed entry
// can only miss afterwards.
TEST(ShadowChecker, PbLookupsAreClassifiedAndHitsConsume)
{
    using mem::PageSize;
    ShadowConfig config = smallConfig();
    config.pbEntries = 4;
    ShadowChecker checker(config, nullptr, /*fail_fast=*/false);
    checker.devicePbFill(1, 0x4000, PageSize::Size4K, 0x1234,
                         std::nullopt);
    checker.devicePbFill(1, 0x5000, PageSize::Size4K, 0x5678,
                         std::nullopt);
    checker.devicePbLookup(1, 0x4000, PageSize::Size4K, false, 0);
    checker.devicePbLookup(1, 0x4000, PageSize::Size4K, true, 0x1234);
    checker.devicePbLookup(1, 0x4000, PageSize::Size4K, false, 0);
    checker.devicePbLookup(1, 0x4000, PageSize::Size4K, true, 0x1234);
    checker.devicePbLookup(1, 0x5000, PageSize::Size4K, true, 0x9999);
    checker.devicePbLookup(1, 0x5000, PageSize::Size4K, false, 0);
    const std::vector<std::string> expected = {
        "PB: lookup of key 0x10000000004 reported a miss but the "
        "reference holds that entry",
        "PB: lookup of key 0x10000000004 reported a hit but the "
        "reference holds no entry",
        "PB: hit on key 0x10000000005 returned 0x9999, reference "
        "holds 0x5678",
    };
    EXPECT_EQ(checker.violations(), expected);
    EXPECT_EQ(checker.eventCount(), 8u);
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

// Every ShadowChecker violation message, word for word, in the order
// one manufactured event stream raises them.
TEST(ShadowChecker, ViolationMessagesAreExact)
{
    using mem::PageSize;
    iommu::PageTableDirectory tables(11);
    tables.get(1).map(0x4000, PageSize::Size4K);
    const mem::Addr hpa = tables.find(1)->translate(0x4000).hostAddr;
    const auto hex = [](uint64_t v) {
        return strprintf("%#llx", (unsigned long long)v);
    };

    ShadowConfig config = smallConfig();
    config.walkers = 2;
    config.pbEntries = 4;
    ShadowChecker checker(config, &tables, /*fail_fast=*/false);
    checker.devicePacketDropped();
    checker.deviceSidPredicted(3, 7);
    checker.deviceMmuObserved(1, 0, 0x4000, PageSize::Size4K);
    checker.deviceMmuPrefetchIssued(1, 0, 5, 0x8000,
                                    PageSize::Size4K);
    checker.devicePbFill(1, 0x9000, PageSize::Size4K, 0x1234,
                         std::nullopt);
    checker.devicePbFill(1, 0x4000, PageSize::Size4K, hpa,
                         std::nullopt);
    checker.deviceDevtlbFill(0, 1, 0x4000, PageSize::Size4K, 0,
                             hpa ^ 0x1000, std::nullopt);
    checker.iommuIotlbFilled(1, 0x4000, PageSize::Size4K, 0, hpa,
                             std::nullopt);
    checker.iommuMshrAllocated(1, 0x4000, PageSize::Size4K);
    checker.iommuMshrAllocated(1, 0x4000, PageSize::Size4K);
    checker.iommuCoalesced(1, 0x5000, PageSize::Size4K);
    checker.iommuWalkStarted(1, 0x5000, PageSize::Size4K, 9, 3);
    checker.iommuWalkCompleted(1, 0x5000, PageSize::Size4K, true,
                               0x1);
    checker.iommuWalkCompleted(1, 0x4000, PageSize::Size4K, true,
                               0x1);
    checker.iommuMshrAllocated(1, 0x4000, PageSize::Size4K);
    checker.iommuWalkCompleted(1, 0x4000, PageSize::Size4K, false,
                               0);
    checker.iommuMshrAllocated(1, 0x6000, PageSize::Size4K);
    checker.iommuPagingFilled(4, 1, 0x4000, 0, std::nullopt);
    checker.historyPrefetchIssued(1, 3, 0x4000, PageSize::Size4K);
    checker.systemUnmapped(1, 0x4000, PageSize::Size4K);
    checker.systemRunCompleted(false, 10, 29, 9, 9, 9, 9, 9, 1);

    const std::vector<std::string> expected = {
        "PTB: packet dropped at occupancy 0/2 — drops are only legal "
        "when full",
        "SID-predictor: sid 3 predicted 7, reference expects -1 "
        "(after 0 arrivals)",
        "MMU stride detector trained (did=1 cls=0) but the MMU "
        "prefetcher is not the configured mechanism",
        "MMU prefetcher issued slot 5, burst limit is 2 pages",
        "MMU prefetcher issued did=1 cls=0 slot 5 page 0x8000, "
        "reference predicts 0",
        "Prefetch Buffer fill of did=1 iova=0x9000, but the "
        "functional tables say the page is unmapped (stale fill not "
        "squashed)",
        "DevTLB fill of did=1 iova=0x4000 installs hPA frame " +
            hex((hpa ^ 0x1000) & ~0xfffull) +
            ", functional tables say " + hex(hpa & ~0xfffull) +
            " (stale fill not squashed)",
        "MSHR: second walk allocated for in-flight key 0x10000000004 "
        "(did 1 iova 0x4000)",
        "MSHR: request coalesced onto key 0x10000000005 with no walk "
        "in flight",
        "walk did=1 iova=0x5000 charged 9 accesses, reference expects "
        "24 (L2 0, L3 0, 4K)",
        "walker bound: 3 active walks exceed the 2 walker slots",
        "walk did=1 iova=0x5000 started without an MSHR entry",
        "walk did=1 iova=0x5000 completed without an MSHR entry",
        "walk did=1 iova=0x5000 succeeded but the functional tables "
        "say unmapped",
        "hPA mismatch: did=1 iova=0x4000 timed 0x1, functional " +
            hex(hpa),
        "walk did=1 iova=0x4000 faulted but the functional tables say "
        "mapped",
        "paging-structure fill at unexpected level 4",
        "history reader issued prefetch slot 3, burst limit is 2 "
        "pages",
        "history reader prefetched did=1 page 0x4000 (slot 3), "
        "reference history holds 0 there",
        "unmap of did=1 page 0x4000 left the 4K translation in the "
        "DevTLB",
        "unmap of did=1 page 0x4000 left the 4K translation in the "
        "Prefetch Buffer",
        "unmap of did=1 page 0x4000 left the 4K translation in the "
        "IOTLB",
        "run issued 29 translations for 10 processed packets "
        "(expected 3 per packet)",
        "PTB not empty at end of run (timed 1, reference 0)",
        "1 walks still in the MSHR at end of run",
        "DevTLB occupancy 9 at end of run, reference holds 1",
        "PB occupancy 9 at end of run, reference holds 2",
        "IOTLB occupancy 9 at end of run, reference holds 1",
        "L2TLB occupancy 9 at end of run, reference holds 0",
        "L3TLB occupancy 9 at end of run, reference holds 1",
    };
    EXPECT_EQ(checker.violations(), expected);
    EXPECT_EQ(checker.violationCount(), expected.size());

    // The two mechanism-mismatch rules need the MMU prefetcher on.
    config.mmuPrefetch = true;
    ShadowChecker mmu(config, nullptr, /*fail_fast=*/false);
    mmu.deviceSidObserved(4);
    EXPECT_EQ(mmu.violations(),
              std::vector<std::string>{
                  "SID-predictor trained with sid 4 while the MMU "
                  "prefetcher is the configured mechanism"});
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
