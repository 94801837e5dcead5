/** Unit tests for the set-associative cache: geometry, partitioning,
 *  hashed indexing, eviction, invalidation, and statistics. */

#include <gtest/gtest.h>

#include "cache/oracle_feed.hh"
#include "cache/set_assoc_cache.hh"

namespace hypersio::cache
{
namespace
{

CacheConfig
smallConfig()
{
    // 16 entries, 2-way, 8 sets, LRU.
    return {16, 2, 1, ReplPolicyKind::LRU, 1};
}

TEST(SetAssocCache, MissThenHit)
{
    SetAssocCache<int> cache(smallConfig());
    EXPECT_EQ(cache.lookup(100, 0), nullptr);
    cache.insert(100, 0, 7);
    int *v = cache.lookup(100, 0);
    ASSERT_NE(v, nullptr);
    EXPECT_EQ(*v, 7);
    EXPECT_EQ(cache.stats().lookups, 2u);
    EXPECT_EQ(cache.stats().hits, 1u);
}

TEST(SetAssocCache, InsertUpdatesInPlace)
{
    SetAssocCache<int> cache(smallConfig());
    cache.insert(1, 0, 10);
    cache.insert(1, 0, 20);
    EXPECT_EQ(*cache.lookup(1, 0), 20);
    EXPECT_EQ(cache.stats().insertions, 1u); // update is not an insert
    EXPECT_EQ(cache.occupancy(), 1u);
}

TEST(SetAssocCache, EvictionWhenSetFull)
{
    SetAssocCache<int> cache(smallConfig()); // 2-way
    // Three keys mapping to the same set (index % 8 == 0).
    cache.insert(100, 0, 1);
    cache.insert(200, 8, 2);
    auto evicted = cache.insert(300, 16, 3);
    ASSERT_TRUE(evicted.has_value());
    EXPECT_EQ(evicted->key, 100u); // LRU victim
    EXPECT_EQ(evicted->value, 1);
    EXPECT_EQ(cache.lookup(100, 0), nullptr);
    EXPECT_NE(cache.lookup(200, 8), nullptr);
    EXPECT_NE(cache.lookup(300, 16), nullptr);
    EXPECT_EQ(cache.stats().evictions, 1u);
}

TEST(SetAssocCache, DifferentSetsDoNotConflict)
{
    SetAssocCache<int> cache(smallConfig());
    for (uint64_t i = 0; i < 8; ++i)
        cache.insert(1000 + i, i, static_cast<int>(i));
    EXPECT_EQ(cache.stats().evictions, 0u);
    EXPECT_EQ(cache.occupancy(), 8u);
}

TEST(SetAssocCache, InvalidateRemovesEntry)
{
    SetAssocCache<int> cache(smallConfig());
    cache.insert(5, 5, 50);
    EXPECT_TRUE(cache.invalidate(5, 5));
    EXPECT_FALSE(cache.invalidate(5, 5));
    EXPECT_EQ(cache.lookup(5, 5), nullptr);
    EXPECT_EQ(cache.stats().invalidations, 1u);
}

TEST(SetAssocCache, FlushEmptiesEverything)
{
    SetAssocCache<int> cache(smallConfig());
    for (uint64_t i = 0; i < 16; ++i)
        cache.insert(i, i, 1);
    EXPECT_GT(cache.occupancy(), 0u);
    cache.flush();
    EXPECT_EQ(cache.occupancy(), 0u);
    for (uint64_t i = 0; i < 16; ++i)
        EXPECT_EQ(cache.peek(i, i), nullptr);
}

TEST(SetAssocCache, PeekHasNoSideEffects)
{
    SetAssocCache<int> cache(smallConfig());
    cache.insert(9, 1, 90);
    const auto before = cache.stats().lookups;
    EXPECT_NE(cache.peek(9, 1), nullptr);
    EXPECT_EQ(cache.peek(10, 1), nullptr);
    EXPECT_EQ(cache.stats().lookups, before);
}

TEST(SetAssocCache, FullyAssociativeMode)
{
    CacheConfig config{8, 8, 1, ReplPolicyKind::LRU, 1};
    SetAssocCache<int> cache(config);
    EXPECT_EQ(cache.numSets(), 1u);
    // All keys share the one set regardless of index.
    for (uint64_t i = 0; i < 8; ++i)
        cache.insert(i, i * 1000, 1);
    EXPECT_EQ(cache.stats().evictions, 0u);
    cache.insert(99, 123456, 1);
    EXPECT_EQ(cache.stats().evictions, 1u);
}

TEST(SetAssocCache, PartitionIsolation)
{
    // 4 partitions of 2 sets each; same index, different partitions
    // never evict each other.
    CacheConfig config{16, 2, 4, ReplPolicyKind::LRU, 1};
    SetAssocCache<int> cache(config);
    // Fill partition 0's set for index 0 to capacity.
    cache.insert(1, 0, 1, 0);
    cache.insert(2, 0, 2, 0);
    // Insert into partition 1 with the same index.
    cache.insert(3, 0, 3, 1);
    // Partition 0 entries must survive.
    EXPECT_NE(cache.lookup(1, 0, 0), nullptr);
    EXPECT_NE(cache.lookup(2, 0, 0), nullptr);
    EXPECT_NE(cache.lookup(3, 0, 1), nullptr);
    // A third key in partition 0 evicts only within partition 0.
    cache.insert(4, 0, 4, 0);
    EXPECT_EQ(cache.stats().evictions, 1u);
    EXPECT_NE(cache.lookup(3, 0, 1), nullptr);
}

TEST(SetAssocCache, PartitionIdWrapsAroundModulo)
{
    CacheConfig config{16, 2, 4, ReplPolicyKind::LRU, 1};
    SetAssocCache<int> cache(config);
    cache.insert(1, 0, 1, 1);
    // Partition 5 maps to partition 1 (5 % 4).
    EXPECT_NE(cache.lookup(1, 0, 5), nullptr);
}

TEST(SetAssocCache, SetIndexComputation)
{
    CacheConfig config{64, 8, 4, ReplPolicyKind::LRU, 1};
    SetAssocCache<int> cache(config);
    // 8 sets, 4 partitions → 2 sets per partition.
    EXPECT_EQ(cache.setIndex(0, 0), 0u);
    EXPECT_EQ(cache.setIndex(1, 0), 1u);
    EXPECT_EQ(cache.setIndex(2, 0), 0u); // wraps inside partition
    EXPECT_EQ(cache.setIndex(0, 1), 2u);
    EXPECT_EQ(cache.setIndex(1, 3), 7u);
}

TEST(SetAssocCache, HashedIndexSpreadsSameIndexKeys)
{
    // With plain indexing, keys sharing an index collide in one set;
    // with hashed indexing they spread across sets.
    CacheConfig plain{64, 2, 1, ReplPolicyKind::LRU, 1, false};
    CacheConfig hashed{64, 2, 1, ReplPolicyKind::LRU, 1, true};
    SetAssocCache<int> a(plain);
    SetAssocCache<int> b(hashed);
    for (uint64_t t = 0; t < 16; ++t) {
        const uint64_t key = (t << 40) | 0x34800; // same page
        a.insert(key, 0x34800, 1);
        b.insert(key, 0x34800, 1);
    }
    // Plain: all 16 in one 2-way set → 14 evictions.
    EXPECT_EQ(a.stats().evictions, 14u);
    // Hashed: spread over 32 sets → few or no evictions.
    EXPECT_LT(b.stats().evictions, 4u);
}

TEST(SetAssocCache, ForEachVisitsAllValidEntries)
{
    SetAssocCache<int> cache(smallConfig());
    cache.insert(1, 1, 10);
    cache.insert(2, 2, 20);
    cache.insert(3, 3, 30);
    cache.invalidate(2, 2);
    int sum = 0;
    size_t count = 0;
    cache.forEach([&](uint64_t, const int &v, size_t, size_t) {
        sum += v;
        ++count;
    });
    EXPECT_EQ(count, 2u);
    EXPECT_EQ(sum, 40);
}

TEST(SetAssocCache, ResetStatsKeepsContents)
{
    SetAssocCache<int> cache(smallConfig());
    cache.insert(1, 1, 10);
    cache.lookup(1, 1);
    cache.resetStats();
    EXPECT_EQ(cache.stats().lookups, 0u);
    EXPECT_NE(cache.lookup(1, 1), nullptr);
}

TEST(CacheStats, MissRateArithmetic)
{
    CacheStats stats;
    EXPECT_DOUBLE_EQ(stats.missRate(), 0.0);
    stats.lookups = 10;
    stats.hits = 7;
    EXPECT_EQ(stats.misses(), 3u);
    EXPECT_DOUBLE_EQ(stats.missRate(), 0.3);
}

/** Geometry sweep: inserts never exceed capacity, lookups find what
 *  fits, and occupancy is bounded for every (entries, ways) shape. */
class CacheGeometryTest
    : public ::testing::TestWithParam<std::pair<size_t, size_t>>
{};

TEST_P(CacheGeometryTest, OccupancyNeverExceedsCapacity)
{
    const auto [entries, ways] = GetParam();
    CacheConfig config{entries, ways, 1, ReplPolicyKind::LRU, 1};
    SetAssocCache<int> cache(config);
    for (uint64_t i = 0; i < entries * 4; ++i)
        cache.insert(i, i * 2654435761u, 1);
    EXPECT_LE(cache.occupancy(), entries);
    const auto &s = cache.stats();
    EXPECT_EQ(s.insertions, entries * 4);
    EXPECT_EQ(s.insertions - s.evictions, cache.occupancy());
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, CacheGeometryTest,
    ::testing::Values(std::pair<size_t, size_t>{8, 1},
                      std::pair<size_t, size_t>{8, 8},
                      std::pair<size_t, size_t>{64, 8},
                      std::pair<size_t, size_t>{64, 2},
                      std::pair<size_t, size_t>{1024, 16},
                      std::pair<size_t, size_t>{512, 16}));

/** Partition sweep: entries inserted via one partition are never
 *  evicted by traffic in other partitions. */
class PartitionIsolationTest : public ::testing::TestWithParam<size_t>
{};

TEST_P(PartitionIsolationTest, CrossPartitionTrafficCannotEvict)
{
    const size_t partitions = GetParam();
    CacheConfig config{64, 8, partitions, ReplPolicyKind::LRU, 1};
    SetAssocCache<int> cache(config);

    // Pin one entry in partition 0.
    cache.insert(0xAAAA, 0, 1, 0);

    // Blast every other partition with conflicting traffic.
    for (uint32_t p = 1; p < partitions; ++p)
        for (uint64_t i = 0; i < 100; ++i)
            cache.insert((uint64_t(p) << 32) | i, i, 2, p);

    EXPECT_NE(cache.lookup(0xAAAA, 0, 0), nullptr);
}

INSTANTIATE_TEST_SUITE_P(Partitions, PartitionIsolationTest,
                         ::testing::Values(1, 2, 4, 8));

TEST(SetAssocCache, ExportStatsTracksLiveCounters)
{
    CacheConfig config;
    config.entries = 4;
    config.ways = 2;
    SetAssocCache<int> cache(config);
    stats::StatGroup group("devtlb");
    cache.exportStats(group);

    // Freshly exported: everything reads zero.
    ASSERT_NE(group.find("lookups"), nullptr);
    EXPECT_EQ(group.find("lookups")->value(), 0.0);
    EXPECT_EQ(group.find("miss_rate")->value(), 0.0);

    cache.insert(1, 0, 10);
    cache.lookup(1, 0); // hit
    cache.lookup(2, 0); // miss
    cache.lookup(3, 0); // miss

    // The exported stats follow the cache's own counters exactly —
    // no snapshot to go stale.
    const CacheStats &s = cache.stats();
    EXPECT_EQ(group.find("lookups")->value(),
              static_cast<double>(s.lookups));
    EXPECT_EQ(group.find("hits")->value(),
              static_cast<double>(s.hits));
    EXPECT_EQ(group.find("misses")->value(), 2.0);
    EXPECT_EQ(group.find("miss_rate")->value(), s.missRate());
    EXPECT_EQ(group.find("insertions")->value(), 1.0);
    EXPECT_EQ(group.find("evictions")->value(), 0.0);
    EXPECT_EQ(group.find("invalidations")->value(), 0.0);

    cache.resetStats();
    EXPECT_EQ(group.find("lookups")->value(), 0.0);
}

// ---- Sub-entry sharing ------------------------------------------------

/** 16 entries, 2-way, 8 sets, LRU, `sub` sub-entries per tag. */
CacheConfig
subConfig(size_t sub)
{
    CacheConfig config{16, 2, 1, ReplPolicyKind::LRU, 1};
    config.subEntries = sub;
    return config;
}

/** Key with the domain at bit 40, like both iommu key families. */
uint64_t
tenantKey(uint32_t domain, uint64_t low)
{
    return (uint64_t(domain) << 40) | low;
}

TEST(SetAssocCacheSubEntry, SameLayoutTenantsShareOneWay)
{
    SetAssocCache<int> cache(subConfig(4));
    // Four tenants, identical page identity: one tag, one way.
    for (uint32_t t = 1; t <= 4; ++t)
        EXPECT_FALSE(
            cache.insert(tenantKey(t, 0x1000), 0, int(t)));
    EXPECT_EQ(cache.occupancy(), 4u);
    for (uint32_t t = 1; t <= 4; ++t) {
        int *v = cache.lookup(tenantKey(t, 0x1000), 0);
        ASSERT_NE(v, nullptr);
        EXPECT_EQ(*v, int(t));
    }
    // A second layout still fits the same 2-way set: the four
    // tenants above consumed only one way.
    EXPECT_FALSE(cache.insert(tenantKey(1, 0x2000), 0, 99));
    EXPECT_NE(cache.lookup(tenantKey(1, 0x1000), 0), nullptr);
}

TEST(SetAssocCacheSubEntry, TagHitWrongTenantIsAMiss)
{
    SetAssocCache<int> cache(subConfig(4));
    cache.insert(tenantKey(1, 0x1000), 0, 1);
    // Same shared tag, different tenant: must miss.
    EXPECT_EQ(cache.lookup(tenantKey(2, 0x1000), 0), nullptr);
    EXPECT_EQ(cache.peek(tenantKey(2, 0x1000), 0), nullptr);
    EXPECT_EQ(cache.stats().hits, 0u);
}

TEST(SetAssocCacheSubEntry, SubCapacityEvictsRoundRobin)
{
    SetAssocCache<int> cache(subConfig(2));
    cache.insert(tenantKey(1, 0x1000), 0, 1);
    cache.insert(tenantKey(2, 0x1000), 0, 2);
    // Tag full: tenant 3 evicts sub-slot 0 (tenant 1).
    auto ev = cache.insert(tenantKey(3, 0x1000), 0, 3);
    ASSERT_TRUE(ev.has_value());
    EXPECT_EQ(ev->key, tenantKey(1, 0x1000));
    EXPECT_EQ(ev->value, 1);
    // The cursor advanced: tenant 4 evicts sub-slot 1 (tenant 2).
    ev = cache.insert(tenantKey(4, 0x1000), 0, 4);
    ASSERT_TRUE(ev.has_value());
    EXPECT_EQ(ev->key, tenantKey(2, 0x1000));
    EXPECT_NE(cache.lookup(tenantKey(3, 0x1000), 0), nullptr);
    EXPECT_NE(cache.lookup(tenantKey(4, 0x1000), 0), nullptr);
    EXPECT_EQ(cache.occupancy(), 2u);
}

TEST(SetAssocCacheSubEntry, WholeTagEvictionTakesEveryTenant)
{
    SetAssocCache<int> cache(subConfig(4)); // 2-way sets
    // Tag A carries two tenants, tag B one; the set is now full.
    cache.insert(tenantKey(1, 0x1000), 0, 11);
    cache.insert(tenantKey(2, 0x1000), 0, 12);
    cache.insert(tenantKey(3, 0x2000), 0, 23);
    // A third layout needs a way: LRU picks tag A, and the eviction
    // names a representative tenant behind it.
    auto ev = cache.insert(tenantKey(4, 0x3000), 0, 34);
    ASSERT_TRUE(ev.has_value());
    EXPECT_EQ(subEntrySharedKey(ev->key), 0x1000u);
    EXPECT_EQ(cache.lookup(tenantKey(1, 0x1000), 0), nullptr);
    EXPECT_EQ(cache.lookup(tenantKey(2, 0x1000), 0), nullptr);
    EXPECT_NE(cache.lookup(tenantKey(3, 0x2000), 0), nullptr);
    EXPECT_NE(cache.lookup(tenantKey(4, 0x3000), 0), nullptr);
    EXPECT_EQ(cache.occupancy(), 2u);
}

TEST(SetAssocCacheSubEntry, LastInvalidateFreesTheWay)
{
    SetAssocCache<int> cache(subConfig(4)); // 2-way sets
    cache.insert(tenantKey(1, 0x1000), 0, 1);
    cache.insert(tenantKey(2, 0x1000), 0, 2);
    EXPECT_TRUE(cache.invalidate(tenantKey(1, 0x1000), 0));
    // The tag survives while a tenant remains.
    EXPECT_NE(cache.lookup(tenantKey(2, 0x1000), 0), nullptr);
    EXPECT_TRUE(cache.invalidate(tenantKey(2, 0x1000), 0));
    EXPECT_EQ(cache.occupancy(), 0u);
    EXPECT_EQ(cache.stats().invalidations, 2u);
    // Both ways are free again: two new tags fit with no eviction.
    EXPECT_FALSE(cache.insert(tenantKey(5, 0x4000), 0, 5));
    EXPECT_FALSE(cache.insert(tenantKey(6, 0x5000), 0, 6));
    EXPECT_EQ(cache.stats().evictions, 0u);
}

TEST(SetAssocCacheSubEntry, UpdateInPlaceAndFlush)
{
    SetAssocCache<int> cache(subConfig(2));
    cache.insert(tenantKey(1, 0x1000), 0, 1);
    cache.insert(tenantKey(2, 0x1000), 0, 2);
    EXPECT_FALSE(cache.insert(tenantKey(1, 0x1000), 0, 10));
    EXPECT_EQ(*cache.lookup(tenantKey(1, 0x1000), 0), 10);
    EXPECT_EQ(cache.stats().insertions, 2u);

    size_t visited = 0;
    cache.forEach([&](uint64_t, const int &, size_t, size_t) {
        ++visited;
    });
    EXPECT_EQ(visited, 2u);

    cache.flush();
    EXPECT_EQ(cache.occupancy(), 0u);
    EXPECT_EQ(cache.stats().invalidations, 2u);
    EXPECT_EQ(cache.lookup(tenantKey(1, 0x1000), 0), nullptr);
}

TEST(SetAssocCacheSubEntry, SingleSubEntryMatchesClassicExactly)
{
    // subEntries == 1 must take the classic paths bit-for-bit.
    SetAssocCache<int> classic(smallConfig());
    SetAssocCache<int> sub1(subConfig(1));
    Rng rng(7);
    for (int i = 0; i < 2000; ++i) {
        const uint64_t key =
            tenantKey(uint32_t(rng.next() % 4), rng.next() % 32);
        const uint64_t index = key % 32;
        switch (rng.next() % 3) {
          case 0: {
            auto a = classic.insert(key, index, int(i));
            auto b = sub1.insert(key, index, int(i));
            ASSERT_EQ(a.has_value(), b.has_value());
            if (a) {
                ASSERT_EQ(a->key, b->key);
            }
            break;
          }
          case 1: {
            int *a = classic.lookup(key, index);
            int *b = sub1.lookup(key, index);
            ASSERT_EQ(a == nullptr, b == nullptr);
            if (a) {
                ASSERT_EQ(*a, *b);
            }
            break;
          }
          default:
            ASSERT_EQ(classic.invalidate(key, index),
                      sub1.invalidate(key, index));
        }
    }
    EXPECT_EQ(classic.stats().lookups, sub1.stats().lookups);
    EXPECT_EQ(classic.stats().hits, sub1.stats().hits);
    EXPECT_EQ(classic.stats().evictions, sub1.stats().evictions);
    EXPECT_EQ(classic.occupancy(), sub1.occupancy());
}

TEST(SetAssocCacheSubEntry, HashedIndexCoIndexesSharedLayouts)
{
    CacheConfig config = subConfig(4);
    config.hashIndex = true;
    SetAssocCache<int> cache(config);
    // With hashed indexing the *shared* key picks the set, so
    // same-layout tenants land in the same row and share its tag:
    // four tenants, one way consumed.
    for (uint32_t t = 1; t <= 4; ++t)
        cache.insert(tenantKey(t, 0x7000), 0x7000, int(t));
    EXPECT_EQ(cache.occupancy(), 4u);
    size_t sets_seen = 0, last_set = 0;
    cache.forEach([&](uint64_t, const int &, size_t set, size_t) {
        if (sets_seen == 0 || set == last_set)
            last_set = set;
        ++sets_seen;
        EXPECT_EQ(set, last_set);
    });
    EXPECT_EQ(sets_seen, 4u);
}

// ---- Eviction order, pinned per policy -------------------------------

/** A policy x sub-entry width and the eviction-sequence hash it
 *  must reproduce. */
struct EvictionCase
{
    const char *name;
    ReplPolicyKind policy;
    size_t subEntries;
    uint64_t hash;
};

void
PrintTo(const EvictionCase &c, std::ostream *os)
{
    *os << c.name;
}

class EvictionSequenceTest
    : public ::testing::TestWithParam<EvictionCase>
{};

/**
 * Replays one skewed multi-tenant access stream (lookup, fill on
 * miss, every 29th access an invalidate) through a partitioned
 * 4-way cache and hashes every eviction it reports plus the final
 * counters. Six tenants share one page layout, so sub-entry tags
 * fill up and whole tags get evicted. The pinned hashes were
 * measured on the scan-based policies that preceded the rank-word
 * layout; any change to which way a policy evicts moves them.
 */
TEST_P(EvictionSequenceTest, MatchesPinnedHash)
{
    const EvictionCase &c = GetParam();
    Rng rng(2024);
    std::vector<uint64_t> seq;
    for (int i = 0; i < 20000; ++i) {
        const uint64_t page =
            rng.below(8) == 0 ? rng.below(256) : rng.below(24);
        seq.push_back(tenantKey(uint32_t(rng.below(6)), page));
    }
    OracleFeed feed(seq);
    CacheConfig config{64, 4, 2, c.policy, 3};
    config.subEntries = c.subEntries;
    auto cache = c.policy == ReplPolicyKind::Oracle
                     ? SetAssocCache<uint64_t>(
                           config, std::make_unique<OraclePolicy>(feed))
                     : SetAssocCache<uint64_t>(config);

    uint64_t hash = 0xcbf29ce484222325ull;
    auto mix = [&hash](uint64_t word) {
        hash = (hash ^ word) * 0x100000001b3ull;
    };
    for (size_t i = 0; i < seq.size(); ++i) {
        feed.advance();
        const uint64_t key = seq[i];
        const uint32_t partition = uint32_t(key >> 40);
        if (i % 29 == 28) {
            cache.invalidate(key, key, partition);
            continue;
        }
        if (cache.lookup(key, key, partition))
            continue;
        if (auto evicted = cache.insert(key, key, i, partition)) {
            mix(evicted->key);
            mix(evicted->value);
        }
    }
    mix(cache.stats().hits);
    mix(cache.stats().evictions);
    mix(cache.occupancy());
    EXPECT_GT(cache.stats().evictions, 1000u);
    EXPECT_EQ(hash, c.hash) << std::hex << "0x" << hash;
}

INSTANTIATE_TEST_SUITE_P(
    Policies, EvictionSequenceTest,
    ::testing::Values(
        EvictionCase{"lru_sub1", ReplPolicyKind::LRU, 1,
                     0x19768fb9e75295a6ull},
        EvictionCase{"lru_sub4", ReplPolicyKind::LRU, 4,
                     0xa5ce6ae2f5771a84ull},
        EvictionCase{"lfu_sub1", ReplPolicyKind::LFU, 1,
                     0x1cde33cd620e024dull},
        EvictionCase{"lfu_sub4", ReplPolicyKind::LFU, 4,
                     0x9ac27bc50c4afee4ull},
        EvictionCase{"fifo_sub1", ReplPolicyKind::FIFO, 1,
                     0x0231a51ea0d7afe2ull},
        EvictionCase{"fifo_sub4", ReplPolicyKind::FIFO, 4,
                     0xb0f099b390d6e5b4ull},
        EvictionCase{"random_sub1", ReplPolicyKind::Random, 1,
                     0xc1d6064f226dbf37ull},
        EvictionCase{"random_sub4", ReplPolicyKind::Random, 4,
                     0x941a2e3d0486a3ddull},
        EvictionCase{"oracle_sub1", ReplPolicyKind::Oracle, 1,
                     0x5f424e582ed8143dull}),
    [](const ::testing::TestParamInfo<EvictionCase> &info) {
        return std::string(info.param.name);
    });

} // namespace
} // namespace hypersio::cache
