/** Differential tests for the group-probe backends: the vector
 *  backend compiled for this target must match the scalar reference
 *  bit for bit — on raw masks and through both consumers (FlatMap,
 *  SetAssocCache). */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <unordered_map>
#include <utility>
#include <vector>

#include "cache/set_assoc_cache.hh"
#include "util/flat_map.hh"
#include "util/rng.hh"
#include "util/simd.hh"

namespace hypersio::util::simd
{
namespace
{

using Group = uint8_t[GroupWidth];

void
expectMasksAgree(const uint8_t *group, uint8_t needle)
{
    EXPECT_EQ(ScalarGroupOps::matchMask(group, needle),
              VectorGroupOps::matchMask(group, needle))
        << "needle " << unsigned(needle);
    EXPECT_EQ(ScalarGroupOps::zeroMask(group),
              VectorGroupOps::zeroMask(group));
}

TEST(GroupOps, MasksAgreeOnEdgePatterns)
{
    Group group;
    std::memset(group, 0, sizeof(group));
    expectMasksAgree(group, 0);    // all lanes zero: full masks
    expectMasksAgree(group, 0x80); // no lane matches

    std::memset(group, 0xa5, sizeof(group));
    expectMasksAgree(group, 0xa5); // all lanes match
    expectMasksAgree(group, 0);    // no lane zero

    // One hot lane at each position, with the sign bit set (tags
    // always carry bit 7 — the movemask path reads exactly that bit).
    for (size_t i = 0; i < GroupWidth; ++i) {
        std::memset(group, 0x01, sizeof(group));
        group[i] = 0xff;
        expectMasksAgree(group, 0xff);
        expectMasksAgree(group, 0x01);
    }
}

TEST(GroupOps, MasksAgreeOnRandomGroups)
{
    Rng rng(0x51D5);
    Group group;
    for (int round = 0; round < 10000; ++round) {
        for (auto &lane : group)
            lane = static_cast<uint8_t>(rng.below(256));
        expectMasksAgree(group,
                         static_cast<uint8_t>(rng.below(256)));
        // Also probe for a byte that definitely occurs.
        expectMasksAgree(group, group[rng.below(GroupWidth)]);
    }
}

TEST(GroupOps, MatchMaskBitPositionsAreLaneIndices)
{
    Group group;
    std::memset(group, 0, sizeof(group));
    group[3] = 0x9c;
    group[11] = 0x9c;
    const uint32_t expect = (1u << 3) | (1u << 11);
    EXPECT_EQ(ScalarGroupOps::matchMask(group, 0x9c), expect);
    EXPECT_EQ(VectorGroupOps::matchMask(group, 0x9c), expect);
}

/**
 * Drives two FlatMap instantiations (scalar vs vector probes)
 * through an identical randomized insert/find/erase storm and
 * asserts identical *layouts*: forEach walks the slot array in
 * order, so equal (key, value) sequences mean every entry sits in
 * the same physical slot under both backends.
 */
TEST(GroupOps, FlatMapLayoutIsBackendIndependent)
{
    FlatMap<uint64_t, uint64_t, ScalarGroupOps> scalar;
    FlatMap<uint64_t, uint64_t, VectorGroupOps> vector;
    Rng rng(99);
    // Page-base-shaped keys (zero low bits) from a small universe so
    // erases hit often and probe chains actually form.
    auto key = [&] { return (rng.below(4096) + 1) << 12; };
    for (int op = 0; op < 200000; ++op) {
        const uint64_t k = key();
        switch (rng.below(4)) {
          case 0:
          case 1: {
            const uint64_t v = rng.next();
            EXPECT_EQ(scalar.insert(k, v), vector.insert(k, v));
            break;
          }
          case 2: {
            uint64_t *sv = scalar.find(k);
            uint64_t *vv = vector.find(k);
            ASSERT_EQ(sv == nullptr, vv == nullptr);
            if (sv)
                EXPECT_EQ(*sv, *vv);
            break;
          }
          default:
            EXPECT_EQ(scalar.erase(k), vector.erase(k));
        }
    }
    ASSERT_EQ(scalar.size(), vector.size());
    ASSERT_EQ(scalar.capacity(), vector.capacity());

    std::vector<std::pair<uint64_t, uint64_t>> s_walk, v_walk;
    scalar.forEach(
        [&](uint64_t k, uint64_t v) { s_walk.emplace_back(k, v); });
    vector.forEach(
        [&](uint64_t k, uint64_t v) { v_walk.emplace_back(k, v); });
    EXPECT_EQ(s_walk, v_walk);
}

/**
 * Randomized differential against std::unordered_map at hyperscale
 * capacity: >= 2^18 slots puts the bucket index in bits 46+, the
 * territory where the old bits-40..47 tag overlapped the index and
 * silently degraded every probe (the tag became a function of the
 * bucket, rejecting nothing). Growth to that size plus full
 * teardown exercises tagOf at every capacity on the way up.
 */
TEST(GroupOps, FlatMapMatchesUnorderedMapAtLargeCapacity)
{
    FlatMap<uint64_t, uint64_t> map;
    std::unordered_map<uint64_t, uint64_t> ref;
    Rng rng(0xCAFE);
    // Mostly inserts so the table genuinely grows past 2^17 slots.
    for (int op = 0; op < 300000; ++op) {
        const uint64_t k = (rng.below(1u << 20)) << 12;
        if (rng.below(8) == 0) {
            EXPECT_EQ(map.erase(k), ref.erase(k) != 0);
        } else {
            const uint64_t v = rng.next();
            map.insert(k, v);
            ref[k] = v;
        }
    }
    ASSERT_EQ(map.size(), ref.size());
    // The whole point of this size is to reach bucket bits >= 2^18.
    ASSERT_GE(map.capacity(), size_t{1} << 18);
    size_t walked = 0;
    map.forEach([&](uint64_t k, uint64_t v) {
        auto it = ref.find(k);
        ASSERT_NE(it, ref.end());
        EXPECT_EQ(it->second, v);
        ++walked;
    });
    EXPECT_EQ(walked, ref.size());
    // Spot-check misses too: keys the reference lacks must miss.
    for (int i = 0; i < 10000; ++i) {
        const uint64_t k = ((rng.below(1u << 20)) << 12) | 0x800;
        EXPECT_EQ(map.find(k), nullptr) << std::hex << k;
    }
}

/**
 * Same storm through two SetAssocCache instantiations: hit/miss
 * decisions come from the tag-row group scan, so stats and contents
 * must be identical under both backends.
 */
TEST(GroupOps, SetAssocCacheBehavesIdenticallyAcrossBackends)
{
    cache::CacheConfig config;
    config.entries = 256;
    config.ways = 8;
    config.policy = cache::ReplPolicyKind::LRU;
    cache::SetAssocCache<uint64_t, ScalarGroupOps> scalar(config);
    cache::SetAssocCache<uint64_t, VectorGroupOps> vector(config);

    Rng rng(7);
    for (int op = 0; op < 100000; ++op) {
        const uint64_t key = rng.below(2048) << 12;
        const uint64_t index = key >> 12;
        if (rng.below(3) == 0) {
            const uint64_t value = rng.next();
            auto se = scalar.insert(key, index, value);
            auto ve = vector.insert(key, index, value);
            ASSERT_EQ(se.has_value(), ve.has_value());
            if (se) {
                EXPECT_EQ(se->key, ve->key);
                EXPECT_EQ(se->value, ve->value);
            }
        } else {
            uint64_t *sv = scalar.lookup(key, index);
            uint64_t *vv = vector.lookup(key, index);
            ASSERT_EQ(sv == nullptr, vv == nullptr);
            if (sv)
                EXPECT_EQ(*sv, *vv);
        }
    }
    EXPECT_EQ(scalar.stats().hits, vector.stats().hits);
    EXPECT_EQ(scalar.stats().lookups, vector.stats().lookups);
    EXPECT_EQ(scalar.stats().insertions, vector.stats().insertions);
    EXPECT_EQ(scalar.stats().evictions, vector.stats().evictions);
}

} // namespace
} // namespace hypersio::util::simd
