/**
 * Unit tests for util::FlatMap, the open-addressing map backing the
 * translation hot path (page tables, page-table directory, MSHR,
 * chipset history, SID predictor).
 *
 * The tricky behaviors are all around deletion: FlatMap erases by
 * backward-shifting the tail of the probe chain instead of leaving a
 * tombstone, and that shift must handle chains that wrap around the
 * end of the power-of-two table. The tests below construct such
 * chains deliberately (by replicating the bucket function and
 * searching for keys that land in the last slots), then hammer the
 * map with a randomized differential test against
 * std::unordered_map.
 */

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

#include "util/flat_map.hh"
#include "util/rng.hh"

namespace hypersio
{
namespace
{

using util::FlatMap;

TEST(FlatMap, EmptyMapBehaves)
{
    FlatMap<uint64_t, int> map;
    EXPECT_EQ(map.size(), 0u);
    EXPECT_TRUE(map.empty());
    EXPECT_EQ(map.find(0), nullptr);
    EXPECT_EQ(map.find(42), nullptr);
    EXPECT_FALSE(map.contains(42));
    EXPECT_FALSE(map.erase(42));
    map.clear(); // no-op, must not crash
    EXPECT_EQ(map.size(), 0u);
}

TEST(FlatMap, InsertFindOverwrite)
{
    FlatMap<uint64_t, uint64_t> map;
    EXPECT_TRUE(map.insert(7, 70));
    EXPECT_TRUE(map.insert(8, 80));
    EXPECT_FALSE(map.insert(7, 700)); // overwrite, not a new entry
    EXPECT_EQ(map.size(), 2u);
    ASSERT_NE(map.find(7), nullptr);
    EXPECT_EQ(*map.find(7), 700u);
    ASSERT_NE(map.find(8), nullptr);
    EXPECT_EQ(*map.find(8), 80u);
    EXPECT_EQ(map.find(9), nullptr);

    map[9] = 90; // operator[] default-constructs then assigns
    EXPECT_EQ(map.size(), 3u);
    EXPECT_EQ(map[9], 90u);

    auto [value, inserted] = map.tryEmplace(9);
    EXPECT_FALSE(inserted);
    EXPECT_EQ(*value, 90u);
}

TEST(FlatMap, EnumKeys)
{
    enum class Id : uint32_t { A = 1, B = 2, C = 0xffffffff };
    FlatMap<Id, int> map;
    map[Id::A] = 1;
    map[Id::C] = 3;
    EXPECT_TRUE(map.contains(Id::A));
    EXPECT_FALSE(map.contains(Id::B));
    EXPECT_EQ(map[Id::C], 3);
}

/**
 * Replicates the flat implementation's bucket function so tests can
 * pick keys by home slot. Kept in sync with FlatMap::mix/the bucket
 * shift by the WrapAround tests themselves: they assert the chosen
 * keys actually collide by observing probe behavior.
 */
size_t
homeSlot(uint64_t key, size_t capacity)
{
    const uint64_t h = key * 0x9E3779B97F4A7C15ull;
    return h >> (std::countl_zero(capacity) + 1);
}

/** Finds `n` distinct keys whose home slot is >= `min_slot` in a
 *  `capacity`-slot table, so their probe chain wraps past slot 0. */
std::vector<uint64_t>
keysNearTableEnd(size_t n, size_t capacity, size_t min_slot)
{
    std::vector<uint64_t> keys;
    for (uint64_t key = 1; keys.size() < n; ++key) {
        if (homeSlot(key, capacity) >= min_slot)
            keys.push_back(key);
    }
    return keys;
}

TEST(FlatMap, CollisionChainWrapsAroundTable)
{
    // A fresh map allocates 64 slots and grows at 16 entries, so 12
    // keys homed in the last three slots force a probe chain that
    // wraps through slot 0 without triggering a rehash.
    FlatMap<uint64_t, uint64_t> map;
    map.reserve(1);
    ASSERT_EQ(map.capacity(), 64u);
    const auto keys = keysNearTableEnd(12, 64, 61);
    for (const uint64_t key : keys)
        map[key] = key * 3;
    ASSERT_EQ(map.capacity(), 64u) << "test assumes no rehash";
    for (const uint64_t key : keys) {
        ASSERT_NE(map.find(key), nullptr) << "key " << key;
        EXPECT_EQ(*map.find(key), key * 3);
    }
}

TEST(FlatMap, BackwardShiftEraseAcrossWrapAround)
{
    // Erase from the middle of a wrapped chain, in several orders;
    // every survivor must stay findable after every single erase.
    for (size_t victim = 0; victim < 12; ++victim) {
        FlatMap<uint64_t, uint64_t> map;
        const auto keys = keysNearTableEnd(12, 64, 61);
        for (const uint64_t key : keys)
            map[key] = key + 1;
        ASSERT_TRUE(map.erase(keys[victim]));
        EXPECT_FALSE(map.contains(keys[victim]));
        EXPECT_FALSE(map.erase(keys[victim])) << "double erase";
        for (size_t i = 0; i < keys.size(); ++i) {
            if (i == victim)
                continue;
            ASSERT_NE(map.find(keys[i]), nullptr)
                << "lost key " << keys[i] << " after erasing "
                << keys[victim];
            EXPECT_EQ(*map.find(keys[i]), keys[i] + 1);
        }
        EXPECT_EQ(map.size(), keys.size() - 1);
    }
}

TEST(FlatMap, ReserveDoesNotInvalidatePointers)
{
    FlatMap<uint64_t, uint64_t> map;
    map.reserve(1000);
    const size_t capacity = map.capacity();
    std::vector<uint64_t *> pointers;
    for (uint64_t key = 0; key < 1000; ++key) {
        auto [value, inserted] = map.tryEmplace(key);
        ASSERT_TRUE(inserted);
        *value = key ^ 0x5aa5;
        pointers.push_back(value);
    }
    // No rehash happened, so every pointer handed out is still the
    // live slot for its key.
    EXPECT_EQ(map.capacity(), capacity);
    for (uint64_t key = 0; key < 1000; ++key) {
        EXPECT_EQ(pointers[key], map.find(key));
        EXPECT_EQ(*pointers[key], key ^ 0x5aa5);
    }
}

TEST(FlatMap, RehashPreservesAllEntries)
{
    // Grow through many rehashes; every key must survive with its
    // value intact and size must track exactly.
    FlatMap<uint64_t, uint64_t> map;
    constexpr uint64_t N = 20000;
    for (uint64_t key = 0; key < N; ++key) {
        map[key * 0x10001] = key; // spread keys, not dense
        ASSERT_EQ(map.size(), key + 1);
    }
    for (uint64_t key = 0; key < N; ++key) {
        const uint64_t *value = map.find(key * 0x10001);
        ASSERT_NE(value, nullptr) << "key index " << key;
        EXPECT_EQ(*value, key);
    }
    uint64_t visited = 0, sum = 0;
    map.forEach([&](uint64_t, uint64_t &value) {
        ++visited;
        sum += value;
    });
    EXPECT_EQ(visited, N);
    EXPECT_EQ(sum, N * (N - 1) / 2);
}

TEST(FlatMap, EraseThenReinsert)
{
    FlatMap<uint32_t, int> map;
    for (uint32_t key = 0; key < 500; ++key)
        map[key] = int(key);
    for (uint32_t key = 0; key < 500; key += 2)
        ASSERT_TRUE(map.erase(key));
    EXPECT_EQ(map.size(), 250u);
    for (uint32_t key = 0; key < 500; key += 2) {
        EXPECT_FALSE(map.contains(key));
        map[key] = int(key) + 1000; // reinsert with a new value
    }
    EXPECT_EQ(map.size(), 500u);
    for (uint32_t key = 0; key < 500; ++key) {
        ASSERT_TRUE(map.contains(key));
        EXPECT_EQ(map[key],
                  (key % 2 == 0) ? int(key) + 1000 : int(key));
    }
}

TEST(FlatMap, ClearKeepsWorking)
{
    FlatMap<uint64_t, uint64_t> map;
    for (uint64_t key = 0; key < 100; ++key)
        map[key] = key;
    map.clear();
    EXPECT_EQ(map.size(), 0u);
    for (uint64_t key = 0; key < 100; ++key)
        EXPECT_FALSE(map.contains(key));
    map[7] = 70;
    EXPECT_EQ(map.size(), 1u);
    EXPECT_EQ(map[7], 70u);
}

TEST(FlatMap, NonTrivialValuesReleaseOnErase)
{
    // The vacated slot must not keep the old value's resources
    // alive: erase assigns V() into it eagerly.
    FlatMap<uint32_t, std::shared_ptr<int>> map;
    std::weak_ptr<int> watch;
    {
        auto owned = std::make_shared<int>(123);
        watch = owned;
        map[5] = std::move(owned);
    }
    EXPECT_FALSE(watch.expired());
    ASSERT_TRUE(map.erase(5));
    EXPECT_TRUE(watch.expired());

    // Same through clear().
    auto owned = std::make_shared<int>(9);
    watch = owned;
    map[6] = std::move(owned);
    map.clear();
    EXPECT_TRUE(watch.expired());
}

TEST(FlatMap, ExtractMovesValueOutAndErases)
{
    FlatMap<uint32_t, std::shared_ptr<int>> map;
    map[5] = std::make_shared<int>(123);
    std::weak_ptr<int> watch = *map.find(5);

    std::shared_ptr<int> out;
    ASSERT_TRUE(map.extract(5, out));
    EXPECT_EQ(map.size(), 0u);
    EXPECT_FALSE(map.contains(5));
    // The value survived the erase — moved, not destroyed.
    ASSERT_NE(out, nullptr);
    EXPECT_EQ(*out, 123);
    EXPECT_FALSE(watch.expired());
    out.reset();
    EXPECT_TRUE(watch.expired());

    // Absent key: reports false and leaves `out` alone.
    std::shared_ptr<int> untouched = std::make_shared<int>(7);
    EXPECT_FALSE(map.extract(5, untouched));
    ASSERT_NE(untouched, nullptr);
    EXPECT_EQ(*untouched, 7);
}

TEST(FlatMap, ExtractPreservesProbeChains)
{
    // Extract must backward-shift exactly like erase: fill a map,
    // extract half, and verify every survivor is still reachable.
    FlatMap<uint64_t, uint64_t> map;
    for (uint64_t key = 1; key <= 300; ++key)
        map[key << 12] = key;
    for (uint64_t key = 1; key <= 300; key += 2) {
        uint64_t out = 0;
        ASSERT_TRUE(map.extract(key << 12, out));
        EXPECT_EQ(out, key);
    }
    EXPECT_EQ(map.size(), 150u);
    for (uint64_t key = 2; key <= 300; key += 2) {
        const uint64_t *value = map.find(key << 12);
        ASSERT_NE(value, nullptr) << "lost key " << (key << 12);
        EXPECT_EQ(*value, key);
    }
}

/**
 * Randomized differential test: a long mixed insert/erase/lookup
 * workload replayed against std::unordered_map. Catches anything the
 * targeted tests above miss (erase interacting with rehash,
 * wrap-around chains at larger capacities, ...). Deterministic seeds
 * so a failure reproduces.
 */
TEST(FlatMap, RandomizedDifferentialVsStdUnorderedMap)
{
    for (const uint64_t seed : {1ull, 2026ull, 0xfeedull}) {
        Rng rng(seed);
        FlatMap<uint64_t, uint64_t> flat;
        std::unordered_map<uint64_t, uint64_t> ref;
        // A small key universe keeps the hit rate high so erases and
        // overwrites actually land on live entries.
        const uint64_t universe = 1 + rng.below(2000);
        for (int step = 0; step < 50000; ++step) {
            const uint64_t key = rng.below(universe);
            switch (rng.below(5)) {
            case 0:
            case 1: { // insert/overwrite
                const uint64_t value = rng.next();
                flat[key] = value;
                ref[key] = value;
                break;
            }
            case 2: // erase
                EXPECT_EQ(flat.erase(key), ref.erase(key) != 0);
                break;
            case 3: { // tryEmplace (insert-if-absent)
                auto [value, inserted] = flat.tryEmplace(key);
                auto [it, ref_inserted] = ref.try_emplace(key, 0);
                ASSERT_EQ(inserted, ref_inserted);
                ASSERT_EQ(*value, it->second);
                break;
            }
            default: { // lookup
                const uint64_t *value = flat.find(key);
                auto it = ref.find(key);
                ASSERT_EQ(value != nullptr, it != ref.end());
                if (value) {
                    ASSERT_EQ(*value, it->second);
                }
                break;
            }
            }
            ASSERT_EQ(flat.size(), ref.size()) << "step " << step;
        }
        // Full sweep both directions.
        size_t visited = 0;
        flat.forEach([&](uint64_t key, uint64_t &value) {
            ++visited;
            auto it = ref.find(key);
            ASSERT_NE(it, ref.end()) << "stray key " << key;
            EXPECT_EQ(value, it->second);
        });
        EXPECT_EQ(visited, ref.size());
        for (const auto &[key, value] : ref) {
            const uint64_t *flat_value = flat.find(key);
            ASSERT_NE(flat_value, nullptr) << "lost key " << key;
            EXPECT_EQ(*flat_value, value);
        }
    }
}

} // namespace
} // namespace hypersio
