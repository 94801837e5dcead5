/** Unit tests for the replacement policies: LRU, LFU (4-bit counters,
 *  halve-on-saturate, LRU tie-break), FIFO, Random, and the Belady
 *  oracle with its future-knowledge feed. */

#include <gtest/gtest.h>

#include <numeric>

#include "cache/oracle_feed.hh"
#include "cache/replacement.hh"
#include "cache/set_assoc_cache.hh"

namespace hypersio::cache
{
namespace
{

TEST(ParsePolicy, AcceptsKnownNames)
{
    const auto parsed = [](const char *name) {
        ReplPolicyKind kind{};
        EXPECT_TRUE(parseReplPolicy(name, kind)) << name;
        return kind;
    };
    EXPECT_EQ(parsed("lru"), ReplPolicyKind::LRU);
    EXPECT_EQ(parsed("LFU"), ReplPolicyKind::LFU);
    EXPECT_EQ(parsed("fifo"), ReplPolicyKind::FIFO);
    EXPECT_EQ(parsed("random"), ReplPolicyKind::Random);
    EXPECT_EQ(parsed("belady"), ReplPolicyKind::Oracle);
    ReplPolicyKind kind = ReplPolicyKind::LFU;
    EXPECT_FALSE(parseReplPolicy("mru", kind));
    EXPECT_EQ(kind, ReplPolicyKind::LFU);
    EXPECT_STREQ(replPolicyName(ReplPolicyKind::LFU), "lfu");
}

TEST(LruPolicy, EvictsLeastRecentlyUsed)
{
    LruPolicy lru;
    lru.init(1, 3);
    lru.insert(0, 0, 100);
    lru.insert(0, 1, 101);
    lru.insert(0, 2, 102);
    lru.touch(0, 0, 100); // way 0 is now most recent
    uint64_t keys[3] = {100, 101, 102};
    EXPECT_EQ(lru.victim(0, keys), 1u);
}

TEST(LruPolicy, ResetForgetsRecency)
{
    LruPolicy lru;
    lru.init(1, 2);
    lru.insert(0, 0, 1);
    lru.insert(0, 1, 2);
    lru.reset();
    lru.insert(0, 1, 3);
    uint64_t keys[2] = {1, 3};
    EXPECT_EQ(lru.victim(0, keys), 0u);
}

TEST(LfuPolicy, EvictsLeastFrequentlyUsed)
{
    LfuPolicy lfu;
    lfu.init(1, 2);
    lfu.insert(0, 0, 1);
    lfu.insert(0, 1, 2);
    lfu.touch(0, 0, 1);
    lfu.touch(0, 0, 1); // way 0 count 3, way 1 count 1
    uint64_t keys[2] = {1, 2};
    EXPECT_EQ(lfu.victim(0, keys), 1u);
}

TEST(LfuPolicy, CounterSaturatesAndHalvesRow)
{
    LfuPolicy lfu(4); // max count 15
    lfu.init(1, 2);
    lfu.insert(0, 0, 1); // count 1
    lfu.insert(0, 1, 2); // count 1
    for (int i = 0; i < 14; ++i)
        lfu.touch(0, 0, 1); // way 0 reaches 15
    EXPECT_EQ(lfu.counter(0, 0), 15u);
    EXPECT_EQ(lfu.counter(0, 1), 1u);
    // Next touch saturates: the whole row halves, then increments.
    lfu.touch(0, 0, 1);
    EXPECT_EQ(lfu.counter(0, 0), 8u); // 15/2 + 1
    EXPECT_EQ(lfu.counter(0, 1), 0u); // 1/2
}

TEST(LfuPolicy, TieBreaksByRecency)
{
    // Both ways at count 1; the older one must be the victim, so a
    // stale entry cannot pin its way against fresh insertions.
    LfuPolicy lfu;
    lfu.init(1, 2);
    lfu.insert(0, 0, 1); // older
    lfu.insert(0, 1, 2); // newer
    uint64_t keys[2] = {1, 2};
    EXPECT_EQ(lfu.victim(0, keys), 0u);
}

TEST(LfuPolicy, HotEntrySurvivesChurn)
{
    // A frequently touched entry must survive a stream of one-shot
    // insertions through the same set.
    CacheConfig config{4, 4, 1, ReplPolicyKind::LFU, 1};
    SetAssocCache<int> cache(config);
    cache.insert(0, 0, 1); // the hot key
    for (int round = 0; round < 50; ++round) {
        cache.lookup(0, 0); // keep it hot
        cache.insert(1000 + round, 0, 2);
    }
    EXPECT_NE(cache.lookup(0, 0), nullptr);
}

TEST(FifoPolicy, EvictsOldestInsertion)
{
    FifoPolicy fifo;
    fifo.init(1, 3);
    fifo.insert(0, 2, 102);
    fifo.insert(0, 0, 100);
    fifo.insert(0, 1, 101);
    fifo.touch(0, 2, 102); // touches do not matter for FIFO
    uint64_t keys[3] = {100, 101, 102};
    EXPECT_EQ(fifo.victim(0, keys), 2u);
}

TEST(RandomPolicy, DeterministicFromSeedAndInRange)
{
    RandomPolicy a(5);
    RandomPolicy b(5);
    a.init(1, 4);
    b.init(1, 4);
    uint64_t keys[4] = {};
    for (int i = 0; i < 100; ++i) {
        size_t va = a.victim(0, keys);
        size_t vb = b.victim(0, keys);
        EXPECT_EQ(va, vb);
        EXPECT_LT(va, 4u);
    }
}

TEST(OracleFeed, NextUseTracksCursor)
{
    // Sequence: A B A C B
    OracleFeed feed({10, 20, 10, 30, 20});
    feed.advance(); // position 1, current access = index 0 (A)
    EXPECT_EQ(feed.nextUse(10), 2u);
    EXPECT_EQ(feed.nextUse(20), 1u);
    EXPECT_EQ(feed.nextUse(30), 3u);
    feed.advance(); // index 1 (B)
    feed.advance(); // index 2 (A)
    EXPECT_EQ(feed.nextUse(10), UINT64_MAX); // A never used again
    EXPECT_EQ(feed.nextUse(20), 4u);
    EXPECT_EQ(feed.nextUse(99), UINT64_MAX); // unknown key
}

TEST(OracleFeed, RewindRestartsCursor)
{
    OracleFeed feed({1, 2, 1});
    feed.advance();
    feed.advance();
    feed.advance();
    EXPECT_EQ(feed.nextUse(1), UINT64_MAX);
    feed.rewind();
    feed.advance();
    EXPECT_EQ(feed.nextUse(1), 2u);
}

TEST(OraclePolicy, EvictsFurthestFutureUse)
{
    OracleFeed feed({10, 20, 30, 10, 20}); // 30 used furthest... never
    feed.advance();                        // at index 0
    OraclePolicy oracle(feed);
    oracle.init(1, 3);
    uint64_t keys[3] = {10, 20, 30};
    // nextUse at index 0: 10 → 3, 20 → 1, 30 → 2; the furthest
    // future use (key 10, way 0) is the victim.
    EXPECT_EQ(oracle.victim(0, keys), 0u);
    feed.advance(); // index 1
    feed.advance(); // index 2
    feed.advance(); // index 3: keys 10 and 30 are both dead (never
                    // used again); key 20 (way 1) has a future use
                    // and must never be the victim.
    EXPECT_NE(oracle.victim(0, keys), 1u);
}

TEST(OraclePolicy, BeladyBeatsLruOnAdversarialPattern)
{
    // Cyclic pattern over N+1 distinct keys with an N-entry fully
    // associative cache: LRU misses every access; Belady does not.
    const size_t entries = 4;
    std::vector<uint64_t> seq;
    for (int round = 0; round < 50; ++round)
        for (uint64_t k = 0; k < entries + 1; ++k)
            seq.push_back(k);

    auto run = [&](bool use_oracle) {
        OracleFeed feed(seq);
        CacheConfig config{entries, entries, 1,
                           use_oracle ? ReplPolicyKind::Oracle
                                      : ReplPolicyKind::LRU,
                           1};
        auto cache =
            use_oracle
                ? SetAssocCache<int>(
                      config, std::make_unique<OraclePolicy>(feed))
                : SetAssocCache<int>(config);
        for (uint64_t key : seq) {
            feed.advance();
            if (!cache.lookup(key, 0))
                cache.insert(key, 0, 1);
        }
        return cache.stats().hits;
    };

    const uint64_t lru_hits = run(false);
    const uint64_t oracle_hits = run(true);
    EXPECT_EQ(lru_hits, 0u); // classic LRU worst case
    EXPECT_GT(oracle_hits, seq.size() / 2);
}

TEST(LfuPolicy, ConfigurableCounterWidth)
{
    // A 2-bit counter saturates at 3, halving much sooner.
    LfuPolicy lfu(2);
    lfu.init(1, 2);
    lfu.insert(0, 0, 1);
    lfu.insert(0, 1, 2);
    lfu.touch(0, 0, 1);
    lfu.touch(0, 0, 1); // reaches 3 (max)
    EXPECT_EQ(lfu.counter(0, 0), 3u);
    lfu.touch(0, 0, 1); // saturates: halve row then bump
    EXPECT_EQ(lfu.counter(0, 0), 2u);
    EXPECT_EQ(lfu.counter(0, 1), 0u);
}

// ---- Differential test against the two-array policies ----------------

/**
 * The scan-based policies the rank-word policies replaced, kept as
 * the reference: LRU and FIFO scan a per-way stamp array, and LFU a
 * count array beside a last-use array, over an explicit candidate
 * list with a strict `<`. The rank-word policies must pick the same
 * victim on every call and report the same LFU counters.
 */
namespace ref
{

class Lru
{
  public:
    void
    init(size_t num_sets, size_t num_ways)
    {
        _lastUse.assign(num_sets * num_ways, 0);
        _ways = num_ways;
        _seq = 0;
    }
    void
    touch(size_t set, size_t way)
    {
        _lastUse[set * _ways + way] = ++_seq;
    }
    void
    insert(size_t set, size_t way)
    {
        _lastUse[set * _ways + way] = ++_seq;
    }
    void
    invalidate(size_t set, size_t way)
    {
        _lastUse[set * _ways + way] = 0;
    }

    size_t
    victim(size_t set, const std::vector<size_t> &ways)
    {
        size_t best = ways.front();
        uint64_t best_use = _lastUse[set * _ways + best];
        for (size_t w : ways) {
            uint64_t use = _lastUse[set * _ways + w];
            if (use < best_use) {
                best = w;
                best_use = use;
            }
        }
        return best;
    }

    void
    reset()
    {
        std::fill(_lastUse.begin(), _lastUse.end(), 0);
        _seq = 0;
    }

  private:
    std::vector<uint64_t> _lastUse;
    size_t _ways = 0;
    uint64_t _seq = 0;
};

class Fifo
{
  public:
    void
    init(size_t num_sets, size_t num_ways)
    {
        _inserted.assign(num_sets * num_ways, 0);
        _ways = num_ways;
        _seq = 0;
    }
    void touch(size_t, size_t) {}
    void
    insert(size_t set, size_t way)
    {
        _inserted[set * _ways + way] = ++_seq;
    }
    void
    invalidate(size_t set, size_t way)
    {
        _inserted[set * _ways + way] = 0;
    }

    size_t
    victim(size_t set, const std::vector<size_t> &ways)
    {
        size_t best = ways.front();
        uint64_t best_seq = _inserted[set * _ways + best];
        for (size_t w : ways) {
            uint64_t seq = _inserted[set * _ways + w];
            if (seq < best_seq) {
                best = w;
                best_seq = seq;
            }
        }
        return best;
    }

    void
    reset()
    {
        std::fill(_inserted.begin(), _inserted.end(), 0);
        _seq = 0;
    }

  private:
    std::vector<uint64_t> _inserted;
    size_t _ways = 0;
    uint64_t _seq = 0;
};

class Lfu
{
  public:
    explicit Lfu(unsigned counter_bits)
        : _maxCount((1u << counter_bits) - 1)
    {}

    void
    init(size_t num_sets, size_t num_ways)
    {
        _count.assign(num_sets * num_ways, 0);
        _lastUse.assign(num_sets * num_ways, 0);
        _ways = num_ways;
        _seq = 0;
    }

    void
    touch(size_t set, size_t way)
    {
        bump(set, way);
        _lastUse[set * _ways + way] = ++_seq;
    }

    void
    insert(size_t set, size_t way)
    {
        _count[set * _ways + way] = 1;
        _lastUse[set * _ways + way] = ++_seq;
    }

    void
    invalidate(size_t set, size_t way)
    {
        _count[set * _ways + way] = 0;
        _lastUse[set * _ways + way] = 0;
    }

    size_t
    victim(size_t set, const std::vector<size_t> &ways)
    {
        size_t best = ways.front();
        uint32_t best_count = _count[set * _ways + best];
        uint64_t best_use = _lastUse[set * _ways + best];
        for (size_t w : ways) {
            const uint32_t count = _count[set * _ways + w];
            const uint64_t use = _lastUse[set * _ways + w];
            if (count < best_count ||
                (count == best_count && use < best_use)) {
                best = w;
                best_count = count;
                best_use = use;
            }
        }
        return best;
    }

    void
    reset()
    {
        std::fill(_count.begin(), _count.end(), 0);
        std::fill(_lastUse.begin(), _lastUse.end(), 0);
        _seq = 0;
    }

    uint32_t counter(size_t set, size_t way) const
    {
        return _count[set * _ways + way];
    }

    /** Row halvings so far: proves a run exercised saturation. */
    uint64_t halvings = 0;

  private:
    void
    bump(size_t set, size_t way)
    {
        uint32_t &c = _count[set * _ways + way];
        if (c < _maxCount) {
            ++c;
            return;
        }
        for (size_t w = 0; w < _ways; ++w)
            _count[set * _ways + w] >>= 1;
        ++c;
        ++halvings;
    }

    std::vector<uint32_t> _count;
    std::vector<uint64_t> _lastUse;
    size_t _ways = 0;
    uint64_t _seq = 0;
    const uint32_t _maxCount;
};

} // namespace ref

/**
 * Drives `reference` and `policy` with one random interleaving of
 * touch, insert, invalidate, victim and reset calls over `sets` x
 * `ways`, asserting equal victims, and `check(set)` after each call
 * that changes state. Most touches hammer way 0 of set 0, which
 * inserts and invalidates spare, so even 16-bit LFU counters
 * saturate between the resets every 200K calls.
 */
template <typename Ref, typename Check>
void
runDifferential(Ref &reference, ReplacementPolicy &policy, size_t sets,
                size_t ways, uint64_t seed, Check &&check)
{
    reference.init(sets, ways);
    policy.init(sets, ways);
    std::vector<size_t> all(ways);
    std::iota(all.begin(), all.end(), size_t(0));
    const std::vector<uint64_t> keys(ways, 0);
    Rng rng(seed);
    for (int i = 1; i <= 600000; ++i) {
        size_t set = rng.below(sets);
        size_t way = rng.below(ways);
        const uint64_t op = rng.below(100);
        const bool hot = set == 0 && way == 0;
        if (i % 200000 == 0) {
            reference.reset();
            policy.reset();
        } else if (op < 60) {
            if (rng.below(4) != 0)
                set = way = 0;
            reference.touch(set, way);
            policy.touch(set, way, 0);
        } else if (op < 80 && !hot) {
            reference.insert(set, way);
            policy.insert(set, way, 0);
        } else if (op < 85 && !hot) {
            reference.invalidate(set, way);
            policy.invalidate(set, way);
        } else {
            ASSERT_EQ(reference.victim(set, all),
                      policy.victim(set, keys.data()))
                << "call " << i << ", set " << set;
            continue;
        }
        check(set);
        if (::testing::Test::HasFatalFailure())
            return;
    }
}

TEST(RankPolicy, LfuMatchesTwoArrayLfuThroughSaturation)
{
    for (unsigned bits : {1u, 4u, 16u}) {
        for (size_t ways : {size_t(3), size_t(16)}) {
            SCOPED_TRACE(::testing::Message()
                         << bits << "-bit counters, " << ways
                         << " ways");
            ref::Lfu reference(bits);
            LfuPolicy policy(bits);
            runDifferential(reference, policy, 4, ways, 11 + bits,
                            [&](size_t set) {
                for (size_t w = 0; w < ways; ++w)
                    ASSERT_EQ(reference.counter(set, w),
                              policy.counter(set, w))
                        << "set " << set << ", way " << w;
            });
            EXPECT_GT(reference.halvings, 0u);
        }
    }
}

TEST(RankPolicy, LruAndFifoMatchTheirStampScans)
{
    for (size_t ways : {size_t(3), size_t(16), size_t(32)}) {
        SCOPED_TRACE(::testing::Message() << ways << " ways");
        ref::Lru lru_ref;
        LruPolicy lru;
        runDifferential(lru_ref, lru, 4, ways, 21, [](size_t) {});
        ref::Fifo fifo_ref;
        FifoPolicy fifo;
        runDifferential(fifo_ref, fifo, 4, ways, 22, [](size_t) {});
    }
}

TEST(MakePolicy, CreatesRequestedKinds)
{
    EXPECT_NE(makePolicy(ReplPolicyKind::LRU), nullptr);
    EXPECT_NE(makePolicy(ReplPolicyKind::LFU), nullptr);
    EXPECT_NE(makePolicy(ReplPolicyKind::FIFO), nullptr);
    EXPECT_NE(makePolicy(ReplPolicyKind::Random, 3), nullptr);
}

} // namespace
} // namespace hypersio::cache
