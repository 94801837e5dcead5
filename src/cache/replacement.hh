/**
 * @file
 * Replacement policies for set-associative translation caches.
 *
 * The paper studies LRU, LFU (motivated by the three-frequency-group
 * structure of tenant page accesses, Section IV-D), and a Belady
 * oracle built from the full trace (Section V-C). FIFO and Random are
 * included as additional baselines. The LFU implementation follows
 * the paper: a 4-bit counter per entry, and all counters in a set are
 * halved when any of them saturates.
 */

#ifndef HYPERSIO_CACHE_REPLACEMENT_HH
#define HYPERSIO_CACHE_REPLACEMENT_HH

#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "util/logging.hh"
#include "util/rng.hh"

namespace hypersio::cache
{

/** Replacement policy identifiers, parseable from strings. */
enum class ReplPolicyKind
{
    LRU,
    LFU,
    FIFO,
    Random,
    Oracle,
};

/**
 * Parses "lru"/"lfu"/"fifo"/"random"/"oracle" into `out`.
 * @return false, leaving `out` alone, for any other name
 */
bool parseReplPolicy(const std::string &name, ReplPolicyKind &out);

/** Human-readable policy name. */
const char *replPolicyName(ReplPolicyKind kind);

/**
 * Interface a cache uses to drive its replacement policy. The cache
 * calls init() once, then reports hits/insertions/invalidations and
 * asks for victims. `set` is the global set index, `way` the way
 * within the set, and `key` the full tag identity of the entry.
 */
class ReplacementPolicy
{
  public:
    virtual ~ReplacementPolicy() = default;

    /** Sizes internal state; called once before use. */
    virtual void init(size_t num_sets, size_t num_ways) = 0;

    /** An existing entry was re-referenced. */
    virtual void touch(size_t set, size_t way, uint64_t key) = 0;

    /** A new entry was installed in (set, way). */
    virtual void insert(size_t set, size_t way, uint64_t key) = 0;

    /** The entry in (set, way) was invalidated. */
    virtual void invalidate(size_t set, size_t way) = 0;

    /**
     * Chooses a victim way of the full set `set`. `keys[w]` is the
     * key resident in way w, for every way of the set; the cache
     * asks only when all of them are valid and evictable.
     */
    virtual size_t victim(size_t set, const uint64_t *keys) = 0;

    /** Clears all recency/frequency state. */
    virtual void reset() = 0;
};

/**
 * Base of the rank-ordered policies (LRU, FIFO, LFU): one uint64_t
 * rank word per way, kept contiguous per set, and the victim is the
 * way with the smallest rank. Invalid ways rank 0.
 */
class RankPolicy : public ReplacementPolicy
{
  public:
    void
    init(size_t num_sets, size_t num_ways) override
    {
        _rank.assign(num_sets * num_ways, 0);
        _ways = num_ways;
        _seq = 0;
    }

    void invalidate(size_t set, size_t way) override
    {
        _rank[set * _ways + way] = 0;
    }

    /**
     * The first way of minimum rank: ties go to the lowest way. The
     * select is written as conditional moves, not a data-dependent
     * branch, so the scan costs the same whichever way wins; which
     * way holds the minimum is effectively random, and a branchy
     * scan mispredicts on it.
     */
    size_t
    victim(size_t set, const uint64_t *) override
    {
        const uint64_t *rank = &_rank[set * _ways];
        size_t best = 0;
        uint64_t best_rank = rank[0];
        for (size_t w = 1; w < _ways; ++w) {
            const bool lower = rank[w] < best_rank;
            best = lower ? w : best;
            best_rank = lower ? rank[w] : best_rank;
        }
        return best;
    }

    void reset() override
    {
        std::fill(_rank.begin(), _rank.end(), 0);
        _seq = 0;
    }

  protected:
    std::vector<uint64_t> _rank;
    size_t _ways = 0;
    /** Monotonic use stamp; 0 is reserved for invalid ways. */
    uint64_t _seq = 0;
};

/** Least Recently Used: the rank is the way's last-use stamp. */
class LruPolicy : public RankPolicy
{
  public:
    void
    touch(size_t set, size_t way, uint64_t) override
    {
        _rank[set * _ways + way] = ++_seq;
    }

    void
    insert(size_t set, size_t way, uint64_t) override
    {
        _rank[set * _ways + way] = ++_seq;
    }
};

/** First-In First-Out: the rank is the way's insertion stamp. */
class FifoPolicy : public RankPolicy
{
  public:
    void touch(size_t, size_t, uint64_t) override {}

    void
    insert(size_t set, size_t way, uint64_t) override
    {
        _rank[set * _ways + way] = ++_seq;
    }
};

/**
 * Least Frequently Used with saturating 4-bit counters. When any
 * counter in a set saturates, every counter in that set is halved,
 * aging out stale frequency information (cf. RRIP-style aging).
 * Count ties break by recency (least recently used first), so stale
 * low-count entries age out instead of pinning a set.
 *
 * The rank word packs both keys of that order: the count above bit
 * 48 and the last-use stamp below it, so one unsigned compare is the
 * (count, last use) lexicographic compare.
 */
class LfuPolicy : public RankPolicy
{
  public:
    /** @param counter_bits width of the per-entry counter (paper: 4). */
    explicit LfuPolicy(unsigned counter_bits = 4)
        : _maxCount((1u << counter_bits) - 1)
    {
        HYPERSIO_ASSERT(counter_bits >= 1 && counter_bits <= 16,
                        "unsupported LFU counter width");
    }

    void
    touch(size_t set, size_t way, uint64_t) override
    {
        uint64_t *row = &_rank[set * _ways];
        if ((row[way] >> CountShift) == _maxCount) {
            // Saturated: halve every counter in the row, then bump.
            for (size_t w = 0; w < _ways; ++w)
                row[w] = (row[w] >> (CountShift + 1) << CountShift) |
                         (row[w] & StampMask);
        }
        row[way] = ((row[way] >> CountShift) + 1) << CountShift |
                   nextStamp();
    }

    void
    insert(size_t set, size_t way, uint64_t) override
    {
        _rank[set * _ways + way] = uint64_t(1) << CountShift |
                                   nextStamp();
    }

    /** Exposed for testing: current counter value of (set, way). */
    uint32_t
    counter(size_t set, size_t way) const
    {
        return uint32_t(_rank[set * _ways + way] >> CountShift);
    }

  private:
    static constexpr unsigned CountShift = 48;
    static constexpr uint64_t StampMask =
        (uint64_t(1) << CountShift) - 1;

    uint64_t
    nextStamp()
    {
        HYPERSIO_ASSERT(_seq < StampMask,
                        "LFU use stamp overflows its 48-bit field");
        return ++_seq;
    }

    const uint32_t _maxCount;
};

/** Uniform-random victim selection (deterministic from a seed). */
class RandomPolicy : public ReplacementPolicy
{
  public:
    explicit RandomPolicy(uint64_t seed = 1) : _rng(seed) {}

    void init(size_t, size_t num_ways) override { _ways = num_ways; }
    void touch(size_t, size_t, uint64_t) override {}
    void insert(size_t, size_t, uint64_t) override {}
    void invalidate(size_t, size_t) override {}

    size_t
    victim(size_t, const uint64_t *) override
    {
        return _rng.below(_ways);
    }

    void reset() override {}

  private:
    Rng _rng;
    size_t _ways = 0;
};

/**
 * Source of future-knowledge for the Belady oracle policy: returns
 * the position of the next reference to `key` strictly after the
 * current position, or UINT64_MAX if the key is never used again.
 */
class FutureOracle
{
  public:
    virtual ~FutureOracle() = default;
    virtual uint64_t nextUse(uint64_t key) const = 0;
};

/**
 * Belady's optimal policy: evicts the resident entry whose next use
 * lies furthest in the future. Requires a FutureOracle fed with the
 * full access sequence (see OracleFeed).
 */
class OraclePolicy : public ReplacementPolicy
{
  public:
    explicit OraclePolicy(const FutureOracle &oracle) : _oracle(oracle)
    {}

    void init(size_t, size_t num_ways) override { _ways = num_ways; }
    void touch(size_t, size_t, uint64_t) override {}
    void insert(size_t, size_t, uint64_t) override {}
    void invalidate(size_t, size_t) override {}

    size_t
    victim(size_t, const uint64_t *keys) override
    {
        size_t best = 0;
        uint64_t best_next = _oracle.nextUse(keys[0]);
        for (size_t w = 1; w < _ways; ++w) {
            uint64_t next = _oracle.nextUse(keys[w]);
            if (next > best_next) {
                best = w;
                best_next = next;
            }
        }
        return best;
    }

    void reset() override {}

  private:
    const FutureOracle &_oracle;
    size_t _ways = 0;
};

/**
 * Factory for non-oracle policies. Oracle policies need a FutureOracle
 * and are constructed explicitly by the caller.
 * @param lfu_bits counter width used when kind is LFU
 */
std::unique_ptr<ReplacementPolicy>
makePolicy(ReplPolicyKind kind, uint64_t seed = 1,
           unsigned lfu_bits = 4);

} // namespace hypersio::cache

#endif // HYPERSIO_CACHE_REPLACEMENT_HH
