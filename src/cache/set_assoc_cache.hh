/**
 * @file
 * Generic set-associative, optionally partitioned translation cache.
 *
 * This single template backs every caching structure in the model:
 * the Device TLB, the IOMMU's IOTLB, the paging-structure caches
 * (L2/L3/L4 TLBs), the Context Cache, and the Prefetch Buffer (as a
 * fully-associative instance).
 *
 * Partitioning implements the paper's P-DevTLB: the cache's sets are
 * divided into `partitions` equal groups (a partition tag per row);
 * a request may look up and allocate only inside the set group
 * selected by its partition id (low bits of the Source ID). With
 * partitions == 1 the cache behaves classically.
 *
 * Storage is split structure-of-arrays style: a dense 1-byte tag
 * plane scanned by the way-matching loop (0 for an invalid way,
 * otherwise a marker bit plus a 7-bit key digest), and parallel
 * key/value arrays touched only when a digest matches. Each set's
 * tag row is padded to a 16-lane group so the whole scan is one
 * group compare through util/simd.hh (SSE2/NEON, scalar fallback):
 * candidate ways come back as a bitmask and are verified against the
 * full 64-bit key lowest-way-first, so hit/miss results — and thus
 * every replacement decision — are bit-identical across backends
 * (padding lanes stay zero and can never match a digest, whose
 * marker bit is always set). A live valid-entry counter makes
 * occupancy() O(1), and a per-set fill count skips the invalid-way
 * scan once a set has filled (sets never "unfill" except via
 * invalidate/flush, so a full set usually stays full).
 */

#ifndef HYPERSIO_CACHE_SET_ASSOC_CACHE_HH
#define HYPERSIO_CACHE_SET_ASSOC_CACHE_HH

#include <algorithm>
#include <bit>
#include <optional>
#include <vector>

#include "cache/replacement.hh"
#include "stats/stats.hh"
#include "util/bitfield.hh"
#include "util/logging.hh"
#include "util/rng.hh"
#include "util/simd.hh"

namespace hypersio::cache
{

/** Geometry and policy configuration for a SetAssocCache. */
struct CacheConfig
{
    /** Total entries; must be a multiple of `ways`. */
    size_t entries = 64;
    /** Associativity; `entries == ways` gives a fully-assoc cache. */
    size_t ways = 8;
    /** Number of row partitions (PTag groups); must divide the sets. */
    size_t partitions = 1;
    /** Replacement policy. */
    ReplPolicyKind policy = ReplPolicyKind::LRU;
    /** Seed for randomized policies. */
    uint64_t seed = 1;
    /**
     * Select the set by hashing the full key instead of using the
     * low index bits directly. Chipset-side structures (IOTLB) hash
     * the domain into the index, spreading same-gIOVA tenants across
     * sets; simple device-side TLBs do not — which is why identical
     * guest drivers conflict there (Section IV-D).
     */
    bool hashIndex = false;
    /** LFU counter width in bits (paper: 4). */
    unsigned lfuBits = 4;
    /**
     * Sub-entries per tag (1 disables; appended last so positional
     * brace initialization of the older fields keeps working). With
     * S > 1 each tag matches on the domain-independent low
     * SubEntrySharedKeyBits of the key — tenants whose gIOVA layouts
     * coincide, the common case the paper highlights, share one
     * tag — and the way carries up to S per-tenant (full key, value)
     * sub-slots behind it. Ways and sets still count tags, so reach
     * grows toward entries * S translations for the area cost of S
     * payloads (not S full tags) per way. Sub-slot replacement is
     * round-robin inside the tag; evicting a tag evicts every tenant
     * behind it.
     */
    size_t subEntries = 1;

    size_t sets() const { return entries / ways; }
};

/**
 * Bits of a translation/paging key below the domain field (see
 * iommu/keys.hh): the tenant-independent page identity that
 * sub-entry-shared tags match on. Domains sit at bit 40 and up in
 * both key families, so masking them off leaves exactly the
 * (size/level, page-frame/prefix) part tenants can share.
 */
constexpr unsigned SubEntrySharedKeyBits = 40;

/** The shared (domain-stripped) part of a key. */
constexpr uint64_t
subEntrySharedKey(uint64_t key)
{
    return key & ((uint64_t(1) << SubEntrySharedKeyBits) - 1);
}

/** Aggregate hit/miss statistics of one cache instance. */
struct CacheStats
{
    uint64_t lookups = 0;
    uint64_t hits = 0;
    uint64_t insertions = 0;
    uint64_t evictions = 0;
    uint64_t invalidations = 0;

    uint64_t misses() const { return lookups - hits; }
    double
    missRate() const
    {
        return lookups == 0
                   ? 0.0
                   : static_cast<double>(misses()) /
                         static_cast<double>(lookups);
    }
};

/**
 * Set-associative cache mapping a 64-bit key to a value of type V.
 *
 * The *key* is the full identity used for tag matching (callers pack
 * e.g. SID and page number into it). The *index* is the value whose
 * low bits select the set inside the partition — kept separate from
 * the key so that different tenants using the same gIOVA pages index
 * to the same rows, which is exactly the conflict behaviour the paper
 * analyses.
 *
 * `Ops` selects the 16-wide group-probe backend (util/simd.hh); the
 * default is the build's best backend, and tests instantiate the
 * scalar reference to prove behavioural equivalence.
 */
template <typename V, typename Ops = util::simd::DefaultGroupOps>
class SetAssocCache
{
  public:
    /** Result of an insertion: the evicted key, if any. */
    struct Eviction
    {
        uint64_t key;
        V value;
    };

    /**
     * Constructs with an owned policy created from config.policy.
     * For oracle replacement use the other constructor.
     */
    explicit SetAssocCache(const CacheConfig &config)
        : SetAssocCache(config, makePolicy(config.policy, config.seed,
                                           config.lfuBits))
    {}

    /** Constructs with an explicit (possibly oracle) policy. */
    SetAssocCache(const CacheConfig &config,
                  std::unique_ptr<ReplacementPolicy> policy)
        : _config(config), _policy(std::move(policy))
    {
        HYPERSIO_ASSERT(_config.ways > 0 && _config.entries > 0,
                        "cache must have entries");
        HYPERSIO_ASSERT(_config.entries % _config.ways == 0,
                        "entries (%zu) not a multiple of ways (%zu)",
                        _config.entries, _config.ways);
        const size_t sets = _config.sets();
        HYPERSIO_ASSERT(_config.partitions >= 1 &&
                            sets % _config.partitions == 0,
                        "partitions (%zu) must divide sets (%zu)",
                        _config.partitions, sets);
        _setsPerPartition = sets / _config.partitions;
        HYPERSIO_ASSERT(_config.subEntries >= 1 &&
                            _config.subEntries <= 16,
                        "subEntries (%zu) out of range [1, 16]",
                        _config.subEntries);
        _sub = _config.subEntries;
        // Round each set's tag row up to whole 16-lane groups so the
        // way scan never reads past its row; the padding lanes stay
        // zero forever.
        constexpr size_t group = util::simd::GroupWidth;
        _wayStride = (_config.ways + group - 1) & ~(group - 1);
        _tagBytes.resize(sets * _wayStride, 0);
        _tagKeys.resize(sets * _config.ways, 0);
        _values.resize(sets * _config.ways * _sub);
        _setFill.resize(sets, 0);
        if (_sub > 1) {
            _subKeys.resize(sets * _config.ways * _sub, 0);
            _subValid.resize(sets * _config.ways * _sub, 0);
            _subFill.resize(sets * _config.ways, 0);
            _subVictim.resize(sets * _config.ways, 0);
        }
        _policy->init(sets, _config.ways);
    }

    const CacheConfig &config() const { return _config; }
    const CacheStats &stats() const { return _stats; }
    size_t numSets() const { return _config.sets(); }
    size_t numWays() const { return _config.ways; }
    size_t numPartitions() const { return _config.partitions; }

    /**
     * Looks up `key`. `index` selects the set; `partition` selects
     * the row group (ignored when the cache has one partition).
     * @return pointer to the cached value, or nullptr on miss.
     */
    V *
    lookup(uint64_t key, uint64_t index, uint32_t partition = 0)
    {
        if (_sub > 1)
            return lookupSub(key, index, partition);
        ++_stats.lookups;
        const size_t set = setFor(key, index, partition);
        const size_t way = findWay(set, key);
        if (way == _config.ways)
            return nullptr;
        ++_stats.hits;
        _policy->touch(set, way, key);
        return &_values[set * _config.ways + way];
    }

    /** Like lookup() but with no policy/statistics side effects. */
    const V *
    peek(uint64_t key, uint64_t index, uint32_t partition = 0) const
    {
        const size_t set = setFor(key, index, partition);
        if (_sub > 1) {
            const size_t way = findWay(set, subEntrySharedKey(key));
            if (way == _config.ways)
                return nullptr;
            const size_t sub = findSub(set, way, key);
            return sub == _sub ? nullptr
                               : &_values[subBase(set, way) + sub];
        }
        const size_t way = findWay(set, key);
        return way == _config.ways
                   ? nullptr
                   : &_values[set * _config.ways + way];
    }

    /**
     * Inserts (or updates) key → value.
     * @return the eviction that made room, if one occurred.
     */
    std::optional<Eviction>
    insert(uint64_t key, uint64_t index, V value,
           uint32_t partition = 0)
    {
        if (_sub > 1)
            return insertSub(key, index, std::move(value), partition);
        const size_t set = setFor(key, index, partition);
        const size_t base = set * _config.ways;

        // Update in place on re-insertion.
        if (const size_t way = findWay(set, key);
            way != _config.ways) {
            _values[base + way] = std::move(value);
            _policy->touch(set, way, key);
            return std::nullopt;
        }

        ++_stats.insertions;

        // Use an invalid way if one exists; the fill count lets a
        // full set (the steady state) skip the scan entirely.
        uint8_t *row = _tagBytes.data() + set * _wayStride;
        if (_setFill[set] < _config.ways) {
            size_t way = 0;
            while (row[way])
                ++way;
            row[way] = tagByteOf(key);
            _tagKeys[base + way] = key;
            _values[base + way] = std::move(value);
            ++_setFill[set];
            ++_occupied;
            _policy->insert(set, way, key);
            return std::nullopt;
        }

        // All ways valid: ask the policy for a victim.
        const size_t victim = _policy->victim(set, &_tagKeys[base]);
        HYPERSIO_ASSERT(victim < _config.ways, "policy victim range");

        Eviction evicted{_tagKeys[base + victim],
                         std::move(_values[base + victim])};
        ++_stats.evictions;
        row[victim] = tagByteOf(key);
        _tagKeys[base + victim] = key;
        _values[base + victim] = std::move(value);
        _policy->insert(set, victim, key);
        return evicted;
    }

    /** Invalidates `key` if present. @return true when removed. */
    bool
    invalidate(uint64_t key, uint64_t index, uint32_t partition = 0)
    {
        if (_sub > 1)
            return invalidateSub(key, index, partition);
        const size_t set = setFor(key, index, partition);
        const size_t way = findWay(set, key);
        if (way == _config.ways)
            return false;
        _tagBytes[set * _wayStride + way] = 0;
        --_setFill[set];
        --_occupied;
        ++_stats.invalidations;
        _policy->invalidate(set, way);
        return true;
    }

    /** Invalidates every entry (e.g. on tenant teardown). */
    void
    flush()
    {
        if (_sub > 1) {
            _stats.invalidations += _occupied;
            std::fill(_tagBytes.begin(), _tagBytes.end(),
                      uint8_t(0));
            std::fill(_subValid.begin(), _subValid.end(),
                      uint8_t(0));
            std::fill(_subFill.begin(), _subFill.end(), uint8_t(0));
            std::fill(_subVictim.begin(), _subVictim.end(),
                      uint8_t(0));
            std::fill(_setFill.begin(), _setFill.end(), 0u);
            _occupied = 0;
            _policy->reset();
            return;
        }
        // Padding lanes are always zero, so iterating the padded
        // plane visits exactly the valid ways.
        for (auto &tag : _tagBytes) {
            if (tag) {
                tag = 0;
                ++_stats.invalidations;
            }
        }
        std::fill(_setFill.begin(), _setFill.end(), 0u);
        _occupied = 0;
        _policy->reset();
    }

    /** Number of currently valid entries (O(1): live counter). */
    size_t occupancy() const { return _occupied; }

    /** Resets statistics but keeps contents. */
    void resetStats() { _stats = CacheStats{}; }

    /**
     * Registers this cache's counters in `group` as lazily-read
     * Callback stats. Values are read from the live CacheStats at
     * dump time, so the exported numbers always match stats(); the
     * cache must outlive the group's dumps.
     */
    void
    exportStats(stats::StatGroup &group) const
    {
        const CacheStats *s = &_stats;
        group.makeCallback("lookups", "tag lookups", [s] {
            return static_cast<double>(s->lookups);
        });
        group.makeCallback("hits", "tag hits", [s] {
            return static_cast<double>(s->hits);
        });
        group.makeCallback("misses", "tag misses", [s] {
            return static_cast<double>(s->misses());
        });
        group.makeCallback("miss_rate", "misses / lookups",
                           [s] { return s->missRate(); });
        group.makeCallback("insertions", "lines allocated", [s] {
            return static_cast<double>(s->insertions);
        });
        group.makeCallback("evictions", "lines evicted", [s] {
            return static_cast<double>(s->evictions);
        });
        group.makeCallback("invalidations", "lines invalidated",
                           [s] {
                               return static_cast<double>(
                                   s->invalidations);
                           });
    }

    /**
     * Visits all valid entries: fn(key, value, set, way). Used by the
     * oracle pre-pass and tests.
     */
    template <typename Fn>
    void
    forEach(Fn &&fn) const
    {
        const size_t sets = _config.sets();
        if (_sub > 1) {
            for (size_t s = 0; s < sets; ++s) {
                for (size_t w = 0; w < _config.ways; ++w) {
                    if (!_tagBytes[s * _wayStride + w])
                        continue;
                    const size_t sbase = subBase(s, w);
                    for (size_t e = 0; e < _sub; ++e) {
                        if (_subValid[sbase + e])
                            fn(_subKeys[sbase + e],
                               _values[sbase + e], s, w);
                    }
                }
            }
            return;
        }
        for (size_t s = 0; s < sets; ++s) {
            for (size_t w = 0; w < _config.ways; ++w) {
                const size_t slot = s * _config.ways + w;
                if (_tagBytes[s * _wayStride + w])
                    fn(_tagKeys[slot], _values[slot], s, w);
            }
        }
    }

    /**
     * Computes the global set index for (key, index, partition). In
     * sub-entry mode a hashed index mixes the *shared* key, so
     * same-layout tenants co-index (the precondition for sharing a
     * tag); with subEntries == 1 the behaviour is unchanged.
     */
    size_t
    setFor(uint64_t key, uint64_t index, uint32_t partition) const
    {
        const uint64_t hashed =
            _sub > 1 ? subEntrySharedKey(key) : key;
        return setIndex(_config.hashIndex ? splitmix64(hashed)
                                          : index,
                        partition);
    }

    /** Computes the global set index for (index, partition). */
    size_t
    setIndex(uint64_t index, uint32_t partition) const
    {
        const uint32_t part =
            _config.partitions == 1
                ? 0
                : partition % static_cast<uint32_t>(_config.partitions);
        return static_cast<size_t>(part) * _setsPerPartition +
               static_cast<size_t>(index % _setsPerPartition);
    }

  private:
    /**
     * 1-byte way tag: the marker bit plus the top 7 bits of the
     * key's Fibonacci mix (well mixed even for page-base keys, whose
     * low bits are zero). 0 marks an invalid way — the marker bit
     * keeps every live digest nonzero, so zero padding lanes can
     * never produce a candidate.
     */
    static uint8_t
    tagByteOf(uint64_t key)
    {
        return uint8_t((key * 0x9E3779B97F4A7C15ull) >> 57) | 0x80;
    }

    /**
     * Scans the set's tag row for `key`, one 16-lane group compare
     * per group of ways. Candidate ways (digest matches) are
     * verified against the full key lowest-way-first, matching the
     * scalar scan's order exactly.
     * @return the matching way, or `ways` when absent.
     */
    size_t
    findWay(size_t set, uint64_t key) const
    {
        const uint8_t *row = _tagBytes.data() + set * _wayStride;
        const uint64_t *keys = _tagKeys.data() + set * _config.ways;
        const uint8_t digest = tagByteOf(key);
        for (size_t g = 0; g < _wayStride;
             g += util::simd::GroupWidth) {
            uint32_t cand = Ops::matchMask(row + g, digest);
            while (cand) {
                const size_t w = g + size_t(std::countr_zero(cand));
                if (keys[w] == key)
                    return w;
                cand &= cand - 1;
            }
        }
        return _config.ways;
    }

    // ---- Sub-entry mode (subEntries > 1) ---------------------------
    // The tag plane and _tagKeys hold *shared* keys; each way owns a
    // plane of `_sub` (full key, value) sub-slots behind its tag.

    /** First sub-slot of (set, way) in the sub planes. */
    size_t
    subBase(size_t set, size_t way) const
    {
        return (set * _config.ways + way) * _sub;
    }

    /** Sub-slot holding `key` in (set, way), or `_sub` when absent. */
    size_t
    findSub(size_t set, size_t way, uint64_t key) const
    {
        const size_t sbase = subBase(set, way);
        for (size_t e = 0; e < _sub; ++e)
            if (_subValid[sbase + e] && _subKeys[sbase + e] == key)
                return e;
        return _sub;
    }

    V *
    lookupSub(uint64_t key, uint64_t index, uint32_t partition)
    {
        ++_stats.lookups;
        const size_t set = setFor(key, index, partition);
        const size_t way = findWay(set, subEntrySharedKey(key));
        if (way == _config.ways)
            return nullptr;
        // Tag present but no sub-entry for this tenant: still a miss
        // (another tenant with the same layout owns the tag).
        const size_t sub = findSub(set, way, key);
        if (sub == _sub)
            return nullptr;
        ++_stats.hits;
        _policy->touch(set, way, subEntrySharedKey(key));
        return &_values[subBase(set, way) + sub];
    }

    /** Resets (set, way) to hold only `key` under its shared tag. */
    void
    installTag(size_t set, size_t way, uint64_t key, V value)
    {
        const uint64_t shared = subEntrySharedKey(key);
        const size_t sbase = subBase(set, way);
        _tagBytes[set * _wayStride + way] = tagByteOf(shared);
        _tagKeys[set * _config.ways + way] = shared;
        std::fill_n(_subValid.begin() +
                        static_cast<ptrdiff_t>(sbase),
                    _sub, uint8_t(0));
        _subValid[sbase] = 1;
        _subKeys[sbase] = key;
        _values[sbase] = std::move(value);
        _subFill[set * _config.ways + way] = 1;
        _subVictim[set * _config.ways + way] = 0;
        ++_occupied;
    }

    std::optional<Eviction>
    insertSub(uint64_t key, uint64_t index, V value,
              uint32_t partition)
    {
        const uint64_t shared = subEntrySharedKey(key);
        const size_t set = setFor(key, index, partition);
        const size_t base = set * _config.ways;

        if (const size_t way = findWay(set, shared);
            way != _config.ways) {
            const size_t sbase = subBase(set, way);
            // Update in place on re-insertion of the same tenant.
            if (const size_t sub = findSub(set, way, key);
                sub != _sub) {
                _values[sbase + sub] = std::move(value);
                _policy->touch(set, way, shared);
                return std::nullopt;
            }
            ++_stats.insertions;
            // A free sub-slot under the shared tag: the sharing win —
            // no way is consumed and nothing is evicted.
            if (_subFill[base + way] < _sub) {
                size_t sub = 0;
                while (_subValid[sbase + sub])
                    ++sub;
                _subValid[sbase + sub] = 1;
                _subKeys[sbase + sub] = key;
                _values[sbase + sub] = std::move(value);
                ++_subFill[base + way];
                ++_occupied;
                _policy->touch(set, way, shared);
                return std::nullopt;
            }
            // Tag full: round-robin victim among the tag's tenants.
            const size_t victim = _subVictim[base + way];
            _subVictim[base + way] =
                static_cast<uint8_t>((victim + 1) % _sub);
            Eviction evicted{_subKeys[sbase + victim],
                             std::move(_values[sbase + victim])};
            ++_stats.evictions;
            _subKeys[sbase + victim] = key;
            _values[sbase + victim] = std::move(value);
            _policy->touch(set, way, shared);
            return evicted;
        }

        ++_stats.insertions;

        // New tag: use an invalid way if one exists.
        uint8_t *row = _tagBytes.data() + set * _wayStride;
        if (_setFill[set] < _config.ways) {
            size_t way = 0;
            while (row[way])
                ++way;
            installTag(set, way, key, std::move(value));
            ++_setFill[set];
            _policy->insert(set, way, shared);
            return std::nullopt;
        }

        // All tags valid: the policy picks a victim way, and every
        // tenant sub-entry behind its tag dies with it. The lowest
        // valid sub-slot is reported as the representative eviction;
        // mirrors derive the rest from its shared tag (an eviction
        // whose tag differs from the fill's tag is always whole-tag).
        const size_t victim = _policy->victim(set, &_tagKeys[base]);
        HYPERSIO_ASSERT(victim < _config.ways, "policy victim range");

        const size_t vbase = subBase(set, victim);
        size_t rep = 0;
        while (!_subValid[vbase + rep])
            ++rep;
        Eviction evicted{_subKeys[vbase + rep],
                         std::move(_values[vbase + rep])};
        ++_stats.evictions;
        _occupied -= _subFill[base + victim];
        installTag(set, victim, key, std::move(value));
        _policy->insert(set, victim, shared);
        return evicted;
    }

    bool
    invalidateSub(uint64_t key, uint64_t index, uint32_t partition)
    {
        const size_t set = setFor(key, index, partition);
        const size_t way = findWay(set, subEntrySharedKey(key));
        if (way == _config.ways)
            return false;
        const size_t sub = findSub(set, way, key);
        if (sub == _sub)
            return false;
        const size_t base = set * _config.ways;
        _subValid[subBase(set, way) + sub] = 0;
        --_occupied;
        ++_stats.invalidations;
        // The last tenant leaving frees the tag (and the way).
        if (--_subFill[base + way] == 0) {
            _tagBytes[set * _wayStride + way] = 0;
            --_setFill[set];
            _policy->invalidate(set, way);
        }
        return true;
    }

    CacheConfig _config;
    std::unique_ptr<ReplacementPolicy> _policy;

    // SoA storage: the tag plane is all the way scan touches; the
    // key array is read per digest match, the value array only on
    // hit/insert/evict.
    std::vector<uint8_t> _tagBytes;
    std::vector<uint64_t> _tagKeys;
    std::vector<V> _values;
    /** Sub-entry planes (subEntries > 1 only; see CacheConfig). */
    size_t _sub = 1;
    std::vector<uint64_t> _subKeys;
    std::vector<uint8_t> _subValid;
    /** Valid sub-entries per (set, way). */
    std::vector<uint8_t> _subFill;
    /** Round-robin sub-victim cursor per (set, way). */
    std::vector<uint8_t> _subVictim;
    /** Valid ways per set; `ways` means the invalid-way scan is moot. */
    std::vector<uint32_t> _setFill;
    /** Tag-plane bytes per set: ways rounded up to 16-lane groups. */
    size_t _wayStride = util::simd::GroupWidth;
    /** Live valid-entry count across all sets. */
    size_t _occupied = 0;

    size_t _setsPerPartition = 1;
    CacheStats _stats;
};

} // namespace hypersio::cache

#endif // HYPERSIO_CACHE_SET_ASSOC_CACHE_HH
