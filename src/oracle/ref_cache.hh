/**
 * @file
 * Untimed reference model of a set-associative, partitioned
 * translation cache (the oracle twin of cache::SetAssocCache).
 *
 * The mirror is event-driven: the shadow hooks report every fill,
 * eviction, invalidation, and flush the timed cache performs, so the
 * mirror's contents are exactly the timed cache's contents at all
 * times. That makes hit/miss classification checks exact — no
 * replacement-policy modelling is needed, because evictions arrive
 * as events rather than being predicted.
 *
 * What the mirror *does* verify independently:
 *   - row legality: every fill and lookup must land in the set group
 *     owned by the request's partition tag (the P-DevTLB PTag rule),
 *   - capacity: never more than `ways` keys per set or `entries`
 *     keys total,
 *   - classification: a reported hit must be a key the mirror holds
 *     (and with the very value the timed cache returned), a reported
 *     miss must not be,
 *   - eviction sanity: an evicted key must have been resident.
 *
 * Layout: the key -> (value, set) index and, in sub-entry mode, the
 * tenant count of each (set, shared tag) live in the oracle's own
 * RefTable (oracle/ref_table.hh); the per-set way counts and each
 * set's PTag row group are vectors sized by configure(). A passing
 * check builds no string: messages are formatted on failure only, by
 * the cold violation() (oracle/violation.hh).
 */

#ifndef HYPERSIO_ORACLE_REF_CACHE_HH
#define HYPERSIO_ORACLE_REF_CACHE_HH

#include <algorithm>
#include <bit>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "mem/addr.hh"
#include "oracle/ref_table.hh"
#include "oracle/violation.hh"

namespace hypersio::oracle
{

/**
 * Domain-independent low key bits shared by co-located tenants in
 * sub-entry mode. Mirrors cache::SubEntrySharedKeyBits — duplicated
 * because the oracle layer links against mem+util only.
 */
constexpr unsigned RefSubEntrySharedKeyBits = 40;

constexpr uint64_t
refSubEntrySharedKey(uint64_t key)
{
    return key & ((uint64_t(1) << RefSubEntrySharedKeyBits) - 1);
}

/** Event-driven mirror of one timed cache instance. */
class CacheMirror
{
  public:
    CacheMirror() = default;

    /**
     * @param check_values compare cached values on hits (final
     *        translation caches); presence-only caches (the paging
     *        structure caches) pass false
     * @param sub_entries sub-entries per shared tag (1 disables; the
     *        mirror then counts ways in *tags* and allows
     *        `sub_entries` tenants behind each)
     */
    void
    configure(std::string name, size_t entries, size_t ways,
              size_t partitions, bool check_values = true,
              size_t sub_entries = 1)
    {
        _name = std::move(name);
        _entries = entries;
        _ways = ways;
        _partitions = partitions ? partitions : 1;
        _sets = ways ? entries / ways : 0;
        _checkValues = check_values;
        _subEntries = sub_entries ? sub_entries : 1;
        // The row group of each set, so that checkRow divides by
        // nothing per event.
        const size_t per_partition =
            std::max<size_t>(1, _sets / _partitions);
        _rowGroup.resize(_sets);
        for (size_t set = 0; set < _sets; ++set)
            _rowGroup[set] = static_cast<uint32_t>(set / per_partition);
        _partitionsPow2 = std::has_single_bit(_partitions);
        _map.reset(_entries * _subEntries);
        _setCount.assign(_sets, 0);
        _tagRefs.reset(_subEntries > 1 ? _entries : 0);
    }

    /**
     * Checks that `set` is a row the partition tag may legally use.
     * @return violation message, or nullopt when legal
     */
    std::optional<std::string>
    checkRow(uint64_t key, size_t set, uint32_t partition_tag) const
    {
        if (set >= _sets) [[unlikely]] {
            return violation("%s: key %#llx uses set %zu beyond the "
                             "%zu sets",
                             _name.c_str(),
                             (unsigned long long)key, set, _sets);
        }
        const uint32_t legal =
            _partitionsPow2 ? partition_tag & uint32_t(_partitions - 1)
                            : uint32_t(partition_tag % _partitions);
        if (_rowGroup[set] != legal) [[unlikely]] {
            return violation(
                "%s: PTag violation — key %#llx (tag %u) allocated "
                "row group %zu, legal group is %zu",
                _name.c_str(), (unsigned long long)key,
                partition_tag, size_t(_rowGroup[set]), size_t(legal));
        }
        return std::nullopt;
    }

    /** Verifies a lookup's hit/miss classification and hit value. */
    std::optional<std::string>
    lookup(uint64_t key, size_t set, uint32_t partition_tag,
           bool hit, mem::Addr value) const
    {
        if (auto err = checkRow(key, set, partition_tag)) [[unlikely]]
            return err;
        return classify(key, hit, value, _map.find(key));
    }

    /**
     * lookup() of a buffer whose hits consume their entry (the
     * Prefetch Buffer): one probe checks the lookup and removes the
     * entry a reported hit found.
     */
    std::optional<std::string>
    lookupAndConsume(uint64_t key, size_t set, uint32_t partition_tag,
                     bool hit, mem::Addr value)
    {
        if (auto err = checkRow(key, set, partition_tag)) [[unlikely]]
            return err;
        const size_t slot = _map.slotOf(key);
        const Entry *entry =
            slot == _map.npos ? nullptr : &_map.valueAt(slot);
        auto err = classify(key, hit, value, entry);
        if (hit && entry)
            erase(slot);
        return err;
    }

    /**
     * Applies a fill (with its reported eviction, if any). A fill
     * without an eviction probes the mirror once.
     */
    std::optional<std::string>
    fill(uint64_t key, size_t set, uint32_t partition_tag,
         mem::Addr value, const std::optional<uint64_t> &evicted)
    {
        if (auto err = checkRow(key, set, partition_tag)) [[unlikely]]
            return err;
        uint32_t victim_set = 0;
        if (evicted) {
            const Entry *victim = _map.find(*evicted);
            if (!victim) [[unlikely]] {
                return violation(
                    "%s: fill of %#llx evicted %#llx which the "
                    "reference never held",
                    _name.c_str(), (unsigned long long)key,
                    (unsigned long long)*evicted);
            }
            victim_set = victim->set;
        }
        auto [entry, inserted] = _map.tryEmplace(key);
        if (!inserted) {
            if (evicted) [[unlikely]] {
                return violation(
                    "%s: in-place update of %#llx reported an "
                    "eviction of %#llx",
                    _name.c_str(), (unsigned long long)key,
                    (unsigned long long)*evicted);
            }
            if (entry->set != set) [[unlikely]] {
                return violation("%s: key %#llx moved from set %u "
                                 "to set %zu",
                                 _name.c_str(),
                                 (unsigned long long)key, entry->set,
                                 set);
            }
        }
        *entry = {value, static_cast<uint32_t>(set)};
        if (evicted)
            evict(key, *evicted, victim_set);
        if (inserted) {
            if (_subEntries > 1) {
                // _setCount tracks distinct shared tags per set.
                unsigned &refs = _tagRefs[tagKeyOf(set, key)];
                if (++refs == 1)
                    ++_setCount[set];
                if (refs > _subEntries) [[unlikely]] {
                    return violation(
                        "%s: tag %#llx in set %zu carries %u "
                        "tenants but has only %zu sub-entries "
                        "(missed sub-eviction)",
                        _name.c_str(),
                        (unsigned long long)refSubEntrySharedKey(
                            key),
                        set, refs, _subEntries);
                }
            } else {
                ++_setCount[set];
            }
        }
        if (_setCount[set] > _ways) [[unlikely]] {
            return violation(
                "%s: set %zu holds %u keys but has only %zu ways "
                "(missed eviction)",
                _name.c_str(), set, _setCount[set], _ways);
        }
        if (_map.size() > _entries * _subEntries) [[unlikely]] {
            return violation("%s: %zu resident keys exceed the %zu "
                             "entries",
                             _name.c_str(), _map.size(),
                             _entries * _subEntries);
        }
        return std::nullopt;
    }

    /** Applies an invalidation and checks the removal outcome. */
    std::optional<std::string>
    invalidated(uint64_t key, bool removed)
    {
        const size_t slot = _map.slotOf(key);
        const bool mirror_had = slot != _map.npos;
        if (removed != mirror_had) [[unlikely]] {
            return violation(
                "%s: invalidate of key %#llx %s but the reference "
                "%s it",
                _name.c_str(), (unsigned long long)key,
                removed ? "removed an entry" : "found nothing",
                mirror_had ? "holds" : "does not hold");
        }
        if (mirror_had)
            erase(slot);
        return std::nullopt;
    }

    void
    flush()
    {
        _map.clear();
        _setCount.assign(_sets, 0);
        _tagRefs.clear();
    }

    bool contains(uint64_t key) const { return _map.contains(key); }
    size_t size() const { return _map.size(); }
    const std::string &name() const { return _name; }

  private:
    struct Entry
    {
        mem::Addr value = 0;
        uint32_t set = 0;
    };

    /** Checks a lookup against the mirror's `entry` for `key`. */
    std::optional<std::string>
    classify(uint64_t key, bool hit, mem::Addr value,
             const Entry *entry) const
    {
        const bool mirror_hit = entry != nullptr;
        if (hit != mirror_hit) [[unlikely]] {
            return violation(
                "%s: lookup of key %#llx reported a %s but the "
                "reference holds %s entry",
                _name.c_str(), (unsigned long long)key,
                hit ? "hit" : "miss", mirror_hit ? "that" : "no");
        }
        if (hit && _checkValues && value != entry->value) [[unlikely]] {
            return violation(
                "%s: hit on key %#llx returned %#llx, reference "
                "holds %#llx",
                _name.c_str(), (unsigned long long)key,
                (unsigned long long)value,
                (unsigned long long)entry->value);
        }
        return std::nullopt;
    }

    /**
     * Key of `_tagRefs` for (set, key): sets are small and the
     * shared key is 40 bits, so the pair packs uniquely.
     */
    static uint64_t
    tagKeyOf(size_t set, uint64_t key)
    {
        return (uint64_t(set) << RefSubEntrySharedKeyBits) |
               refSubEntrySharedKey(key);
    }

    /** Removes the victim a fill of `key` reported. */
    void
    evict(uint64_t key, uint64_t victim, uint32_t victim_set)
    {
        const uint64_t shared = refSubEntrySharedKey(victim);
        if (_subEntries == 1 || shared == refSubEntrySharedKey(key)) {
            erase(_map.slotOf(victim));
            return;
        }
        // A reported eviction whose shared tag differs from the
        // fill's can only be a whole-tag eviction (a matching tag
        // would have taken the tag-hit path): every tenant behind
        // the victim tag dies with it, and the timed cache names one
        // representative.
        _dead.clear();
        _map.forEach([&](uint64_t k, const Entry &entry) {
            if (entry.set == victim_set &&
                refSubEntrySharedKey(k) == shared)
                _dead.push_back(k);
        });
        for (uint64_t k : _dead)
            erase(_map.slotOf(k));
    }

    /** Removes the resident key in `slot` of the index. */
    void
    erase(size_t slot)
    {
        const uint64_t key = _map.keyAt(slot);
        const uint32_t set = _map.valueAt(slot).set;
        // In sub-entry mode a way frees only when the last tenant
        // behind its shared tag leaves.
        bool tag_freed = true;
        if (_subEntries > 1) {
            const uint64_t tag = tagKeyOf(set, key);
            unsigned *refs = _tagRefs.find(tag);
            tag_freed = refs && --*refs == 0;
            if (tag_freed)
                _tagRefs.erase(tag);
        }
        if (tag_freed && _setCount[set] > 0)
            --_setCount[set];
        _map.eraseAt(slot);
    }

    std::string _name;
    size_t _entries = 0;
    size_t _ways = 0;
    size_t _partitions = 1;
    size_t _sets = 0;
    /** A power-of-two partition count masks the tag, never divides. */
    bool _partitionsPow2 = true;
    bool _checkValues = true;
    size_t _subEntries = 1;
    RefTable<Entry> _map;
    /** Row group (legal PTag residue) of each set. */
    std::vector<uint32_t> _rowGroup;
    /** sub==1: keys per set. sub>1: distinct shared tags per set. */
    std::vector<unsigned> _setCount;
    /** Tenants behind each (set, shared tag); sub>1 only. */
    RefTable<unsigned> _tagRefs;
    /** Scratch list of a whole-tag eviction's victims. */
    std::vector<uint64_t> _dead;
};

} // namespace hypersio::oracle

#endif // HYPERSIO_ORACLE_REF_CACHE_HH
