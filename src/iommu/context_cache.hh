/**
 * @file
 * Context Cache: maps a request's Source ID (PCIe Bus/Device/Function)
 * to its Context Entry — the tenant's Domain ID and second-level
 * page-table root (step 1-2 in the paper's Fig. 3). Only capacity is
 * modelled: a miss is filled from resolve() and charges no time.
 */

#ifndef HYPERSIO_IOMMU_CONTEXT_CACHE_HH
#define HYPERSIO_IOMMU_CONTEXT_CACHE_HH

#include "cache/set_assoc_cache.hh"
#include "mem/page_table.hh"
#include "util/logging.hh"
#include "trace/record.hh"

namespace hypersio::iommu
{

/** A cached context entry. */
struct ContextEntry
{
    mem::DomainId domain = 0;
};

/**
 * Set-associative cache of context entries. The (SID, PASID) → DID
 * mapping itself is established by the hypervisor when a VF (or,
 * with Scalable IOV, a process-level assignable interface) is
 * assigned; all consumers go through this cache so its
 * capacity/latency effects are modelled.
 */
class ContextCache
{
  public:
    /**
     * Source IDs supported in the DID encoding: the SID occupies the
     * low bits of the Domain ID (did = pasid * SidSpace + sid), so
     * everything keyed by "did mod partitions" — the PTag row
     * selection of the partitioned caches — behaves exactly as if
     * keyed by the SID, as the paper specifies, while distinct
     * PASIDs still name distinct address spaces.
     */
    static constexpr uint32_t SidSpace = trace::SidSpace;

    explicit ContextCache(const cache::CacheConfig &config)
        : _cache(config)
    {}

    /**
     * Looks up the context entry for (`sid`, `pasid`).
     * @return entry pointer, or nullptr on miss (the caller fills
     *         the entry from resolve())
     */
    const ContextEntry *
    lookup(trace::SourceId sid, uint16_t pasid = 0)
    {
        const uint64_t key = contextKey(sid, pasid);
        return _cache.lookup(key, key);
    }

    /** Installs the entry for (`sid`, `pasid`). */
    void
    fill(trace::SourceId sid, uint16_t pasid,
         const ContextEntry &entry)
    {
        const uint64_t key = contextKey(sid, pasid);
        _cache.insert(key, key, entry);
    }

    /** The authoritative (SID, PASID) → DID mapping. */
    static ContextEntry
    resolve(trace::SourceId sid, uint16_t pasid = 0)
    {
        HYPERSIO_ASSERT(sid < SidSpace,
                        "SID %u exceeds the DID encoding", sid);
        return ContextEntry{static_cast<mem::DomainId>(
            static_cast<uint32_t>(pasid) * SidSpace + sid)};
    }

    /** Recovers the SID from an encoded Domain ID. */
    static constexpr trace::SourceId
    sidOf(mem::DomainId domain)
    {
        return static_cast<trace::SourceId>(domain % SidSpace);
    }

    /** Packs (sid, pasid) into one cache key. */
    static constexpr uint64_t
    contextKey(trace::SourceId sid, uint16_t pasid)
    {
        return (static_cast<uint64_t>(sid) << 16) | pasid;
    }

    const cache::CacheStats &stats() const { return _cache.stats(); }
    /** See SetAssocCache::exportStats(). */
    void
    exportStats(stats::StatGroup &group) const
    {
        _cache.exportStats(group);
    }
    void flush() { _cache.flush(); }

  private:
    cache::SetAssocCache<ContextEntry> _cache;
};

} // namespace hypersio::iommu

#endif // HYPERSIO_IOMMU_CONTEXT_CACHE_HH
