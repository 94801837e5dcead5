/**
 * @file
 * The IOMMU translation subsystem (chipset side of Fig. 3).
 *
 * On a translation request the IOMMU checks its IOTLB (final
 * gIOVA→hPA translations); on a miss it performs a two-dimensional
 * page-table walk, starting from the deepest paging-structure cache
 * hit (L2/L3 TLBs), charging the per-level memory accesses of
 * Fig. 2 / Table II through the MemoryModel. Concurrent walks are
 * bounded by a configurable number of walker slots, and walks to the
 * same page coalesce MSHR-style. Completed walks fill the IOTLB and
 * the paging caches.
 */

#ifndef HYPERSIO_IOMMU_IOMMU_HH
#define HYPERSIO_IOMMU_IOMMU_HH

#include <deque>
#include <vector>

#include "cache/set_assoc_cache.hh"
#include "iommu/keys.hh"
#include "mem/memory_model.hh"
#include "mem/page_table.hh"
#include "sim/sim_object.hh"
#include "util/flat_map.hh"

namespace hypersio::iommu
{

/** Lazily creating directory of per-tenant page tables. */
class PageTableDirectory
{
  public:
    explicit PageTableDirectory(uint64_t seed) : _seed(seed) {}

    /**
     * The page table of `domain`, created on first use. The
     * reference is only stable until the next get() of a *new*
     * domain (the directory is an open-addressed table); callers
     * must not hold it across table creation.
     *
     * A one-entry inline cache short-circuits the table probe: the
     * translation path performs several consecutive get()s of the
     * same domain per packet (ops, walk levels, history), so the
     * repeat rate is very high. The cached pointer is dropped on
     * erase() — a backward-shift erase of *another* domain may move
     * this one's slot — and refreshed on every probing get(), so it
     * can never outlive the entry it names.
     */
    mem::PageTable &
    get(mem::DomainId domain)
    {
        if (domain == _lastDomain && _lastTable)
            return *_lastTable;
        auto [table, inserted] = _tables.tryEmplace(domain);
        if (inserted)
            *table = mem::PageTable(domain, _seed);
        _lastDomain = domain;
        _lastTable = table;
        return *table;
    }

    const mem::PageTable *
    find(mem::DomainId domain) const
    {
        return _tables.find(domain);
    }

    /** Like find(), for callers that must mutate without creating. */
    mem::PageTable *
    findExisting(mem::DomainId domain)
    {
        return _tables.find(domain);
    }

    /**
     * Drops `domain`'s page table entirely (tenant detach).
     * @return true when a table existed.
     */
    bool
    erase(mem::DomainId domain)
    {
        _lastTable = nullptr;
        return _tables.erase(domain);
    }

    size_t size() const { return _tables.size(); }

    /**
     * Visits every live domain ID. Unspecified order (see FlatMap);
     * deterministic callers must sort the IDs they collect.
     */
    template <typename Fn>
    void
    forEachDomain(Fn &&fn) const
    {
        _tables.forEach(
            [&](const mem::DomainId &domain, const mem::PageTable &) {
                fn(domain);
            });
    }

  private:
    uint64_t _seed;
    util::FlatMap<mem::DomainId, mem::PageTable> _tables;
    /** One-entry inline cache for get(); see get() for invalidation
     *  rules. The pointer gates validity, so domain 0 needs no
     *  special-casing. */
    mem::DomainId _lastDomain = 0;
    mem::PageTable *_lastTable = nullptr;
};

/** IOTLB hit latency (Table II: 2 ns). */
constexpr Tick IotlbHitLatency = 2 * TicksPerNs;

/**
 * Anti-starvation bound for queued prefetch walks: after this many
 * consecutive demand dispatches while a prefetch waits, the oldest
 * queued prefetch takes the next walker slot. Demand traffic
 * otherwise starves the prefetch queue forever while its MSHR
 * entries pin walker bookkeeping.
 */
constexpr unsigned PrefetchAgingThreshold = 8;

/** IOMMU configuration (paging caches per Table II / Table IV). */
struct IommuConfig
{
    /**
     * Chipset-side final-translation cache. Unlike the simple
     * device TLB, the IOMMU hashes the domain into the set index,
     * so identical guest gIOVAs from different tenants spread over
     * all sets.
     */
    cache::CacheConfig iotlb{4096, 8, 1, cache::ReplPolicyKind::LFU,
                             1, true};
    cache::CacheConfig l2tlb{512, 16, 1, cache::ReplPolicyKind::LFU,
                             2};
    cache::CacheConfig l3tlb{1024, 16, 1, cache::ReplPolicyKind::LFU,
                             3};
    /**
     * Concurrent page-table walks; 0 = unlimited (the paper's
     * latency-only model).
     */
    unsigned walkers = 0;
    /**
     * Paging depth of both walk dimensions: 4 (24-access full walk)
     * or 5 (35 accesses, 5-level paging / 5-level EPT).
     */
    unsigned pagingLevels = 4;
};

/** Who asked for a translation, and so where its answer goes. */
enum class Requester : uint8_t
{
    Demand,          ///< a device's PTB entry (packet translation)
    HistoryPrefetch, ///< a device's IOVA History Reader burst
    MmuPrefetch,     ///< a device's MMU-aware DMA prefetcher
};

/**
 * The requester tag a translation carries from its issuer to the
 * TranslationSink: the requester kind, the issuing device, and for
 * demand requests the PTB slot awaiting the answer.
 */
struct RequesterTag
{
    Requester kind = Requester::Demand;
    uint16_t device = 0;
    uint32_t slot = 0;
};

/**
 * One translation request presented to the IOMMU. The members are
 * ordered to pack into three words.
 */
struct IommuRequest
{
    mem::DomainId domain = 0;
    mem::PageSize size = mem::PageSize::Size4K;
    RequesterTag tag;
    mem::Iova iova = 0;

    /** Issued by a prefetcher rather than by a PTB entry. */
    bool prefetch() const { return tag.kind != Requester::Demand; }
};

// Three words, so that every event closure carrying a request fits
// the event kernel's 48-byte inline callback buffer; the largest, an
// IOTLB hit's, is (Iommu *, request, response).
static_assert(sizeof(IommuRequest) <= 24,
              "IommuRequest must stay three words");

/** The IOMMU's answer. */
struct IommuResponse
{
    mem::Addr hostAddr = 0;
    bool valid = false;   ///< false = translation fault (unmapped)
    bool iotlbHit = false;
};

/**
 * Where the IOMMU's answers go: one typed call per completed
 * request, routed by the request's tag.
 */
class TranslationSink
{
  public:
    /**
     * `req` completed with `resp`. For a request coalesced onto
     * another's walk, `req` is the walk's request (same domain,
     * page and size) under the coalesced request's tag.
     *
     * `tail` is true when the delivery is in tail position — the
     * end of an IOTLB-hit event or a fused continuation of one, or
     * the last delivery of a walk completion that nothing follows —
     * so the sink may fuse its own next hop. A walk completion fans
     * out to coalesced waiters and may start queued walks afterwards,
     * so its other deliveries never are.
     */
    virtual void translated(const IommuRequest &req,
                            const IommuResponse &resp, bool tail) = 0;

  protected:
    ~TranslationSink() = default;
};

/**
 * The IOMMU performance model. Completions go to the TranslationSink;
 * the sink adds any interconnect (PCIe) latency itself.
 */
class Iommu : public sim::SimObject, private mem::MemoryClient
{
  public:
    Iommu(const IommuConfig &config, sim::EventQueue &queue,
          stats::StatGroup &parent, mem::MemoryModel &memory,
          PageTableDirectory &tables, TranslationSink &sink);

    /**
     * Asynchronously translates `req`; the sink hears of it on
     * completion. With `may_fuse` (the caller is in tail position of
     * an event callback) an IOTLB hit's fixed latency may collapse
     * into a synchronous delivery at the identical (tick, seq) the
     * hit event would have had, and so may a walk's
     * completion on unbounded memory; coalesced requests and queued
     * walks always take the event path.
     */
    void translate(const IommuRequest &req, bool may_fuse = false);

    /**
     * Invalidates any cached final translation of the page at `iova`
     * (called on driver unmap). Paging-structure entries stay valid:
     * the intermediate table pointers do not change on leaf unmap.
     */
    void invalidate(mem::DomainId domain, mem::Iova iova,
                    mem::PageSize size);

    /** Drops every cached entry (global invalidation). */
    void flushAll();

    const cache::CacheStats &iotlbStats() const
    {
        return _iotlb.stats();
    }
    const cache::CacheStats &l2Stats() const { return _l2.stats(); }
    const cache::CacheStats &l3Stats() const { return _l3.stats(); }

    /** Valid IOTLB entries (O(entries); shadow checks and tests). */
    size_t iotlbOccupancy() const { return _iotlb.occupancy(); }
    size_t l2Occupancy() const { return _l2.occupancy(); }
    size_t l3Occupancy() const { return _l3.occupancy(); }

    /** Walks currently occupying a walker slot. */
    unsigned activeWalks() const { return _activeWalks; }
    /** Queued prefetch walks promoted by the aging bound. */
    uint64_t prefetchPromotions() const
    {
        return _prefetchPromotions.count();
    }
    /** Walks waiting for a walker slot. */
    size_t queuedWalks() const
    {
        return _demandQueue.size() + _prefetchQueue.size();
    }

  private:
    struct Walk
    {
        IommuRequest req;
        uint64_t key;
        /** Every request waiting on the walk, the walk's own first. */
        std::vector<RequesterTag> waiters;
    };

    /** `may_fuse`: the caller is in tail position (see translate). */
    void startWalk(uint64_t key, bool may_fuse);
    /** The walk with MSHR key `key` read its last table entry. */
    void chainDone(uint64_t key) override;
    /** Fills the caches and delivers to the waiters; the last one
     *  is in tail position when `last_in_tail`. */
    void finishWalk(Walk &walk, const mem::Translation &xlate,
                    bool last_in_tail);
    void dispatchQueued();
    unsigned walkAccessesFor(const IommuRequest &req);

    IommuConfig _config;
    mem::MemoryModel &_memory;
    PageTableDirectory &_tables;
    TranslationSink &_sink;

    cache::SetAssocCache<IommuResponse> _iotlb;
    /** Paging-structure caches; the value is unused (presence only). */
    cache::SetAssocCache<uint8_t> _l2;
    cache::SetAssocCache<uint8_t> _l3;

    /** In-flight walks by translation key (MSHR coalescing). */
    util::FlatMap<uint64_t, Walk> _mshr;
    unsigned _activeWalks = 0;
    std::deque<uint64_t> _demandQueue;
    std::deque<uint64_t> _prefetchQueue;
    /** Demand dispatches since the last prefetch dispatch while a
     *  prefetch waited (aging bound input). */
    unsigned _demandStreak = 0;

    stats::Counter &_requests;
    stats::Counter &_prefetchRequests;
    stats::Counter &_iotlbHits;
    stats::Counter &_walks;
    stats::Counter &_coalesced;
    stats::Counter &_faults;
    stats::Counter &_prefetchPromotions;
    stats::Histogram &_walkAccessHist;
};

} // namespace hypersio::iommu

#endif // HYPERSIO_IOMMU_IOMMU_HH
