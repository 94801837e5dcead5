/**
 * @file
 * Chipset model: the IOMMU plus the IOVA History Reader of the
 * translation-prefetching scheme (Fig. 6, right side).
 *
 * The History Reader keeps, per Device ID, the most recently used
 * distinct gIOVA pages in main memory (an ample resource, as the
 * paper notes), appending on every demand request the chipset
 * receives. When the device's Prefetch Unit sends a predicted SID,
 * the reader fetches that tenant's history from memory (a short
 * dependent read chain) and issues IOMMU translation requests for
 * the most recent pages. Completions return through the IOMMU's
 * TranslationSink (the System), which routes each to the device's
 * Prefetch Buffer and closes the burst here (prefetchTranslated());
 * as a side effect of walking they warm the IOTLB and
 * paging-structure caches.
 */

#ifndef HYPERSIO_CORE_CHIPSET_HH
#define HYPERSIO_CORE_CHIPSET_HH

#include <vector>

#include "core/config.hh"
#include "iommu/iommu.hh"
#include "sim/sim_object.hh"
#include "util/flat_map.hh"

namespace hypersio::core
{

/** One page in a tenant's gIOVA history. */
struct HistoryPage
{
    mem::Iova pageBase = 0;
    mem::PageSize size = mem::PageSize::Size4K;
};

/**
 * The per-DID gIOVA history and the prefetch state machine. The
 * hardware cost is independent of the tenant count: only the state
 * machine lives in the chipset; histories live in main memory.
 */
class HistoryReader : public sim::SimObject, private mem::MemoryClient
{
  public:
    /**
     * @param device the device whose bursts this reader issues; its
     *        translations carry it in their requester tag
     */
    HistoryReader(const PrefetchConfig &config,
                  sim::EventQueue &queue, stats::StatGroup &parent,
                  iommu::Iommu &iommu, mem::MemoryModel &memory,
                  uint16_t device);

    /** Notes a demand access (updates the in-memory history). */
    void observe(mem::DomainId did, mem::Iova iova,
                 mem::PageSize size);

    /**
     * Starts a prefetch burst for `did` (deduplicated per tenant).
     * @return true when a burst started
     */
    bool prefetch(mem::DomainId did);

    /**
     * One translation of `did`'s burst completed (the sink routes
     * every HistoryPrefetch answer here, after its fill).
     * @return true when it was the burst's last: the burst ended
     */
    bool prefetchTranslated(mem::DomainId did);

    /**
     * Drops `did`'s history (tenant detach). The caller must first
     * wait out any burst prefetch() started for it.
     */
    void retire(mem::DomainId did);

    /** Tenants with history state (O(active), eviction tests). */
    size_t historySize() const { return _history.size(); }

    uint64_t prefetchesStarted() const { return _started.count(); }
    uint64_t prefetchesDeduped() const { return _deduped.count(); }

  private:
    struct TenantHistory
    {
        std::vector<HistoryPage> recent; ///< front = most recent
        /**
         * Steps of the outstanding burst: 1 while the history read
         * is out, then one per translation; 0 when none runs.
         */
        unsigned burst = 0;
    };

    /** The history read of `did`'s burst returned: translate. */
    void chainDone(uint64_t did) override;

    PrefetchConfig _config;
    iommu::Iommu &_iommu;
    mem::MemoryModel &_memory;
    uint16_t _device;
    util::FlatMap<mem::DomainId, TenantHistory> _history;

    stats::Counter &_started;
    stats::Counter &_deduped;
    stats::Counter &_issued;
};

} // namespace hypersio::core

#endif // HYPERSIO_CORE_CHIPSET_HH
