/**
 * @file
 * The shared multi-tenant I/O device (Fig. 3 / Fig. 6).
 *
 * Owns the packet-handling front end: Context Cache, Pending
 * Translation Buffer, (optionally partitioned) Device TLB, and the
 * Prefetch Unit. The device does not know about the chipset's
 * internals: translation and prefetch requests leave through its
 * ChipsetPort (the System, which adds the PCIe latency), tagged with
 * the device's index and, for demand requests, the PTB slot; the
 * answer to a demand request comes back as translated(slot, resp).
 */

#ifndef HYPERSIO_CORE_DEVICE_HH
#define HYPERSIO_CORE_DEVICE_HH

#include <memory>
#include <unordered_set>

#include "cache/oracle_feed.hh"
#include "core/config.hh"
#include "core/prefetch.hh"
#include "core/ptb.hh"
#include "iommu/context_cache.hh"
#include "iommu/iommu.hh"
#include "sim/sim_object.hh"
#include "util/flat_map.hh"

namespace hypersio::core
{

/**
 * The device's outbound link to the chipset, implemented by the
 * System. Every request carries the issuing device's requester tag.
 */
class ChipsetPort
{
  public:
    /**
     * Sends demand request `req` (tag: Demand, device, PTB slot);
     * the answer must come back exactly once, as
     * Device::translated(slot, resp).
     *
     * With `may_fuse` the caller is in tail position of an event
     * callback, so the port may collapse its deterministic hops via
     * EventQueue::tryFuseAdvance() and run the continuation
     * synchronously at the same (tick, seq) a scheduled hop would
     * have had; without it the port must schedule
     * event-per-hop. translated() must likewise be called only from
     * tail position (a scheduled event's end, or a fused
     * continuation of one) or outside run() entirely.
     */
    virtual void translate(const iommu::IommuRequest &req,
                           bool may_fuse) = 0;
    /**
     * SID-predictor prefetch of `did`'s history for `device`
     * (fire-and-forget; results come back via prefetchFill()).
     */
    virtual void prefetch(uint16_t device, mem::DomainId did) = 0;
    /**
     * MMU-aware prefetch of one predicted page (tag: MmuPrefetch,
     * device; fire-and-forget, results come back via
     * prefetchFill()).
     */
    virtual void prefetchPage(const iommu::IommuRequest &req) = 0;

  protected:
    ~ChipsetPort() = default;
};

/** The I/O device performance model. */
class Device : public sim::SimObject
{
  public:
    /**
     * @param index the device's index in its System (requester tags)
     * @param oracle future-knowledge feed for Belady DevTLB
     *        replacement, or nullptr for ordinary policies
     */
    Device(const DeviceConfig &config, sim::EventQueue &queue,
           stats::StatGroup &parent, ChipsetPort &chipset,
           uint16_t index, cache::OracleFeed *oracle = nullptr);

    /** Completion interface of the run loops (see ptb.hh). */
    using CompletionSink = PacketCompletionSink;

    /** True when no PTB entry is available. */
    bool ptbFull() const { return _ptb.full(); }

    /**
     * Accepts a packet (the caller applied its page ops already) and
     * starts its translation chain. `sink.packetDone(packet)` fires
     * when all three translations complete; the packet is then fully
     * processed. The sink must outlive the packet.
     */
    void accept(const trace::PacketRecord &packet,
                CompletionSink &sink);

    /** The chipset answered PTB entry `idx`'s outstanding request. */
    void translated(unsigned idx, const iommu::IommuResponse &resp);

    /**
     * A prefetched translation left the chipset for this device
     * (System calls this when it schedules the PCIe hop of a fill).
     * Pairs with exactly one later prefetchFill() of the same page;
     * an invalidatePage() in between squashes that fill instead of
     * letting it install a stale translation.
     */
    void prefetchFillDispatched(mem::DomainId did, mem::Iova iova,
                                mem::PageSize size);

    /** Installs a prefetched translation into the Prefetch Buffer. */
    void prefetchFill(mem::DomainId did, mem::Iova iova,
                      mem::PageSize size, mem::Addr host_addr);

    /** Driver unmap: drops cached translations of the page. */
    void invalidatePage(mem::DomainId did, mem::Iova iova,
                        mem::PageSize size);

    /**
     * Tenant detach: forgets the SID's predictor entry so a later
     * tenant recycling the SID starts untrained. Cached translations
     * must already be gone (the System unmaps every page first).
     */
    void retireSid(trace::SourceId sid);

    /**
     * Tenant detach, MMU-prefetcher half: drops the tenant's stream
     * detectors so a later tenant recycling the DID starts untrained.
     */
    void retireDomain(mem::DomainId did);

    const cache::CacheStats &devtlbStats() const
    {
        return _devtlb.stats();
    }
    const cache::CacheStats &contextStats() const
    {
        return _context.stats();
    }
    const cache::CacheStats *
    prefetchBufferStats() const
    {
        return _prefetchUnit ? &_prefetchUnit->bufferStats() : nullptr;
    }

    uint64_t translationsIssued() const
    {
        return _translations.count();
    }
    /** Valid DevTLB entries (O(entries); shadow checks and tests). */
    size_t devtlbOccupancy() const { return _devtlb.occupancy(); }
    /** Valid Prefetch Buffer entries (0 without a prefetch unit). */
    size_t
    prefetchBufferOccupancy() const
    {
        return _prefetchUnit ? _prefetchUnit->bufferOccupancy() : 0;
    }
    /** Live MMU-prefetch stream detectors (0 without a unit). */
    size_t
    mmuStreams() const
    {
        return _prefetchUnit ? _prefetchUnit->mmuStreams() : 0;
    }
    /** Live PTB slots. */
    unsigned ptbInUse() const { return _ptb.inUse(); }
    uint64_t pbHits() const { return _pbHits.count(); }
    /** Accept-to-complete latency of every completed packet (ns). */
    const stats::Histogram &packetLatency() const
    {
        return _packetLatency;
    }
    uint64_t prefetchesSent() const { return _prefetchesSent.count(); }
    /** Fills dropped because their page was invalidated mid-flight. */
    uint64_t demandFillsSquashed() const
    {
        return _demandFillsSquashed.count();
    }
    uint64_t prefetchFillsSquashed() const
    {
        return _prefetchFillsSquashed.count();
    }

  private:
    /**
     * Issues the remaining translation requests of PTB entry `idx`,
     * fusing consecutive deterministic hits into one dispatch when
     * `may_fuse` (the caller is in tail position of an event
     * callback — the chain events and response deliveries are; the
     * admission path inside an arrival event is not). All in-flight
     * state lives in the entry itself, so the continuation events
     * only carry (this, idx).
     */
    void issueNext(unsigned idx, bool may_fuse);
    /**
     * Resolves one request through PB → DevTLB → chipset.
     * @return true when the hit hop was fused (time already advanced
     *         to the hit's tick) and the caller may continue the
     *         chain synchronously; false when the continuation was
     *         scheduled or handed to the chipset port.
     */
    bool resolve(unsigned idx, trace::ReqClass cls, bool may_fuse);
    /** Triggers a SID prediction + prefetch on a PB miss. */
    void maybePrefetch(trace::SourceId sid);
    /** Issues the (did, cls) stream's predicted pages (MmuDma). */
    void maybeMmuPrefetch(mem::DomainId did, trace::ReqClass cls);

    /**
     * In-flight fill tracking (ATS-style invalidation semantics):
     * every translation whose result may later install into the
     * DevTLB or the Prefetch Buffer is marked when it leaves the
     * device side and consumed when its fill arrives. An unmap's
     * invalidatePage() marks every fill then in flight for the page
     * as squashed; same-key fills complete in dispatch order (MSHR
     * coalescing plus the fixed PCIe return leg), so the first
     * `squash` completions are exactly the pre-invalidate ones.
     */
    struct InFlightFill
    {
        uint32_t count = 0;  ///< fills on the wire for this key
        uint32_t squash = 0; ///< leading fills to drop on arrival
    };

    void markFillInFlight(uint64_t key);
    /** @return true when this arrival was invalidated mid-flight. */
    bool consumeFill(uint64_t key);

    DeviceConfig _config;
    ChipsetPort &_chipset;
    uint16_t _index;
    PendingTranslationBuffer _ptb;
    cache::SetAssocCache<mem::Addr> _devtlb;
    iommu::ContextCache _context;
    std::unique_ptr<PrefetchUnit> _prefetchUnit;
    cache::OracleFeed *_oracle;
    /** In-flight fills by translation key (see markFillInFlight). */
    util::FlatMap<uint64_t, InFlightFill> _fillsInFlight;
    /** Scratch page list for maybeMmuPrefetch (no per-call alloc). */
    std::vector<mem::Iova> _mmuPages;

    stats::Counter &_packets;
    stats::Counter &_translations;
    stats::Counter &_devtlbHits;
    stats::Counter &_pbHits;
    stats::Counter &_prefetchesSent;
    stats::Counter &_prefetchFills;
    stats::Counter &_demandFillsSquashed;
    stats::Counter &_prefetchFillsSquashed;
    stats::Histogram &_packetLatency;
};

} // namespace hypersio::core

#endif // HYPERSIO_CORE_DEVICE_HH
