/**
 * @file
 * Device-side Prefetch Unit: Prefetch Buffer + SID-predictor
 * (Section III, "Translation Prefetching Scheme").
 *
 * The SID-predictor is a direct-mapped table from the currently
 * accessed Source ID to a predicted future Source ID, trained online
 * from the observed SID stream with a host-configured history-length
 * register: the prediction for SID s is the SID that arrived
 * `historyLength` packets after s's last arrival. Under round-robin
 * arbitration this converges to "the tenant scheduled H slots later",
 * giving the prefetcher exactly enough lead time to cover the
 * translation latency.
 *
 * The Prefetch Buffer is a small fully-associative cache of
 * gIOVA→hPA translations shared by all tenants, filled only by
 * prefetch completions and checked concurrently with the DevTLB.
 */

#ifndef HYPERSIO_CORE_PREFETCH_HH
#define HYPERSIO_CORE_PREFETCH_HH

#include <vector>
#include <optional>

#include "cache/set_assoc_cache.hh"
#include "core/config.hh"
#include "iommu/keys.hh"
#include "trace/record.hh"
#include "util/flat_map.hh"

namespace hypersio::core
{

/** Online next-SID predictor with a configurable history stride. */
class SidPredictor
{
  public:
    explicit SidPredictor(unsigned history_length)
        : _historyLength(history_length),
          _window(history_length + 1)
    {}

    /** Observes the SID of an arriving packet and trains the table. */
    void
    train(trace::SourceId sid)
    {
        pushBack(sid);
        if (_count > _historyLength) {
            _table[front()] = sid;
            popFront();
        }
    }

    /** Prediction for the tenant `historyLength` packets ahead. */
    std::optional<trace::SourceId>
    predict(trace::SourceId sid) const
    {
        const trace::SourceId *next = _table.find(sid);
        if (!next)
            return std::nullopt;
        return *next;
    }

    /**
     * Forgets the prediction entry keyed by a retired SID. Window
     * slots still holding the SID are left alone: they age out in at
     * most historyLength packets, exactly as a recycled SID would
     * retrain them in hardware.
     * @return true if an entry existed
     */
    bool retire(trace::SourceId sid) { return _table.erase(sid); }

    size_t tableSize() const { return _table.size(); }

  private:
    // The observation window is a fixed circular buffer: train()
    // runs for every packet, and a deque's branchy block management
    // was measurable on the translation path. Capacity is
    // historyLength + 1 (one transient slot between the push and
    // the paired eviction).
    trace::SourceId front() const { return _window[_head]; }

    void
    pushBack(trace::SourceId sid)
    {
        size_t p = _head + _count;
        if (p >= _window.size())
            p -= _window.size();
        _window[p] = sid;
        ++_count;
    }

    void
    popFront()
    {
        ++_head;
        if (_head == _window.size())
            _head = 0;
        --_count;
    }

    unsigned _historyLength;
    std::vector<trace::SourceId> _window; ///< circular buffer
    size_t _head = 0;
    size_t _count = 0;
    util::FlatMap<trace::SourceId, trace::SourceId> _table;
};

/** A translation held in the Prefetch Buffer. */
struct PrefetchEntry
{
    mem::Addr hostAddr = 0;
};

/** Confidence cap of the MMU-aware stride detector. */
constexpr unsigned MaxMmuConfidence = 3;

/**
 * Stride state of one (tenant, request-class) DMA stream — the
 * MMU-aware prefetcher's per-stream detector (PrefetchKind::MmuDma).
 */
struct MmuStreamState
{
    mem::Iova lastPage = 0;
    int64_t stride = 0;
    unsigned confidence = 0;
    bool primed = false;
    mem::PageSize size = mem::PageSize::Size4K;
};

/**
 * The Prefetch Unit: owns the Prefetch Buffer and the SID-predictor.
 * The device consults it in parallel with the DevTLB and notifies it
 * of packet arrivals for training.
 */
class PrefetchUnit
{
  public:
    explicit PrefetchUnit(const PrefetchConfig &config)
        : _config(config),
          _buffer({config.bufferEntries,
                   config.bufferEntries, // fully associative
                   1, cache::ReplPolicyKind::LRU, 13}),
          _predictor(config.historyLength)
    {}

    const PrefetchConfig &config() const { return _config; }

    /** Trains the predictor with an arriving packet's SID. */
    void observePacket(trace::SourceId sid) { _predictor.train(sid); }

    /**
     * Checks the Prefetch Buffer for a translation. A hit consumes
     * the entry: the buffer is a staging area between the prefetcher
     * and the packet that needed the translation, and freeing on use
     * keeps its eight entries available for upcoming fills.
     * @return true on hit (with the host address in `host_addr`)
     */
    bool
    lookup(mem::DomainId did, mem::Iova iova, mem::PageSize size,
           mem::Addr &host_addr)
    {
        const uint64_t key = iommu::translationKey(did, iova, size);
        const uint64_t index = iommu::translationIndex(iova, size);
        PrefetchEntry *entry = _buffer.lookup(key, index);
        if (!entry)
            return false;
        host_addr = entry->hostAddr;
        _buffer.invalidate(key, index);
        return true;
    }

    /**
     * Installs a completed prefetch translation.
     * @return the key evicted to make room, if any
     */
    std::optional<uint64_t>
    fill(mem::DomainId did, mem::Iova iova, mem::PageSize size,
         mem::Addr host_addr)
    {
        auto evicted =
            _buffer.insert(iommu::translationKey(did, iova, size),
                           iommu::translationIndex(iova, size),
                           PrefetchEntry{host_addr});
        if (!evicted)
            return std::nullopt;
        return evicted->key;
    }

    /** Drops a buffered translation (driver unmap). @return removed */
    bool
    invalidate(mem::DomainId did, mem::Iova iova, mem::PageSize size)
    {
        return _buffer.invalidate(
            iommu::translationKey(did, iova, size),
            iommu::translationIndex(iova, size));
    }

    /** SID to prefetch for, given the current packet's SID. */
    std::optional<trace::SourceId>
    predict(trace::SourceId sid) const
    {
        return _predictor.predict(sid);
    }

    SidPredictor &predictor() { return _predictor; }
    const cache::CacheStats &bufferStats() const
    {
        return _buffer.stats();
    }
    /** Valid buffer entries (O(entries); shadow checks and tests). */
    size_t bufferOccupancy() const { return _buffer.occupancy(); }

    // ---- MMU-aware DMA prefetch (PrefetchKind::MmuDma) -----------------
    // The device observes every translation request's (tenant,
    // request-class, page); each stream's detector locks onto the
    // descriptor-ring stride and predicts the pages the DMA engine
    // will touch next. No SID predictor and no history reads from
    // main memory are involved.

    /**
     * Trains the (did, cls) stream with an observed access. Repeats
     * of the stream's current page (ring polls, notify mailboxes)
     * carry no stride information and are ignored; a page-size flip
     * restarts confidence like a stride break.
     */
    void
    observeAccess(mem::DomainId did, trace::ReqClass cls,
                  mem::Iova iova, mem::PageSize size)
    {
        const mem::Iova page = mem::pageBase(iova, size);
        auto [stream, inserted] =
            _streams.tryEmplace(streamKey(did, cls));
        if (inserted)
            *stream = MmuStreamState{};
        if (!stream->primed) {
            stream->primed = true;
            stream->lastPage = page;
            stream->size = size;
            return;
        }
        const int64_t delta =
            int64_t(page) - int64_t(stream->lastPage);
        if (delta == 0 && size == stream->size)
            return;
        if (delta == stream->stride && size == stream->size) {
            if (stream->confidence < MaxMmuConfidence)
                ++stream->confidence;
        } else {
            stream->stride = delta;
            stream->confidence = 0;
            stream->size = size;
        }
        stream->lastPage = page;
    }

    /**
     * Predicted next pages of the (did, cls) stream: lastPage +
     * stride * k for k = 1..pagesPerPrefetch, written to `pages`
     * (capacity must be >= pagesPerPrefetch); `size` is set to the
     * stream's page size.
     * @return pages written (0 while the stride is not confident)
     */
    size_t
    predictStrided(mem::DomainId did, trace::ReqClass cls,
                   mem::Iova *pages, mem::PageSize &size) const
    {
        const MmuStreamState *stream =
            _streams.find(streamKey(did, cls));
        if (!stream || stream->confidence == 0 ||
            stream->stride == 0)
            return 0;
        size = stream->size;
        for (unsigned k = 1; k <= _config.pagesPerPrefetch; ++k) {
            pages[k - 1] = mem::Iova(int64_t(stream->lastPage) +
                                     stream->stride * int64_t(k));
        }
        return _config.pagesPerPrefetch;
    }

    /** Tenant detach: drops the tenant's stream detectors. */
    void
    retireDomain(mem::DomainId did)
    {
        for (unsigned cls = 0; cls < trace::NumReqClasses; ++cls)
            _streams.erase(
                streamKey(did, static_cast<trace::ReqClass>(cls)));
    }

    /** Live stream detectors (tests and teardown checks). */
    size_t mmuStreams() const { return _streams.size(); }

  private:
    /** Key of a (tenant, request class) stream. */
    static uint64_t
    streamKey(mem::DomainId did, trace::ReqClass cls)
    {
        return (uint64_t(did) << 2) | uint64_t(cls);
    }

    PrefetchConfig _config;
    cache::SetAssocCache<PrefetchEntry> _buffer;
    SidPredictor _predictor;
    /** MMU-aware stride detectors by (did, cls); MmuDma only. */
    util::FlatMap<uint64_t, MmuStreamState> _streams;
};

} // namespace hypersio::core

#endif // HYPERSIO_CORE_PREFETCH_HH
