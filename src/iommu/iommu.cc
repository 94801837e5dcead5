#include "iommu/iommu.hh"

#include "oracle/hooks.hh"
#include "util/debug.hh"

namespace hypersio::iommu
{

namespace
{
debug::Flag IommuFlag("IOMMU", "IOMMU requests, walks, and fills");
} // namespace

Iommu::Iommu(const IommuConfig &config, sim::EventQueue &queue,
             stats::StatGroup &parent, mem::MemoryModel &memory,
             PageTableDirectory &tables, TranslationSink &sink)
    : SimObject("iommu", queue, parent), _config(config),
      _memory(memory), _tables(tables), _sink(sink),
      _iotlb(config.iotlb),
      _l2(config.l2tlb), _l3(config.l3tlb),
      _requests(statGroup().makeCounter("requests",
                                        "translation requests")),
      _prefetchRequests(statGroup().makeCounter(
          "prefetch_requests", "prefetch translation requests")),
      _iotlbHits(
          statGroup().makeCounter("iotlb_hits", "IOTLB hits")),
      _walks(statGroup().makeCounter("walks",
                                     "page-table walks started")),
      _coalesced(statGroup().makeCounter(
          "coalesced", "requests coalesced onto in-flight walks")),
      _faults(statGroup().makeCounter("faults",
                                      "translation faults")),
      _prefetchPromotions(statGroup().makeCounter(
          "prefetch_promotions",
          "queued prefetch walks promoted by the aging bound")),
      _walkAccessHist(statGroup().makeHistogram(
          "walk_accesses", "memory accesses per walk", 0, 40, 40))
{
    if (config.pagingLevels != 4 && config.pagingLevels != 5)
        fatal("pagingLevels must be 4 or 5 (got %u)",
              config.pagingLevels);

    // Per-structure hit/miss breakdowns, read live at dump time.
    _iotlb.exportStats(statGroup().child("iotlb"));
    _l2.exportStats(statGroup().child("l2_cache"));
    _l3.exportStats(statGroup().child("l3_cache"));
}

void
Iommu::translate(const IommuRequest &req, bool may_fuse)
{
    ++_requests;
    if (req.prefetch())
        ++_prefetchRequests;

    const uint64_t key = translationKey(req.domain, req.iova, req.size);
    const uint64_t index = translationIndex(req.iova, req.size);

    // 1. IOTLB: final-translation cache. The hit's latency is fixed:
    // fused (tail caller, clear window) the delivery runs
    // synchronously at the hit's exact tick; otherwise it is the hit
    // event, whose (this, req, resp) closure stays inline in the
    // event slab. Either way the delivery is the tail of its
    // dispatch, unlike a walk's waiter fan-out.
    IommuResponse *hit = _iotlb.lookup(key, index, req.domain);
    HYPERSIO_SHADOW(iommuIotlbLookup(
        req.domain, req.iova, req.size,
        _iotlb.setFor(key, index, req.domain), hit != nullptr,
        hit ? hit->hostAddr : 0));
    if (hit) {
        ++_iotlbHits;
        IommuResponse resp = *hit;
        resp.iotlbHit = true;
        if (may_fuse &&
            eventQueue().tryFuseAdvance(_config.iotlbHitLatency)) {
            _sink.translated(req, resp, /*tail=*/true);
            return;
        }
        eventQueue().scheduleAfter(
            _config.iotlbHitLatency, [this, req, resp] {
                _sink.translated(req, resp, /*tail=*/true);
            });
        return;
    }

    // 2. MSHR: coalesce onto an in-flight walk for the same page.
    if (Walk *walk = _mshr.find(key)) {
        ++_coalesced;
        HYPERSIO_SHADOW(
            iommuCoalesced(req.domain, req.iova, req.size));
        walk->waiters.push_back(req.tag);
        return;
    }

    // 3. New walk.
    auto [walk, inserted] = _mshr.tryEmplace(key);
    HYPERSIO_ASSERT(inserted, "duplicate MSHR entry");
    walk->req = req;
    walk->key = key;
    walk->waiters.push_back(req.tag);
    HYPERSIO_SHADOW(
        iommuMshrAllocated(req.domain, req.iova, req.size));

    if (_config.walkers == 0 || _activeWalks < _config.walkers) {
        ++_activeWalks;
        startWalk(key, may_fuse);
    } else if (req.prefetch()) {
        _prefetchQueue.push_back(key);
    } else {
        _demandQueue.push_back(key);
    }
}

unsigned
Iommu::walkAccessesFor(const IommuRequest &req)
{
    // The deepest paging-structure hit determines how many guest
    // levels remain to be read (each costs a host walk of the guest
    // PTE pointer plus the PTE read itself), followed by the final
    // host walk of the guest-physical address. The leaf guest level
    // is 1 for 4 KB pages, 2 for 2 MB.
    const unsigned levels = _config.pagingLevels;
    const unsigned leaf =
        req.size == mem::PageSize::Size2M ? 2 : 1;

    // L2 entry covers guest levels down to 2.
    const uint64_t l2_key = pagingKey(req.domain, req.iova, 2);
    const uint64_t l2_idx = pagingIndex(req.iova, 2);
    if (_l2.lookup(l2_key, l2_idx, req.domain)) {
        // 1 remaining level for 4K, 0 for 2M.
        return mem::walkAccessesAtDepth(2 - leaf, levels);
    }

    // L3 entry covers guest levels down to 3.
    const uint64_t l3_key = pagingKey(req.domain, req.iova, 3);
    const uint64_t l3_idx = pagingIndex(req.iova, 3);
    if (_l3.lookup(l3_key, l3_idx, req.domain)) {
        // 2 remaining levels for 4K, 1 for 2M.
        return mem::walkAccessesAtDepth(3 - leaf, levels);
    }

    // Full walk from the context entry's table root: 24 accesses
    // for 4-level 4 KB pages (Table II), 35 for 5-level.
    return mem::walkAccessesAtDepth(levels - leaf + 1, levels);
}

void
Iommu::startWalk(uint64_t key, bool may_fuse)
{
    // The walk owns its MSHR entry; late arrivals keep appending to
    // the entry's waiter list until the walk finishes.
    Walk *mshr_walk = _mshr.find(key);
    HYPERSIO_ASSERT(mshr_walk, "walk without MSHR entry");

    ++_walks;
    const unsigned accesses = walkAccessesFor(mshr_walk->req);
    _walkAccessHist.sample(accesses);
    HYPERSIO_SHADOW(iommuWalkStarted(
        mshr_walk->req.domain, mshr_walk->req.iova,
        mshr_walk->req.size, accesses, _activeWalks));
    HYPERSIO_DPRINTF(IommuFlag, now(),
                     "walk did=%u iova=%#llx accesses=%u%s",
                     mshr_walk->req.domain,
                     (unsigned long long)mshr_walk->req.iova,
                     accesses,
                     mshr_walk->req.prefetch() ? " (prefetch)" : "");

    _memory.access(accesses, *this, key, may_fuse);
}

void
Iommu::chainDone(uint64_t key)
{
    Walk *entry = _mshr.find(key);
    HYPERSIO_ASSERT(entry, "finished walk lost");
    Walk walk = std::move(*entry);
    _mshr.erase(key);

    const mem::Translation xlate =
        _tables.get(walk.req.domain).translate(walk.req.iova);
    // No waiter reads the walker count, so it may drop first.
    --_activeWalks;
    // With no walk queued dispatchQueued() has nothing to do, and on
    // unbounded memory nothing follows this completion in its event
    // (bounded memory starts the next chain), so the last waiter's
    // delivery is in tail position.
    const bool idle = _demandQueue.empty() && _prefetchQueue.empty();
    finishWalk(walk, xlate,
               idle && _memory.config().maxOutstanding == 0);
    if (!idle)
        dispatchQueued();
}

void
Iommu::finishWalk(Walk &walk, const mem::Translation &xlate,
                  bool last_in_tail)
{
    IommuResponse resp;
    if (xlate.valid) {
        resp.hostAddr = xlate.hostAddr;
        resp.valid = true;
    } else {
        ++_faults;
    }
    HYPERSIO_SHADOW(iommuWalkCompleted(walk.req.domain,
                                       walk.req.iova, walk.req.size,
                                       resp.valid, resp.hostAddr));
    if (xlate.valid) {
        // Fill the translation caches. The IOTLB caches the final
        // translation; the paging caches remember the intermediate
        // table pointers so later walks can start deeper.
        const uint64_t key = translationKey(
            walk.req.domain, walk.req.iova, xlate.pageSize);
        const uint64_t index =
            translationIndex(walk.req.iova, xlate.pageSize);
        [[maybe_unused]] auto io_ev =
            _iotlb.insert(key, index, resp, walk.req.domain);
        HYPERSIO_SHADOW(iommuIotlbFilled(
            walk.req.domain, walk.req.iova, xlate.pageSize,
            _iotlb.setFor(key, index, walk.req.domain), resp.hostAddr,
            io_ev ? std::optional<uint64_t>(io_ev->key)
                  : std::nullopt));
        [[maybe_unused]] auto l2_ev =
            _l2.insert(pagingKey(walk.req.domain, walk.req.iova, 2),
                       pagingIndex(walk.req.iova, 2), 1,
                       walk.req.domain);
        HYPERSIO_SHADOW(iommuPagingFilled(
            2, walk.req.domain, walk.req.iova,
            _l2.setFor(pagingKey(walk.req.domain, walk.req.iova, 2),
                       pagingIndex(walk.req.iova, 2),
                       walk.req.domain),
            l2_ev ? std::optional<uint64_t>(l2_ev->key)
                  : std::nullopt));
        [[maybe_unused]] auto l3_ev =
            _l3.insert(pagingKey(walk.req.domain, walk.req.iova, 3),
                       pagingIndex(walk.req.iova, 3), 1,
                       walk.req.domain);
        HYPERSIO_SHADOW(iommuPagingFilled(
            3, walk.req.domain, walk.req.iova,
            _l3.setFor(pagingKey(walk.req.domain, walk.req.iova, 3),
                       pagingIndex(walk.req.iova, 3),
                       walk.req.domain),
            l3_ev ? std::optional<uint64_t>(l3_ev->key)
                  : std::nullopt));
    }

    // The completion runs as the walk's event or fused in its place,
    // never as the tail of the delivery that started the walk, so
    // tail position is decided here. Every waiter but the last has
    // another delivery after it and must not fuse.
    IommuRequest req = walk.req;
    for (size_t i = 0; i < walk.waiters.size(); ++i) {
        req.tag = walk.waiters[i];
        _sink.translated(req, resp,
                         last_in_tail && i + 1 == walk.waiters.size());
    }
}

void
Iommu::dispatchQueued()
{
    while ((_config.walkers == 0 || _activeWalks < _config.walkers) &&
           (!_demandQueue.empty() || !_prefetchQueue.empty())) {
        uint64_t key;
        // Demand first, but bounded: sustained demand traffic must
        // not starve a queued prefetch forever while its MSHR entry
        // pins walker bookkeeping. Once `prefetchAgingThreshold`
        // consecutive demand walks have dispatched past a waiting
        // prefetch, the oldest prefetch takes the next slot.
        const bool promote =
            !_prefetchQueue.empty() &&
            (_demandQueue.empty() ||
             (_config.prefetchAgingThreshold != 0 &&
              _demandStreak >= _config.prefetchAgingThreshold));
        if (promote) {
            key = _prefetchQueue.front();
            _prefetchQueue.pop_front();
            if (!_demandQueue.empty())
                ++_prefetchPromotions;
            _demandStreak = 0;
        } else {
            key = _demandQueue.front();
            _demandQueue.pop_front();
            _demandStreak = _prefetchQueue.empty()
                                ? 0
                                : _demandStreak + 1;
        }
        // The entry must still exist: queued walks hold their MSHR
        // slot until they run.
        HYPERSIO_ASSERT(_mshr.contains(key), "queued walk lost");
        ++_activeWalks;
        // Not in tail position: the loop may start another walk.
        startWalk(key, /*may_fuse=*/false);
    }
}

void
Iommu::invalidate(mem::DomainId domain, mem::Iova iova,
                  mem::PageSize size)
{
    // The unmap op's declared size does not bound what may be
    // cached: a remap that flips page size (2M→4K or back) re-keys
    // the translation, so an erase under only the invalidated size
    // would leave the other size's entry alive and stale. Both size
    // keys are disjoint, so the extra probe of an absent key is
    // harmless.
    for (const mem::PageSize sz :
         {mem::PageSize::Size4K, mem::PageSize::Size2M}) {
        const uint64_t key = translationKey(domain, iova, sz);
        const uint64_t index = translationIndex(iova, sz);
        [[maybe_unused]] const bool removed =
            _iotlb.invalidate(key, index, domain);
        HYPERSIO_SHADOW(
            iommuIotlbInvalidated(domain, iova, sz, removed));
    }
    (void)size;
}

void
Iommu::flushAll()
{
    _iotlb.flush();
    _l2.flush();
    _l3.flush();
    HYPERSIO_SHADOW(iommuFlushed());
}

} // namespace hypersio::iommu
