#include "core/device.hh"

#include "oracle/fault_injection.hh"
#include "oracle/hooks.hh"
#include "util/debug.hh"

namespace hypersio::core
{

namespace
{

debug::Flag DevTlbFlag("DevTLB", "device TLB lookups and fills");
debug::Flag PtbFlag("PTB", "pending translation buffer activity");
debug::Flag PrefetchFlag("Prefetch", "prefetch unit activity");

/** DevTLB key/index/partition for one request of a packet. */
struct DevtlbAddr
{
    uint64_t key;
    uint64_t index;
    uint32_t partition;
};

DevtlbAddr
devtlbAddr(mem::DomainId did, trace::SourceId sid, mem::Iova iova,
           mem::PageSize size, size_t partitions)
{
    uint32_t partition = sid;
    // Planted bug for validating the shadow oracle: masking the PTag
    // with `partitions` instead of `partitions - 1` collapses every
    // SID into row group 0 of a partitioned DevTLB.
    if (oracle::faultInjection().devtlbPtagOffByOne)
        partition = sid & static_cast<uint32_t>(partitions);
    return {iommu::translationKey(did, iova, size),
            iommu::translationIndex(iova, size), partition};
}

/** The DevTLB's replacement policy: Belady when given a feed. */
std::unique_ptr<cache::ReplacementPolicy>
devtlbPolicy(const cache::CacheConfig &devtlb, cache::OracleFeed *oracle)
{
    if (!oracle)
        return cache::makePolicy(devtlb.policy, devtlb.seed,
                                 devtlb.lfuBits);
    // Sub-entry tags carry domain-stripped shared keys, while the
    // feed knows only full translation keys: every nextUse() would
    // answer "never", and Belady would always evict way 0.
    if (devtlb.subEntries > 1) {
        fatal("Oracle DevTLB replacement needs devtlb.subEntries = 1 "
              "(got %zu): sub-entry tags hold shared keys the Belady "
              "feed cannot see",
              devtlb.subEntries);
    }
    return std::make_unique<cache::OraclePolicy>(*oracle);
}

} // namespace

Device::Device(const DeviceConfig &config, sim::EventQueue &queue,
               stats::StatGroup &parent, ChipsetPort &chipset,
               uint16_t index, cache::OracleFeed *oracle)
    : SimObject("device", queue, parent), _config(config),
      _chipset(chipset), _index(index), _ptb(config.ptbEntries),
      _devtlb(config.devtlb, devtlbPolicy(config.devtlb, oracle)),
      _context(config.contextCache),
      _prefetchUnit(config.prefetch.enabled
                        ? std::make_unique<PrefetchUnit>(
                              config.prefetch)
                        : nullptr),
      _oracle(oracle),
      _packets(statGroup().makeCounter("packets",
                                       "packets accepted")),
      _translations(statGroup().makeCounter(
          "translations", "translation requests issued")),
      _devtlbHits(statGroup().makeCounter("devtlb_hits",
                                          "DevTLB hits")),
      _pbHits(statGroup().makeCounter("pb_hits",
                                      "Prefetch Buffer hits")),
      _prefetchesSent(statGroup().makeCounter(
          "prefetches_sent", "prefetch requests sent to chipset")),
      _prefetchFills(statGroup().makeCounter(
          "prefetch_fills", "prefetched translations installed")),
      _demandFillsSquashed(statGroup().makeCounter(
          "demand_fills_squashed",
          "demand fills dropped after a mid-flight invalidate")),
      _prefetchFillsSquashed(statGroup().makeCounter(
          "prefetch_fills_squashed",
          "prefetch fills dropped after a mid-flight invalidate")),
      _packetLatency(statGroup().makeHistogram(
          "packet_latency_ns", "accept-to-complete latency", 0,
          20000, 40))
{
    if (_prefetchUnit &&
        _config.prefetch.kind == PrefetchKind::MmuDma)
        _mmuPages.resize(_config.prefetch.pagesPerPrefetch);

    // Per-structure hit/miss breakdowns, read live at dump time.
    _devtlb.exportStats(statGroup().child("devtlb"));
    _context.exportStats(statGroup().child("context_cache"));
}

void
Device::accept(const trace::PacketRecord &packet,
               CompletionSink &sink)
{
    const int idx = _ptb.allocate(packet, now());
    HYPERSIO_ASSERT(idx >= 0, "accept() called with a full PTB");
    ++_packets;
    HYPERSIO_DPRINTF(PtbFlag, now(),
                     "accept sid=%u ptb=%d in_use=%u", packet.sid,
                     idx, _ptb.inUse());
    HYPERSIO_SHADOW(devicePacketAccepted(
        packet.sid, static_cast<unsigned>(idx), _ptb.inUse()));

    if (_prefetchUnit &&
        _config.prefetch.kind == PrefetchKind::SidPredictor) {
        _prefetchUnit->observePacket(packet.sid);
        HYPERSIO_SHADOW(deviceSidObserved(packet.sid));
    }
    _ptb.entry(idx).sink = &sink;
    // The arrival event keeps working after accept() returns
    // (retirement service, re-arming or parking the next arrival), so
    // the chain start is not in tail position: the first hop is
    // always a real event.
    issueNext(idx, /*may_fuse=*/false);
}

void
Device::issueNext(unsigned idx, bool may_fuse)
{
    // Each loop iteration is one request whose hit hop was fused:
    // resolve() already advanced time to the tick the hop event
    // would have fired at, so issuing the next request here is
    // exactly the work that event's callback would have done.
    for (;;) {
        PtbEntry &entry = _ptb.entry(idx);
        if (entry.nextReq >= trace::NumReqClasses) {
            // All three translations done: packet fully processed.
            _packetLatency.sample(ticksToNs(now() - entry.accepted));
            // The entry is freed before notifying — the sink may
            // accept a new packet reentrantly — so the record is
            // copied out first.
            const trace::PacketRecord packet = entry.packet;
            CompletionSink &sink = *entry.sink;
            _ptb.release(idx);
            HYPERSIO_SHADOW(devicePacketCompleted(idx, _ptb.inUse()));
            sink.packetDone(packet);
            return;
        }
        const auto cls = static_cast<trace::ReqClass>(entry.nextReq);
        ++entry.nextReq;
        if (!resolve(idx, cls, may_fuse))
            return;
    }
}

bool
Device::resolve(unsigned idx, trace::ReqClass cls, bool may_fuse)
{
    PtbEntry &entry = _ptb.entry(idx);
    const trace::PacketRecord &pkt = entry.packet;
    const mem::Iova iova = pkt.iova(cls);
    const mem::PageSize size = pkt.pageSize(cls);
    ++_translations;

    // Context Cache: SID → DID. Device-resident per-VF state; a
    // miss is filled from the hypervisor-maintained context table
    // and charges no time.
    const iommu::ContextEntry *ce =
        _context.lookup(pkt.sid, pkt.pasid);
    mem::DomainId did;
    if (ce) {
        did = ce->domain;
    } else {
        const iommu::ContextEntry fresh =
            iommu::ContextCache::resolve(pkt.sid, pkt.pasid);
        _context.fill(pkt.sid, pkt.pasid, fresh);
        did = fresh.domain;
    }

    // The MMU-aware prefetcher observes every request of the DMA
    // stream (hit or miss — the stride detector needs the full
    // descriptor-ring access pattern).
    if (_prefetchUnit &&
        _config.prefetch.kind == PrefetchKind::MmuDma) {
        _prefetchUnit->observeAccess(did, cls, iova, size);
        HYPERSIO_SHADOW(deviceMmuObserved(
            did, static_cast<unsigned>(cls), iova, size));
    }

    // Belady feed advances once per DevTLB lookup, in accept order.
    if (_oracle)
        _oracle->advance();

    // Prefetch Buffer and DevTLB are checked concurrently.
    bool pb_hit = false;
    mem::Addr pb_addr = 0;
    if (_prefetchUnit) {
        pb_hit = _prefetchUnit->lookup(did, iova, size, pb_addr);
        HYPERSIO_SHADOW(
            devicePbLookup(did, iova, size, pb_hit, pb_addr));
        if (pb_hit)
            ++_pbHits;
    }

    const DevtlbAddr addr = devtlbAddr(did, pkt.sid, iova, size,
                                       _config.devtlb.partitions);
    const mem::Addr *tlb_entry =
        _devtlb.lookup(addr.key, addr.index, addr.partition);
    const bool tlb_hit = tlb_entry != nullptr;
    HYPERSIO_SHADOW(deviceDevtlbLookup(
        pkt.sid, did, iova, size,
        _devtlb.setFor(addr.key, addr.index, addr.partition),
        tlb_hit, tlb_hit ? *tlb_entry : 0));
    if (tlb_hit)
        ++_devtlbHits;

    HYPERSIO_DPRINTF(DevTlbFlag, now(),
                     "%s sid=%u %s iova=%#llx%s%s",
                     tlb_hit ? "hit" : "miss", pkt.sid,
                     trace::reqClassName(cls),
                     (unsigned long long)iova,
                     pb_hit ? " (PB hit)" : "",
                     size == mem::PageSize::Size2M ? " 2M" : "");

    if (pb_hit || tlb_hit) {
        // Deterministic hit: the continuation is "issue the next
        // request devtlbHitLatency later". In tail position with a
        // clear window the hop event is elided and the caller's loop
        // continues at the hit's exact tick.
        if (may_fuse &&
            eventQueue().tryFuseAdvance(_config.devtlbHitLatency))
            return true;
        eventQueue().scheduleAfter(
            _config.devtlbHitLatency,
            [this, idx] { issueNext(idx, /*may_fuse=*/true); });
        return false;
    }

    // Miss in both: consult the SID-predictor (prefetch trigger; at
    // most one prefetch per packet) and send the request on. The
    // entry records what is on the wire; the response, tagged with
    // the slot, re-derives everything from it.
    entry.did = did;
    entry.curCls = cls;
    if (!entry.prefetchIssued) {
        entry.prefetchIssued = true;
        if (_config.prefetch.kind == PrefetchKind::MmuDma)
            maybeMmuPrefetch(did, cls);
        else
            maybePrefetch(pkt.sid);
    }

    markFillInFlight(addr.key);
    iommu::IommuRequest req;
    req.domain = did;
    req.iova = iova;
    req.size = size;
    req.tag = {iommu::Requester::Demand, _index, idx};
    _chipset.translate(req, may_fuse);
    return false;
}

void
Device::markFillInFlight(uint64_t key)
{
    auto [entry, inserted] = _fillsInFlight.tryEmplace(key);
    if (inserted)
        *entry = InFlightFill{};
    ++entry->count;
}

bool
Device::consumeFill(uint64_t key)
{
    InFlightFill *entry = _fillsInFlight.find(key);
    HYPERSIO_ASSERT(entry && entry->count > 0,
                    "fill arrival without a dispatch record");
    const bool squashed = entry->squash > 0;
    if (squashed)
        --entry->squash;
    if (--entry->count == 0)
        _fillsInFlight.erase(key);
    return squashed;
}

void
Device::translated(unsigned idx, const iommu::IommuResponse &resp)
{
    PtbEntry &entry = _ptb.entry(idx);
    const trace::PacketRecord &pkt = entry.packet;
    const mem::Iova iova = pkt.iova(entry.curCls);
    const mem::PageSize size = pkt.pageSize(entry.curCls);
    const DevtlbAddr fill = devtlbAddr(entry.did, pkt.sid, iova,
                                       size,
                                       _config.devtlb.partitions);
    // A response whose page was invalidated while it crossed the
    // wire carries a pre-unmap translation: the packet still
    // completes with it (as hardware would until the invalidation
    // handshake finishes), but caching it would be stale.
    const bool squashed = consumeFill(fill.key);
    if (squashed)
        ++_demandFillsSquashed;
    if (resp.valid && !squashed) {
        [[maybe_unused]] auto evicted =
            _devtlb.insert(fill.key, fill.index, resp.hostAddr,
                           fill.partition);
        HYPERSIO_SHADOW(deviceDevtlbFill(
            pkt.sid, entry.did, iova, size,
            _devtlb.setFor(fill.key, fill.index, fill.partition),
            resp.hostAddr,
            evicted ? std::optional<uint64_t>(evicted->key)
                    : std::nullopt));
    }
    // Response deliveries arrive in tail position (the end of a
    // respond event, a fused continuation of one, or outside run()
    // where fusion refuses anyway), so the chain may keep fusing.
    issueNext(idx, /*may_fuse=*/true);
}

void
Device::maybePrefetch(trace::SourceId sid)
{
    if (!_prefetchUnit)
        return;
    const auto predicted = _prefetchUnit->predict(sid);
    HYPERSIO_SHADOW(deviceSidPredicted(sid, predicted));
    if (!predicted)
        return;
    ++_prefetchesSent;
    HYPERSIO_DPRINTF(PrefetchFlag, now(),
                     "predict sid=%u -> sid=%u", sid, *predicted);
    // DID == SID for predicted tenants too (hypervisor assignment).
    _chipset.prefetch(_index,
                      iommu::ContextCache::resolve(*predicted).domain);
}

void
Device::maybeMmuPrefetch(mem::DomainId did, trace::ReqClass cls)
{
    if (!_prefetchUnit)
        return;
    mem::PageSize size = mem::PageSize::Size4K;
    const size_t pages = _prefetchUnit->predictStrided(
        did, cls, _mmuPages.data(), size);
    for (size_t k = 0; k < pages; ++k) {
        ++_prefetchesSent;
        HYPERSIO_DPRINTF(PrefetchFlag, now(),
                         "mmu prefetch did=%u %s page=%#llx", did,
                         trace::reqClassName(cls),
                         (unsigned long long)_mmuPages[k]);
        HYPERSIO_SHADOW(deviceMmuPrefetchIssued(
            did, static_cast<unsigned>(cls),
            static_cast<unsigned>(k), _mmuPages[k], size));
        iommu::IommuRequest req;
        req.domain = did;
        req.iova = _mmuPages[k];
        req.size = size;
        req.tag = {iommu::Requester::MmuPrefetch, _index, 0};
        _chipset.prefetchPage(req);
    }
}

void
Device::prefetchFillDispatched(mem::DomainId did, mem::Iova iova,
                               mem::PageSize size)
{
    if (!_prefetchUnit)
        return;
    markFillInFlight(iommu::translationKey(did, iova, size));
}

void
Device::prefetchFill(mem::DomainId did, mem::Iova iova,
                     mem::PageSize size, mem::Addr host_addr)
{
    if (!_prefetchUnit)
        return;
    if (consumeFill(iommu::translationKey(did, iova, size))) {
        ++_prefetchFillsSquashed;
        HYPERSIO_DPRINTF(PrefetchFlag, now(),
                         "squash fill did=%u iova=%#llx", did,
                         (unsigned long long)iova);
        return;
    }
    ++_prefetchFills;
    [[maybe_unused]] auto evicted =
        _prefetchUnit->fill(did, iova, size, host_addr);
    HYPERSIO_SHADOW(
        devicePbFill(did, iova, size, host_addr, evicted));
}

void
Device::invalidatePage(mem::DomainId did, mem::Iova iova,
                       mem::PageSize size)
{
    // Partition tags are per SID; recover it from the DID encoding.
    // Both size keys are dropped, not just the unmap's declared
    // size: a remap that flips page size re-keys the translation,
    // and the erased mapping need not match the declared size
    // either (PageTable::unmap probes both alignments).
    const trace::SourceId sid = iommu::ContextCache::sidOf(did);
    for (const mem::PageSize sz :
         {mem::PageSize::Size4K, mem::PageSize::Size2M}) {
        const DevtlbAddr addr = devtlbAddr(
            did, sid, iova, sz, _config.devtlb.partitions);
        [[maybe_unused]] const bool removed =
            _devtlb.invalidate(addr.key, addr.index,
                               addr.partition);
        HYPERSIO_SHADOW(
            deviceDevtlbInvalidated(sid, did, iova, sz, removed));
        if (_prefetchUnit) {
            [[maybe_unused]] const bool pb_removed =
                _prefetchUnit->invalidate(did, iova, sz);
            HYPERSIO_SHADOW(
                devicePbInvalidated(did, iova, sz, pb_removed));
        }
        // Fills already on the wire for this page sampled the
        // pre-unmap tables; mark them all to be dropped on arrival.
        if (InFlightFill *in_flight = _fillsInFlight.find(addr.key))
            in_flight->squash = in_flight->count;
    }
    (void)size;
}

void
Device::retireSid(trace::SourceId sid)
{
    if (!_prefetchUnit)
        return;
    _prefetchUnit->predictor().retire(sid);
    HYPERSIO_SHADOW(deviceSidRetired(sid));
}

void
Device::retireDomain(mem::DomainId did)
{
    if (!_prefetchUnit ||
        _config.prefetch.kind != PrefetchKind::MmuDma)
        return;
    _prefetchUnit->retireDomain(did);
    HYPERSIO_SHADOW(deviceMmuRetired(did));
}

} // namespace hypersio::core
