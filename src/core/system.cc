#include "core/system.hh"

#include <algorithm>
#include <ostream>

#include "iommu/keys.hh"
#include "oracle/hooks.hh"
#include "util/logging.hh"

namespace hypersio::core
{

void
System::translate(const iommu::IommuRequest &req, bool may_fuse)
{
    if (may_fuse && _queue.tryFuseAdvance(_config.pcieOneWay)) {
        atChipset(req);
        return;
    }
    _queue.scheduleAfter(_config.pcieOneWay,
                         [this, req] { atChipset(req); });
}

void
System::atChipset(const iommu::IommuRequest &req)
{
    if (HistoryReader *reader =
            _links[req.tag.device].historyReader.get())
        reader->observe(req.domain, req.iova, req.size);
    // atChipset is always the tail of its event (or of a fused
    // continuation of one), so the IOMMU may fuse its hit latency.
    _iommu->translate(req, /*may_fuse=*/true);
}

void
System::prefetch(uint16_t device, mem::DomainId did)
{
    HistoryReader *reader = _links[device].historyReader.get();
    _queue.scheduleAfter(_config.pcieOneWay, [this, reader, did] {
        if (reader->prefetch(did))
            hold(iommu::ContextCache::sidOf(did));
    });
}

void
System::prefetchPage(const iommu::IommuRequest &req)
{
    // MMU-aware prefetch: one predicted page crosses PCIe to the
    // chipset and translates through the regular (prefetch-tagged)
    // IOMMU path; the tenant's in-flight count holds it until the
    // IOMMU answers.
    hold(iommu::ContextCache::sidOf(req.domain));
    _queue.scheduleAfter(_config.pcieOneWay,
                         [this, req] { _iommu->translate(req); });
}

void
System::translated(const iommu::IommuRequest &req,
                   const iommu::IommuResponse &resp, bool tail)
{
    Link &link = _links[req.tag.device];
    if (req.tag.kind == iommu::Requester::Demand) {
        // The PCIe return hop may fuse only when the IOMMU says the
        // delivery itself is in tail position.
        const uint32_t slot = req.tag.slot;
        if (tail && _queue.tryFuseAdvance(_config.pcieOneWay)) {
            link.device->translated(slot, resp);
            return;
        }
        _queue.scheduleAfter(_config.pcieOneWay, [&link, slot, resp] {
            link.device->translated(slot, resp);
        });
        return;
    }
    // A prefetched page's own iova is its page base; an answer
    // coalesced onto another's walk carries that walk's iova, on the
    // same page. The fill holds the tenant before the prefetch lets
    // go of it, so its count never touches zero in between.
    if (resp.valid) {
        dispatchPrefetchFill(link, req.domain,
                             mem::pageBase(req.iova, req.size),
                             req.size, resp.hostAddr);
    }
    if (req.tag.kind == iommu::Requester::MmuPrefetch ||
        link.historyReader->prefetchTranslated(req.domain))
        release(iommu::ContextCache::sidOf(req.domain));
}

void
System::dispatchPrefetchFill(Link &link, mem::DomainId did,
                             mem::Iova iova, mem::PageSize size,
                             mem::Addr host_addr)
{
    hold(iommu::ContextCache::sidOf(did));
    // The device records the fill as in flight now: an invalidate of
    // this page during the PCIe hop squashes the fill instead of
    // installing a stale translation.
    link.device->prefetchFillDispatched(did, iova, size);
    _queue.scheduleAfter(
        _config.pcieOneWay,
        [this, &link, did, iova, size, host_addr]() {
            link.device->prefetchFill(did, iova, size, host_addr);
            release(iommu::ContextCache::sidOf(did));
        });
}

System::System(const SystemConfig &config, unsigned devices)
    : _config(config), _stats("system"), _tables(config.seed)
{
    // Requester tags carry the device index in 16 bits.
    if (devices == 0 || devices > UINT16_MAX + 1u)
        fatal("a system needs 1 to 65536 devices (got %u)", devices);
    // Event fusion is bit-identical either way, so this only selects
    // the schedule being measured.
    _queue.setFusionEnabled(_config.eventFusion);
    _memory = std::make_unique<mem::MemoryModel>(_config.memory,
                                                 _queue, _stats);
    _iommu = std::make_unique<iommu::Iommu>(
        _config.iommu, _queue, _stats, *_memory, _tables,
        translationSink());

    _links.resize(devices);
    for (unsigned d = 0; d < devices; ++d) {
        Link &link = _links[d];
        link.stats = devices == 1
                         ? &_stats
                         : &_stats.child("dev" + std::to_string(d));
        if (_config.device.prefetch.enabled &&
            _config.device.prefetch.kind ==
                PrefetchKind::SidPredictor) {
            // The History Reader drives the paper's scheme (the
            // MmuDma mechanism has none: its pages go straight to
            // the IOMMU in prefetchPage()).
            link.historyReader = std::make_unique<HistoryReader>(
                _config.device.prefetch, _queue, *link.stats, *_iommu,
                *_memory, static_cast<uint16_t>(d));
        }
        // With Belady replacement the device needs the
        // future-knowledge feed, which is only available once run()
        // sees the trace; the device is then built lazily there.
        if (_config.device.devtlb.policy !=
            cache::ReplPolicyKind::Oracle) {
            link.device = std::make_unique<Device>(
                _config.device, _queue, *link.stats, chipsetPort(),
                static_cast<uint16_t>(d));
        }
    }
}

System::~System() = default;

void
System::buildOracleDevices(const trace::HyperTrace &trace)
{
    // Pre-pass: each device's DevTLB key sequence in lookup order
    // (three requests per packet of its link, in Ring/Data/Notify
    // order). Dropped packets never reach the DevTLB, so the feed —
    // advanced once per performed lookup — stays aligned with the
    // device's simulation.
    std::vector<std::vector<uint64_t>> keys(_links.size());
    if (_links.size() == 1)
        keys[0].reserve(trace.packets.size() * 3);
    for (const trace::PacketRecord &pkt : trace.packets) {
        const mem::DomainId did =
            iommu::ContextCache::resolve(pkt.sid, pkt.pasid).domain;
        std::vector<uint64_t> &link_keys = keys[pkt.sid % _links.size()];
        for (unsigned c = 0; c < trace::NumReqClasses; ++c) {
            const auto cls = static_cast<trace::ReqClass>(c);
            link_keys.push_back(iommu::translationKey(
                did, pkt.iova(cls), pkt.pageSize(cls)));
        }
    }
    for (size_t d = 0; d < _links.size(); ++d) {
        Link &link = _links[d];
        link.oracleFeed = std::make_unique<cache::OracleFeed>(keys[d]);
        link.device = std::make_unique<Device>(
            _config.device, _queue, *link.stats, chipsetPort(),
            static_cast<uint16_t>(d), link.oracleFeed.get());
    }
}

RunResults
System::run(const trace::HyperTrace &trace, bool bypass_translation)
{
    HYPERSIO_ASSERT(!_ran, "System::run() may only be called once");
    _ran = true;
    if (_links.size() > 1 && oracle::shadowChecker()) {
        fatal("shadow checking needs a single-device System: the "
              "oracle's PTB and DevTLB mirrors model one device, and "
              "the PTB indices of %zu devices would collide",
              _links.size());
    }

    if (!_links[0].device) {
        // Oracle-replacement run: build the feeds, then the devices.
        buildOracleDevices(trace);
    }

    if (trace.packets.empty()) {
        RunResults empty;
        empty.configName = _config.name;
        return empty;
    }

    // Tenant t's packets ride link t % N in trace order. One link
    // views the whole trace, so it needs no index list.
    std::vector<trace::MaterializedStream> views;
    views.reserve(_links.size());
    if (_links.size() == 1) {
        views.emplace_back(trace);
    } else {
        std::vector<std::vector<uint32_t>> order(_links.size());
        for (size_t i = 0; i < trace.packets.size(); ++i) {
            order[trace.packets[i].sid % _links.size()].push_back(
                static_cast<uint32_t>(i));
        }
        for (std::vector<uint32_t> &indices : order)
            views.emplace_back(trace, std::move(indices));
    }
    for (size_t d = 0; d < _links.size(); ++d) {
        if (!views[d].exhausted())
            _links[d].stream = &views[d];
    }
    _bypass = bypass_translation;
    return runLinks(wireBytesOf(trace.packets.front()));
}

RunResults
System::runStream(trace::PacketStream &stream,
                  const StreamRunOptions &opts)
{
    HYPERSIO_ASSERT(!_ran,
                    "System::runStream() may only be called once");
    _ran = true;
    if (_links.size() > 1) {
        fatal("streaming runs need a single-device System: one "
              "PacketStream head cannot feed %zu links without "
              "buffering",
              _links.size());
    }

    // Fires before anything can panic so run-start hooks that
    // install PanicContext repro lines cover the whole run.
    if (opts.onRunStart)
        opts.onRunStart(*this);
    _snapshotEvery = opts.snapshotEveryPackets;
    _onSnapshot = opts.onSnapshot;

    if (!_links[0].device) {
        fatal("streaming runs do not support Oracle DevTLB "
              "replacement (the Belady feed needs the full trace "
              "up front)");
    }

    const trace::PacketRecord *first = stream.peek();
    if (!first) {
        HYPERSIO_ASSERT(stream.exhausted(),
                        "stream stalled before its first packet");
        RunResults empty;
        empty.configName = _config.name;
        return empty;
    }
    _evictStream = opts.evictDetached;
    _links[0].stream = &stream;
    return runLinks(wireBytesOf(*first));
}

RunResults
System::runLinks(uint64_t first_wire_bytes)
{
    // Auto-install a fail-fast differential oracle for a
    // single-device run unless one is already active on this thread
    // (tests/fuzzing install their own collecting checker) or
    // auto-checking is disabled (HYPERSIO_SHADOW=off).
    std::unique_ptr<oracle::ShadowChecker> auto_checker;
    std::optional<oracle::ShadowScope> shadow_scope;
    if (_links.size() == 1 && !oracle::shadowChecker() &&
        oracle::shadowAutoCheckEnabled() && !_bypass) {
        auto_checker = std::make_unique<oracle::ShadowChecker>(
            toShadowConfig(_config), &_tables, /*fail_fast=*/true);
        shadow_scope.emplace(*auto_checker);
    }

    _slotInterval = _config.link.packetInterval();
    for (Link &link : _links) {
        if (link.stream)
            _queue.schedule(0, [this, &link] { arrive(link); });
    }
    for (;;) {
        _queue.run();
        if (!_evictStream)
            break;
        // Drained: every in-flight access is done, so anything still
        // pending must retire now (and may unpark a stream).
        serviceRetirements();
        HYPERSIO_ASSERT(_pendingRetire.empty(),
                        "tenants stuck awaiting retirement after "
                        "the queue drained");
        bool restarted = false;
        for (Link &link : _links)
            restarted |= maybeRestartArrival(link);
        if (!restarted)
            break;
    }
    for (Link &link : _links) {
        if (!link.stream)
            continue;
        HYPERSIO_ASSERT(link.stream->exhausted(),
                        "run ended with a link's packets unfinished");
        link.stream = nullptr;
    }

    shadowRunCompleted();
    return collectResults(first_wire_bytes);
}

void
System::arrive(Link &link)
{
    // One packet per arrival slot: it is admitted, or refused on a
    // full PTB and retried at the next slot. A stream that runs dry
    // while tenants await retirement (ChurnStream parked on a full
    // SID space) stalls the process; retirement completions re-arm
    // it through maybeRestartArrival().
    trace::PacketStream &stream = *link.stream;
    const trace::PacketRecord *head = stream.peek();
    HYPERSIO_ASSERT(head, "arrival fired without a packet");
    if (_bypass) {
        // Native mode: no address translation at all.
        ++_processed;
        _bytesProcessed += wireBytesOf(*head);
        _lastCompletion = _queue.now();
        stream.advance();
    } else if (link.device->ptbFull()) {
        // Dropped; the same packet retries next slot.
        ++_dropped;
        HYPERSIO_SHADOW(devicePacketDropped());
    } else {
        // Copy the record out: advance() invalidates peek().
        const trace::PacketRecord pkt = *head;
        applyOps(pkt, stream.ops());
        hold(pkt.sid);
        stream.advance();
        link.device->accept(pkt, *this);
    }

    if (_evictStream)
        serviceRetirements();

    if (const trace::PacketRecord *next = stream.peek()) {
        // The next arrival follows the serialization time of the
        // packet now at the head (the retried one after a drop).
        // Packets with an explicit wire size occupy the link for
        // their own serialization time.
        const Tick gap = slotTicks(*next);
        if (link.device->ptbFull()) {
            // Every slot is refused until a completion frees the PTB,
            // and a refused slot changes nothing but the drop count:
            // the head stays, and a pending retirement cannot go
            // before its tenant's in-flight count falls to zero. The
            // kernel bills those slots (slotsRefused); packetDone()
            // wakes the slot the completion lets in, and release()
            // the one that may retire a tenant (DESIGN.md §15).
            link.parked = _queue.park(gap, *this);
        } else {
            _queue.scheduleAfter(gap, [this, &link] { arrive(link); });
        }
    } else if (!stream.exhausted()) {
        link.stalled = true;
    }
}

void
System::shadowRunCompleted()
{
    [[maybe_unused]] const Device &device = *_links[0].device;
    HYPERSIO_SHADOW(systemRunCompleted(
        _bypass, _processed, device.translationsIssued(),
        device.devtlbOccupancy(), device.prefetchBufferOccupancy(),
        _iommu->iotlbOccupancy(), _iommu->l2Occupancy(),
        _iommu->l3Occupancy(), device.ptbInUse()));
}

void
System::slotsRefused(uint64_t n)
{
    // Billed before the event that could free the PTB runs, so the
    // oracle's PTB mirror is still full.
    _dropped += n;
    HYPERSIO_SHADOW(devicePacketsDropped(n));
}

void
System::packetDone(const trace::PacketRecord &pkt)
{
    ++_processed;
    _bytesProcessed += wireBytesOf(pkt);
    _lastCompletion = _queue.now();
    // The freed PTB entry admits the link's parked arrival.
    Link &link = linkOf(pkt.sid);
    _queue.wake(link.parked, [this, &link] { arrive(link); });
    release(pkt.sid);
    // Streaming-run bookkeeping; _evictStream is never set by run().
    if (_evictStream) {
        serviceRetirements();
        maybeRestartArrival(link);
    }
    // After retirement bookkeeping, so a capture at this boundary
    // sees the stats with this completion fully applied.
    if (_snapshotEvery != 0 && _processed % _snapshotEvery == 0 &&
        _onSnapshot) {
        _onSnapshot(*this, _processed);
    }
}

uint64_t
System::wireBytesOf(const trace::PacketRecord &pkt) const
{
    return pkt.wireBytes != 0 ? pkt.wireBytes
                              : _config.link.packetBytes;
}

Tick
System::slotTicks(const trace::PacketRecord &pkt) const
{
    const Tick ser =
        serializationTicks(wireBytesOf(pkt), _config.link.gbps);
    return ser == 0 ? _slotInterval : ser;
}

RunResults
System::collectResults(uint64_t first_wire_bytes)
{
    RunResults results;
    results.configName = _config.name;
    results.packetsProcessed = _processed;
    results.packetsDropped = _dropped;
    // Device counters sum over the links; at N == 1 every ratio is
    // the single device's own.
    uint64_t devtlb_hits = 0;
    uint64_t devtlb_lookups = 0;
    uint64_t pb_hits = 0;
    double latency_sum = 0.0;
    uint64_t latency_samples = 0;
    for (const Link &link : _links) {
        const Device &device = *link.device;
        results.translations += device.translationsIssued();
        devtlb_hits += device.devtlbStats().hits;
        devtlb_lookups += device.devtlbStats().lookups;
        pb_hits += device.pbHits();
        latency_sum += device.packetLatency().sum();
        latency_samples += device.packetLatency().samples();
    }
    // The first packet occupies the wire for one serialization
    // interval before its arrival event; include it so a perfectly
    // translated run reports exactly the nominal link rate.
    results.elapsed =
        _lastCompletion +
        serializationTicks(first_wire_bytes, _config.link.gbps);
    results.achievedGbps =
        achievedGbps(_bytesProcessed, results.elapsed);
    results.utilization =
        results.achievedGbps / (_config.link.gbps * _links.size());

    results.devtlbHitRate =
        devtlb_lookups == 0 ? 0.0
                            : static_cast<double>(devtlb_hits) /
                                  static_cast<double>(devtlb_lookups);
    results.pbHitRate =
        results.translations == 0
            ? 0.0
            : static_cast<double>(pb_hits) /
                  static_cast<double>(results.translations);
    const auto &iotlb = _iommu->iotlbStats();
    results.iotlbHitRate =
        iotlb.lookups == 0
            ? 0.0
            : static_cast<double>(iotlb.hits) /
                  static_cast<double>(iotlb.lookups);

    const auto *walks = _stats.child("iommu").find("walks");
    results.walks = walks ? static_cast<uint64_t>(walks->value()) : 0;
    const auto *reqs = _stats.child("iommu").find("requests");
    results.iommuRequests =
        reqs ? static_cast<uint64_t>(reqs->value()) : 0;
    results.avgPacketLatencyNs =
        latency_samples == 0
            ? 0.0
            : latency_sum / static_cast<double>(latency_samples);
    return results;
}

void
System::applyOps(const trace::PacketRecord &pkt,
                 const trace::PageOp *ops)
{
    const mem::DomainId did =
        iommu::ContextCache::resolve(pkt.sid, pkt.pasid)
            .domain;
    for (uint16_t i = 0; i < pkt.opCount; ++i) {
        const trace::PageOp &op = ops[i];
        mem::PageTable &table = _tables.get(did);
        if (op.isMap) {
            table.map(op.pageBase, op.size);
        } else {
            table.unmap(op.pageBase);
            // Invalidate every cached copy of the dying translation:
            // device TLB, prefetch buffer, and chipset IOTLB. Only
            // the tenant's own device can hold one.
            linkOf(pkt.sid).device->invalidatePage(did, op.pageBase,
                                                   op.size);
            _iommu->invalidate(did, op.pageBase, op.size);
            HYPERSIO_SHADOW(
                systemUnmapped(did, op.pageBase, op.size));
        }
    }
}

void
System::serviceRetirements()
{
    for (Link &link : _links) {
        if (link.stream)
            link.stream->drainDetached(_pendingRetire);
    }
    if (_pendingRetire.empty())
        return;
    // Retire what can go; keep the rest in detach order. A SID waits
    // here while its in-flight work drains; it retires at the first
    // arrival slot or packet completion after its count reaches zero.
    size_t keep = 0;
    for (size_t i = 0; i < _pendingRetire.size(); ++i) {
        if (!tryRetireSid(_pendingRetire[i]))
            _pendingRetire[keep++] = _pendingRetire[i];
    }
    _pendingRetire.resize(keep);
}

bool
System::tryRetireSid(trace::SourceId sid)
{
    if (_inFlight[sid] != 0)
        return false;

    // The SID's domains (one per PASID the tenant used). Directory
    // iteration order is unspecified; sort for determinism.
    auto &dids = _retireDids;
    dids.clear();
    _tables.forEachDomain([&](const mem::DomainId &did) {
        if (iommu::ContextCache::sidOf(did) == sid)
            dids.push_back(did);
    });
    std::sort(dids.begin(), dids.end());

    Link &link = linkOf(sid);
    for (const mem::DomainId did : dids)
        retireDomain(did);
    link.device->retireSid(sid);
    _streamRetirements.push_back(
        {_queue.now(), _queue.scheduledSeq(), sid});
    link.stream->sidRetired(sid);
    return true;
}

void
System::retireDomain(mem::DomainId did)
{
    // Unmap every live page through the regular driver-unmap path so
    // all cached translations (DevTLB, PB, IOTLB) and the shadow
    // mirrors retire in lock-step, then drop the table and the
    // chipset's access history. Mapping iteration order is
    // unspecified; sort for determinism.
    mem::PageTable *table = _tables.findExisting(did);
    HYPERSIO_ASSERT(table, "retiring a domain without a table");
    Link &link = linkOf(iommu::ContextCache::sidOf(did));
    auto &pages = _retirePages;
    pages.clear();
    table->forEachMapping(
        [&](mem::Iova base, mem::PageSize size) {
            pages.emplace_back(base, size);
        });
    std::sort(pages.begin(), pages.end());
    for (const auto &[base, size] : pages) {
        table->unmap(base);
        link.device->invalidatePage(did, base, size);
        _iommu->invalidate(did, base, size);
        HYPERSIO_SHADOW(systemUnmapped(did, base, size));
    }
    _tables.erase(did);
    if (link.historyReader)
        link.historyReader->retire(did);
    link.device->retireDomain(did);
}

void
System::hold(trace::SourceId sid)
{
    ++_inFlight[sid];
}

void
System::release(trace::SourceId sid)
{
    HYPERSIO_ASSERT(_inFlight[sid] > 0,
                    "SID %u released more work than it held", sid);
    // Retirement is tried at arrival slots and packet completions
    // only, so when a tenant's last work ends elsewhere the next
    // slot must run even behind a full PTB.
    if (--_inFlight[sid] == 0 && !_pendingRetire.empty()) {
        Link &link = linkOf(sid);
        _queue.wake(link.parked, [this, &link] { arrive(link); });
    }
}

bool
System::maybeRestartArrival(Link &link)
{
    if (!link.stalled || !link.stream->peek())
        return false;
    link.stalled = false;
    _queue.scheduleAfter(_slotInterval,
                         [this, &link] { arrive(link); });
    return true;
}

void
System::dumpStats(std::ostream &os) const
{
    _stats.dump(os);
}

void
System::dumpStatsJson(std::ostream &os, unsigned indent) const
{
    stats::writeJson(_stats, os, indent);
}

void
writeRunResultsJson(json::Writer &w, const RunResults &r)
{
    w.beginObject();
    w.key("config");
    w.value(r.configName);
    w.key("packets_processed");
    w.value(r.packetsProcessed);
    w.key("packets_dropped");
    w.value(r.packetsDropped);
    w.key("translations");
    w.value(r.translations);
    w.key("elapsed_ticks");
    w.value(r.elapsed);
    w.key("achieved_gbps");
    w.value(r.achievedGbps);
    w.key("utilization");
    w.value(r.utilization);
    w.key("devtlb_hit_rate");
    w.value(r.devtlbHitRate);
    w.key("pb_hit_rate");
    w.value(r.pbHitRate);
    w.key("iotlb_hit_rate");
    w.value(r.iotlbHitRate);
    w.key("walks");
    w.value(r.walks);
    w.key("iommu_requests");
    w.value(r.iommuRequests);
    w.key("avg_packet_latency_ns");
    w.value(r.avgPacketLatencyNs);
    w.endObject();
}

} // namespace hypersio::core
