#include "core/system.hh"

#include <algorithm>
#include <ostream>

#include "iommu/keys.hh"
#include "oracle/hooks.hh"
#include "util/logging.hh"

namespace hypersio::core
{

/**
 * Wires one device's ports with PCIe latency on each hop: demand
 * path device → IOMMU → device (state pooled in the link's
 * XlatePort), prefetch path device → history reader (which later
 * fills back through its own callback).
 */
DevicePorts
System::makeDevicePorts(Link &link)
{
    link.xlatePort = std::make_unique<XlatePort>(
        _queue, *_iommu, link.historyReader.get(), _config.pcieOneWay);
    DevicePorts ports;
    ports.translate = [port = link.xlatePort.get()](
                          mem::DomainId did, mem::Iova iova,
                          mem::PageSize size, bool may_fuse,
                          DevicePorts::ResponseFn done) {
        port->translate(did, iova, size, may_fuse, std::move(done));
    };
    if (HistoryReader *reader = link.historyReader.get()) {
        ports.prefetch = [this, reader](mem::DomainId did) {
            _queue.scheduleAfter(_config.pcieOneWay,
                                 [reader, did] { reader->prefetch(did); });
        };
    }
    if (_config.device.prefetch.enabled &&
        _config.device.prefetch.kind == PrefetchKind::MmuDma) {
        // MMU-aware prefetch: one predicted page crosses PCIe to the
        // chipset, translates through the regular (prefetch-tagged)
        // IOMMU path, and a valid result is dispatched back as a
        // prefetch fill. The pending counter gates streaming-run
        // retirement for the issue-to-completion window; the return
        // hop is then covered by the fill wire counter.
        ports.prefetchPage = [this, &link](mem::DomainId did,
                                           mem::Iova iova,
                                           mem::PageSize size) {
            ++_mmuPrefetchesInFlight[did];
            _queue.scheduleAfter(
                _config.pcieOneWay, [this, &link, did, iova, size]() {
                    iommu::IommuRequest req;
                    req.domain = did;
                    req.iova = iova;
                    req.size = size;
                    req.prefetch = true;
                    _iommu->translate(
                        req,
                        [this, &link, did, iova,
                         size](const iommu::IommuResponse &resp) {
                            uint32_t *pending =
                                _mmuPrefetchesInFlight.find(did);
                            HYPERSIO_ASSERT(
                                pending && *pending > 0,
                                "MMU prefetch completion without "
                                "a pending counter");
                            if (--*pending == 0)
                                _mmuPrefetchesInFlight.erase(did);
                            if (resp.valid) {
                                dispatchPrefetchFill(
                                    link, did, iova, size,
                                    resp.hostAddr);
                            }
                        });
                });
        };
    }
    return ports;
}

void
System::dispatchPrefetchFill(Link &link, mem::DomainId did,
                             mem::Iova iova, mem::PageSize size,
                             mem::Addr host_addr)
{
    ++_fillsInFlight[did];
    // The device records the fill as in flight now: an invalidate of
    // this page during the PCIe hop squashes the fill instead of
    // installing a stale translation.
    link.device->prefetchFillDispatched(did, iova, size);
    _queue.scheduleAfter(
        _config.pcieOneWay,
        [this, &link, did, iova, size, host_addr]() {
            uint32_t *wire = _fillsInFlight.find(did);
            HYPERSIO_ASSERT(wire && *wire > 0,
                            "prefetch fill without a wire counter");
            --*wire;
            link.device->prefetchFill(did, iova, size, host_addr);
        });
}

System::System(const SystemConfig &config, unsigned devices)
    : _config(config), _stats("system"), _tables(config.seed)
{
    if (devices == 0)
        fatal("a system needs at least one device");
    // Event fusion is bit-identical either way, so this only selects
    // the schedule being measured.
    _queue.setFusionEnabled(_config.eventFusion);
    _memory = std::make_unique<mem::MemoryModel>(_config.memory,
                                                 _queue, _stats);
    _iommu = std::make_unique<iommu::Iommu>(
        _config.iommu, _queue, _stats, *_memory, _tables);

    _links.resize(devices);
    for (unsigned d = 0; d < devices; ++d) {
        Link &link = _links[d];
        link.stats = devices == 1
                         ? &_stats
                         : &_stats.child("dev" + std::to_string(d));
        if (_config.device.prefetch.enabled &&
            _config.device.prefetch.kind ==
                PrefetchKind::SidPredictor) {
            // The History Reader drives the paper's scheme; prefetch
            // completions return to this device via
            // dispatchPrefetchFill (the MmuDma mechanism has no
            // reader — its completions come straight from the IOMMU
            // in makeDevicePorts()).
            auto fill = [this, &link](mem::DomainId did,
                                      mem::Iova iova,
                                      mem::PageSize size,
                                      mem::Addr host_addr) {
                dispatchPrefetchFill(link, did, iova, size,
                                     host_addr);
            };
            link.historyReader = std::make_unique<HistoryReader>(
                _config.device.prefetch, _queue, *link.stats, *_iommu,
                *_memory, std::move(fill));
        }
        // With Belady replacement the device needs the
        // future-knowledge feed, which is only available once run()
        // sees the trace; the device is then built lazily there.
        if (_config.device.devtlb.policy !=
            cache::ReplPolicyKind::Oracle) {
            link.device = std::make_unique<Device>(
                _config.device, _queue, *link.stats,
                makeDevicePorts(link));
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
    for (Link &link : _links) {
        std::vector<uint64_t> keys;
        keys.reserve(link.count * 3);
        for (uint64_t k = 0; k < link.count; ++k) {
            const trace::PacketRecord &pkt =
                trace.packets[link.traceIndex(k)];
            const mem::DomainId did =
                iommu::ContextCache::resolve(pkt.sid, pkt.pasid)
                    .domain;
            for (unsigned c = 0; c < trace::NumReqClasses; ++c) {
                const auto cls = static_cast<trace::ReqClass>(c);
                keys.push_back(iommu::translationKey(
                    did, pkt.iova(cls), pkt.pageSize(cls)));
            }
        }
        link.oracleFeed = std::make_unique<cache::OracleFeed>(keys);
        link.device = std::make_unique<Device>(
            _config.device, _queue, *link.stats, makeDevicePorts(link),
            link.oracleFeed.get());
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

    // Tenant t's packets ride link t % N in trace order. One link
    // carries the whole trace, so it needs no index list.
    if (_links.size() == 1) {
        _links[0].count = trace.packets.size();
    } else {
        for (size_t i = 0; i < trace.packets.size(); ++i) {
            _links[trace.packets[i].sid % _links.size()]
                .order.push_back(static_cast<uint32_t>(i));
        }
        for (Link &link : _links)
            link.count = link.order.size();
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

#ifdef HYPERSIO_CHECKED
    // Auto-install a fail-fast differential oracle for a
    // single-device run unless one is already active on this thread
    // (tests/fuzzing install their own collecting checker) or
    // auto-checking is disabled (HYPERSIO_SHADOW=off).
    std::unique_ptr<oracle::ShadowChecker> auto_checker;
    std::optional<oracle::ShadowScope> shadow_scope;
    if (_links.size() == 1 && !oracle::shadowChecker() &&
        oracle::shadowAutoCheckEnabled() && !bypass_translation) {
        auto_checker = std::make_unique<oracle::ShadowChecker>(
            toShadowConfig(_config), &_tables, /*fail_fast=*/true);
        shadow_scope.emplace(*auto_checker);
    }
#endif

    const Tick interval = _config.link.packetInterval();
    const unsigned batch = _config.admitBatch ? _config.admitBatch : 1;

    // One arrival process per link, all running this body. At
    // admitBatch == 1 (the default), one packet per arrival slot —
    // the classic process. Larger batches drain up to `batch` pending
    // arrivals per dispatch and space events by the batch's summed
    // serialization time. A PTB drop ends the batch, and the slots
    // that are bound to be refused after it are billed in one step
    // (fastForwardRefusedSlots). Packets with an explicit wire size
    // occupy the link for their own serialization time (small
    // packets arrive faster, leaving less time per translation).
    auto arrive = [&](Link &link, std::function<void()> *self) {
        Device &device = *link.device;
        bool refused = false;
        for (unsigned b = 0; b < batch && link.cursor < link.count;
             ++b) {
            const trace::PacketRecord &pkt =
                trace.packets[link.traceIndex(link.cursor)];

            if (bypass_translation) {
                // Native mode: no address translation at all.
                ++link.cursor;
                ++_processed;
                _bytesProcessed += wireBytesOf(pkt);
                _lastCompletion = _queue.now();
                continue;
            }
            if (device.ptbFull()) {
                // Dropped; the same packet retries next slot.
                ++_dropped;
                HYPERSIO_SHADOW(devicePacketDropped());
                refused = true;
                break;
            }
            applyOps(pkt, trace.ops.data() + pkt.opBegin);
            ++link.cursor;
            device.accept(pkt, *this);
        }

        if (link.cursor < link.count) {
            // The next arrival follows the serialization time of
            // the packets now occupying the wire (the retried packet
            // first on a drop, the next ones otherwise). Re-arm
            // through a one-word reference so the arrival closure
            // itself is never copied per slot.
            Tick gap = 0;
            const uint64_t ahead =
                std::min<uint64_t>(batch, link.count - link.cursor);
            for (uint64_t i = 0; i < ahead; ++i) {
                const Tick ser = serializationTicks(
                    wireBytesOf(
                        trace.packets[link.traceIndex(link.cursor + i)]),
                    _config.link.gbps);
                gap += ser == 0 ? interval : ser;
            }
            _queue.scheduleAfter(
                refused ? fastForwardRefusedSlots(gap) : gap,
                [self] { (*self)(); });
        }
    };

    std::vector<std::function<void()>> arrivals(_links.size());
    for (size_t d = 0; d < _links.size(); ++d) {
        if (_links[d].count == 0)
            continue;
        std::function<void()> *self = &arrivals[d];
        *self = [&arrive, &link = _links[d], self] {
            arrive(link, self);
        };
        _queue.schedule(0, [self] { (*self)(); });
    }
    _queue.run();

    shadowRunCompleted(bypass_translation);
    return collectResults(wireBytesOf(trace.packets.front()));
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
    Device &device = *_links[0].device;

    const trace::PacketRecord *first = stream.peek();
    if (!first) {
        HYPERSIO_ASSERT(stream.exhausted(),
                        "stream stalled before its first packet");
        RunResults empty;
        empty.configName = _config.name;
        return empty;
    }

#ifdef HYPERSIO_CHECKED
    // Same auto-installed differential oracle as run().
    std::unique_ptr<oracle::ShadowChecker> auto_checker;
    std::optional<oracle::ShadowScope> shadow_scope;
    if (!oracle::shadowChecker() &&
        oracle::shadowAutoCheckEnabled()) {
        auto_checker = std::make_unique<oracle::ShadowChecker>(
            toShadowConfig(_config), &_tables, /*fail_fast=*/true);
        shadow_scope.emplace(*auto_checker);
    }
#endif

    _stream = &stream;
    _evictStream = opts.evictDetached;
    _streamInterval = _config.link.packetInterval();
    const uint64_t first_bytes = wireBytesOf(*first);

    // The arrival process mirrors run()'s slot for slot; the only
    // difference is where the next packet comes from (and that a
    // batch can also end early because the stream ran dry — only the
    // head packet is peekable). A stream that runs dry while tenants
    // await retirement (ChurnStream parked on a full SID space)
    // parks the process; retirement completions re-arm it through
    // maybeRestartStreamArrival().
    const unsigned batch = _config.admitBatch ? _config.admitBatch : 1;
    std::function<void()> arrival = [&]() {
        HYPERSIO_ASSERT(_stream->peek(),
                        "stream arrival fired without a packet");
        bool refused = false;
        for (unsigned b = 0; b < batch; ++b) {
            const trace::PacketRecord *head = _stream->peek();
            if (!head)
                break;
            if (device.ptbFull()) {
                // Dropped; the same packet retries next slot.
                ++_dropped;
                HYPERSIO_SHADOW(devicePacketDropped());
                refused = true;
                break;
            }
            // Copy the record out: advance() invalidates peek().
            const trace::PacketRecord pkt = *head;
            applyOps(pkt, _stream->ops());
            if (_evictStream)
                ++_outstanding[pkt.sid];
            _stream->advance();
            device.accept(pkt, *this);
        }

        if (_evictStream)
            serviceRetirements();

        if (const trace::PacketRecord *next = _stream->peek()) {
            // Only the head is visible, so the batch window is
            // approximated as `batch` slots of the head's
            // serialization time (exact at batch == 1). After a drop
            // the head cannot change before the next event, so the
            // window is also the spacing of every refused slot.
            const Tick ser = serializationTicks(
                wireBytesOf(*next), _config.link.gbps);
            const Tick slot = ser == 0 ? _streamInterval : ser;
            const Tick gap = slot * batch;
            _queue.scheduleAfter(
                refused ? fastForwardRefusedSlots(gap) : gap,
                [&arrival] { arrival(); });
        } else if (!_stream->exhausted()) {
            _streamStalled = true;
        }
    };
    _streamArrival = &arrival;

    _queue.schedule(0, [&arrival] { arrival(); });
    for (;;) {
        _queue.run();
        if (!_evictStream)
            break;
        // Drained: every in-flight access is done, so anything still
        // pending must retire now (and may unpark the stream).
        serviceRetirements();
        HYPERSIO_ASSERT(_pendingRetire.empty(),
                        "tenants stuck awaiting retirement after "
                        "the queue drained");
        if (_streamStalled && _stream->peek()) {
            _streamStalled = false;
            _queue.scheduleAfter(_streamInterval,
                                 [&arrival] { arrival(); });
            continue;
        }
        break;
    }
    HYPERSIO_ASSERT(_stream->exhausted(),
                    "streaming run ended with the stream unfinished");
    _streamArrival = nullptr;
    _stream = nullptr;

    shadowRunCompleted(/*bypass_translation=*/false);
    return collectResults(first_bytes);
}

void
System::shadowRunCompleted([[maybe_unused]] bool bypass_translation)
{
    [[maybe_unused]] const Device &device = *_links[0].device;
    HYPERSIO_SHADOW(systemRunCompleted(
        bypass_translation, _processed, device.translationsIssued(),
        device.devtlbOccupancy(), device.prefetchBufferOccupancy(),
        _iommu->iotlbOccupancy(), _iommu->l2Occupancy(),
        _iommu->l3Occupancy(), device.ptbInUse()));
}

Tick
System::fastForwardRefusedSlots(Tick gap)
{
    // Only an event can free a PTB entry, and neither the packet at
    // the head nor the retirement gates move between events, so every
    // slot strictly before the next pending event is refused exactly
    // like this one. Bill them here; the re-arm then takes the seq
    // the last elided re-arm would have taken (DESIGN.md §15).
    const uint64_t skip =
        sim::refusedSlotsBefore(_queue.now(), _queue.nextTick(), gap);
    if (skip == 0)
        return gap;
    _dropped += skip;
    HYPERSIO_SHADOW(devicePacketsDropped(skip));
    _queue.burnSeqs(skip);
    return gap * (skip + 1);
}

void
System::packetDone(const trace::PacketRecord &pkt)
{
    ++_processed;
    _bytesProcessed += wireBytesOf(pkt);
    _lastCompletion = _queue.now();
    // Streaming-run bookkeeping; _evictStream is never set by run().
    if (_evictStream)
        onStreamPacketDrained(pkt.sid);
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
    _stream->drainDetached(_pendingRetire);
    if (_pendingRetire.empty())
        return;
    // Retire what can go; keep the rest in detach order. A SID may
    // stay parked across many slots while its packets, prefetch
    // bursts, or fills drain — retrying here every arrival and every
    // completion keeps the latency O(in-flight work), not O(stream).
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
    // Gate 1: every accepted packet of the SID has completed.
    if (const uint32_t *count = _outstanding.find(sid);
        count && *count > 0) {
        return false;
    }

    // The SID's domains (one per PASID the tenant used). Directory
    // iteration order is unspecified; sort for determinism. The
    // list lives in the retirement arena: this function reruns on
    // every completion while the tenant drains.
    const util::Arena::Scope scratch(_retireArena);
    auto *dids = _retireArena.allocArray<mem::DomainId>(
        _tables.size());
    size_t ndids = 0;
    _tables.forEachDomain([&](const mem::DomainId &did) {
        if (iommu::ContextCache::sidOf(did) == sid)
            dids[ndids++] = did;
    });
    std::sort(dids, dids + ndids);

    Link &link = linkOf(sid);
    for (size_t i = 0; i < ndids; ++i) {
        const mem::DomainId did = dids[i];
        // Gate 2: no history-reader prefetch burst in flight.
        if (link.historyReader &&
            link.historyReader->prefetchInFlight(did))
            return false;
        // Gate 3: no prefetched translation on the PCIe wire.
        if (const uint32_t *wire = _fillsInFlight.find(did);
            wire && *wire > 0) {
            return false;
        }
        // Gate 4: no MMU prefetch between issue and its IOMMU
        // completion (after which the fill rides Gate 3's wire).
        if (const uint32_t *pending = _mmuPrefetchesInFlight.find(did);
            pending && *pending > 0) {
            return false;
        }
    }

    for (size_t i = 0; i < ndids; ++i)
        retireDomain(dids[i]);
    link.device->retireSid(sid);
    _streamRetirements.push_back(
        {_queue.now(), _queue.scheduledSeq(), sid});
    _stream->sidRetired(sid);
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
    using PageRef = std::pair<mem::Iova, mem::PageSize>;
    const util::Arena::Scope scratch(_retireArena);
    auto *pages = _retireArena.allocArray<PageRef>(table->size());
    size_t npages = 0;
    table->forEachMapping(
        [&](mem::Iova base, mem::PageSize size) {
            pages[npages++] = {base, size};
        });
    std::sort(pages, pages + npages);
    for (size_t i = 0; i < npages; ++i) {
        const auto [base, size] = pages[i];
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
System::onStreamPacketDrained(trace::SourceId sid)
{
    uint32_t *count = _outstanding.find(sid);
    HYPERSIO_ASSERT(count && *count > 0,
                    "packet completion without an outstanding "
                    "counter");
    --*count;
    serviceRetirements();
    maybeRestartStreamArrival();
}

void
System::maybeRestartStreamArrival()
{
    if (!_streamStalled || !_streamArrival)
        return;
    if (!_stream->peek())
        return;
    _streamStalled = false;
    _queue.scheduleAfter(_streamInterval,
                         [fn = _streamArrival] { (*fn)(); });
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
