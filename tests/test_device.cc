/** Unit tests for the device model: the serialized translation chain
 *  of a packet, DevTLB fills, prefetch triggering, and invalidation. */

#include <gtest/gtest.h>

#include "core/device.hh"

namespace hypersio::core
{
namespace
{

/** Records the packets a device completes. */
struct RecordingSink : Device::CompletionSink
{
    std::vector<trace::PacketRecord> completed;
    Device *device = nullptr; ///< when set, asserts entry released

    void
    packetDone(const trace::PacketRecord &pkt) override
    {
        if (device) {
            // The PTB entry must be released before the sink runs,
            // so a completion can immediately admit a new packet
            // even on a single-entry PTB.
            EXPECT_FALSE(device->ptbFull());
        }
        completed.push_back(pkt);
    }
};

/**
 * A fake chipset. With no latency it holds each demand request until
 * the test answers it (respondAll); with one, it answers every
 * request that much later. Its sink records the device's completed
 * packets.
 */
struct Fixture : ChipsetPort
{
    sim::EventQueue queue;
    stats::StatGroup stats{"test"};
    Device *device = nullptr;
    RecordingSink sink;
    Tick latency = 0;

    std::vector<iommu::IommuRequest> requests;
    std::vector<mem::DomainId> prefetches;

    /** A device wired to this fake, answering `latency` later. */
    std::unique_ptr<Device>
    make(const DeviceConfig &config, Tick answer_latency = 0,
         cache::OracleFeed *oracle = nullptr)
    {
        latency = answer_latency;
        auto made = std::make_unique<Device>(config, queue, stats,
                                             *this, sink, 0, oracle);
        device = made.get();
        return made;
    }

    void
    translate(const iommu::IommuRequest &req, bool) override
    {
        EXPECT_EQ(req.tag.kind, iommu::Requester::Demand);
        if (latency == 0) {
            requests.push_back(req);
            return;
        }
        queue.scheduleAfter(latency, [this, req] {
            iommu::IommuResponse resp;
            resp.valid = true;
            resp.hostAddr = 0xABC000 + req.iova;
            device->translated(req.tag.slot, resp);
        });
    }

    void
    prefetch(uint16_t, mem::DomainId did) override
    {
        prefetches.push_back(did);
    }

    void prefetchPage(const iommu::IommuRequest &) override {}

    /** Answers the oldest held request with `resp`. */
    void
    respond(const iommu::IommuResponse &resp)
    {
        const iommu::IommuRequest req = requests.front();
        requests.erase(requests.begin());
        device->translated(req.tag.slot, resp);
    }

    void
    respondAll()
    {
        // Responses may issue follow-up requests synchronously, so
        // drain a snapshot and keep the new arrivals.
        std::vector<iommu::IommuRequest> batch;
        batch.swap(requests);
        for (const auto &req : batch) {
            iommu::IommuResponse resp;
            resp.valid = true;
            resp.hostAddr = 0xABC000;
            device->translated(req.tag.slot, resp);
        }
    }
};

trace::PacketRecord
packet(trace::SourceId sid, mem::Iova data = 0xbbe00000)
{
    trace::PacketRecord pkt;
    pkt.sid = sid;
    pkt.ringIova = 0x34800000;
    pkt.dataIova = data;
    pkt.notifyIova = 0x34800f00;
    pkt.dataHuge = true;
    return pkt;
}

DeviceConfig
deviceConfig(bool prefetch = false)
{
    DeviceConfig config;
    config.ptbEntries = 4;
    config.devtlb = {64, 8, 1, cache::ReplPolicyKind::LRU, 7};
    config.prefetch.enabled = prefetch;
    config.prefetch.historyLength = 2;
    config.prefetch.bufferEntries = 8;
    return config;
}

TEST(Device, RequestsAreSerializedWithinPacket)
{
    Fixture f;
    auto device = f.make(deviceConfig());
    device->accept(packet(0));
    f.queue.run();

    // Only the first (ring) request is outstanding: the data-buffer
    // address depends on the ring descriptor read.
    ASSERT_EQ(f.requests.size(), 1u);
    EXPECT_EQ(f.requests[0].iova, 0x34800000u);
    f.respondAll();
    f.queue.run();
    ASSERT_EQ(f.requests.size(), 1u); // now the data request
    EXPECT_EQ(f.requests[0].iova, 0xbbe00000u);
    EXPECT_EQ(f.requests[0].size, mem::PageSize::Size2M);
    f.respondAll();
    f.queue.run();
    ASSERT_EQ(f.requests.size(), 0u); // notify hits the fresh fill
    EXPECT_EQ(f.sink.completed.size(), 1u);
}

TEST(Device, DevtlbFillServesLaterPackets)
{
    Fixture f;
    auto device = f.make(deviceConfig(), 100 * TicksPerNs);
    device->accept(packet(0));
    f.queue.run();
    EXPECT_EQ(f.sink.completed.size(), 1u);
    const Tick after_first = f.queue.now();

    // Same pages again: everything hits the DevTLB (2 ns per step).
    device->accept(packet(0));
    f.queue.run();
    EXPECT_EQ(f.sink.completed.size(), 2u);
    EXPECT_EQ(f.queue.now() - after_first, 3 * 2 * TicksPerNs);
}

TEST(Device, PtbFullReportsBeforeAccept)
{
    Fixture f;
    DeviceConfig config = deviceConfig();
    config.ptbEntries = 1;
    auto device = f.make(config);
    EXPECT_FALSE(device->ptbFull());
    device->accept(packet(0));
    f.queue.run();
    EXPECT_TRUE(device->ptbFull()); // ring request outstanding
    f.respondAll();
    f.queue.run();
    f.respondAll(); // data request
    f.queue.run();
    EXPECT_FALSE(device->ptbFull());
}

TEST(Device, InvalidTranslationDoesNotFillDevtlb)
{
    Fixture f;
    auto device = f.make(deviceConfig());
    device->accept(packet(0));
    f.queue.run();
    ASSERT_EQ(f.requests.size(), 1u);
    iommu::IommuResponse fault;
    fault.valid = false;
    f.respond(fault);
    f.requests.clear();
    f.queue.run();
    // The packet continues (data request), but the ring page is not
    // cached: a new packet misses on it again.
    EXPECT_EQ(device->devtlbStats().hits, 0u);
}

TEST(Device, PrefetchTriggersOncePerPacket)
{
    Fixture f;
    auto device = f.make(deviceConfig(true));
    // Train the predictor: tenants 0,1,0,1 with history 2 → the
    // table fills after 3 packets.
    for (trace::SourceId s : {0u, 1u, 0u}) {
        device->accept(packet(s));
        f.queue.run();
        f.respondAll();
        f.queue.run();
        f.respondAll();
        f.queue.run();
    }
    f.prefetches.clear();
    // A fresh data buffer forces DevTLB misses on this packet.
    device->accept(packet(1, 0xcbe00000));
    f.queue.run();
    f.respondAll();
    f.queue.run();
    f.respondAll();
    f.queue.run();
    // Despite misses in the packet, only one prefetch went out.
    ASSERT_EQ(f.prefetches.size(), 1u);
    // Predicted SID (2 packets ahead) arrives as its domain id.
    EXPECT_EQ(f.prefetches[0],
              iommu::ContextCache::resolve(1).domain);
}

/** Dispatch + fill, as the System delivers prefetched pages. */
void
pbFill(Device &device, mem::DomainId did, mem::Iova iova,
       mem::PageSize size, mem::Addr host_addr)
{
    device.prefetchFillDispatched(did, iova, size);
    device.prefetchFill(did, iova, size, host_addr);
}

TEST(Device, PrefetchFillServesFromPb)
{
    Fixture f;
    auto device = f.make(deviceConfig(true));
    pbFill(*device, 0, 0x34800000, mem::PageSize::Size4K, 0xAA000);
    pbFill(*device, 0, 0xbbe00000, mem::PageSize::Size2M, 0xBB0000);
    device->accept(packet(0));
    f.queue.run();
    // Ring and data hit the PB; only the notify request goes out
    // (its ring-page PB entry was consumed by the ring request).
    ASSERT_EQ(f.requests.size(), 1u);
    EXPECT_EQ(f.requests[0].iova, 0x34800f00u);
    EXPECT_EQ(device->pbHits(), 2u);
    f.respondAll();
    f.queue.run();
    EXPECT_EQ(f.sink.completed.size(), 1u);
}

TEST(Device, InvalidatePageDropsDevtlbAndPb)
{
    Fixture f;
    auto device = f.make(deviceConfig(true), 10);
    device->accept(packet(0));
    f.queue.run();
    EXPECT_EQ(f.sink.completed.size(), 1u);
    pbFill(*device, 0, 0xbbe00000, mem::PageSize::Size2M, 0xBB);

    device->invalidatePage(0, 0xbbe00000, mem::PageSize::Size2M);
    const auto before = device->devtlbStats().hits;
    device->accept(packet(0));
    f.queue.run();
    EXPECT_EQ(f.sink.completed.size(), 2u);
    // Ring and notify still hit; the data page had to re-translate.
    EXPECT_EQ(device->devtlbStats().hits, before + 2);
    EXPECT_EQ(device->pbHits(), 0u);
}

TEST(Device, InvalidateSquashesInFlightDemandFill)
{
    Fixture f;
    auto device = f.make(deviceConfig());
    device->accept(packet(0));
    f.queue.run();
    ASSERT_EQ(f.requests.size(), 1u); // ring request on the wire

    // The driver unmaps the ring page while the translation is in
    // flight: the response races the invalidation and must not
    // install the pre-unmap translation into the DevTLB.
    device->invalidatePage(0, 0x34800000, mem::PageSize::Size4K);
    f.respondAll();
    f.queue.run();
    EXPECT_EQ(device->demandFillsSquashed(), 1u);

    f.respondAll(); // data response
    f.queue.run();
    // The notify request shares the ring page; with the stale ring
    // fill squashed it must miss and go out to the chipset (with
    // the bug it hit the stale entry and no request appeared).
    ASSERT_EQ(f.requests.size(), 1u);
    EXPECT_EQ(f.requests[0].iova, 0x34800f00u);
    EXPECT_EQ(device->devtlbStats().hits, 0u);
}

TEST(Device, InvalidateSquashesInFlightPrefetchFill)
{
    Fixture f;
    auto device = f.make(deviceConfig(true));
    // Fill dispatched by the chipset, then the page is unmapped
    // while the fill crosses PCIe: the arrival must be dropped.
    device->prefetchFillDispatched(0, 0xbbe00000,
                                  mem::PageSize::Size2M);
    device->invalidatePage(0, 0xbbe00000, mem::PageSize::Size2M);
    device->prefetchFill(0, 0xbbe00000, mem::PageSize::Size2M,
                        0xBB0000);
    EXPECT_EQ(device->prefetchFillsSquashed(), 1u);
    EXPECT_EQ(device->prefetchBufferOccupancy(), 0u);

    // A fresh dispatch with no intervening invalidate installs.
    pbFill(*device, 0, 0xbbe00000, mem::PageSize::Size2M, 0xCC0000);
    EXPECT_EQ(device->prefetchFillsSquashed(), 1u);
    EXPECT_EQ(device->prefetchBufferOccupancy(), 1u);
}

TEST(Device, InvalidateDropsBothSizeFlavors)
{
    // A size-flip remap re-keys the translation; the device-side
    // invalidate must drop the old flavor's entry whatever size the
    // unmap op declared.
    Fixture f;
    auto device = f.make(deviceConfig(true));
    pbFill(*device, 0, 0xbbe00000, mem::PageSize::Size2M, 0xBB0000);
    device->invalidatePage(0, 0xbbe00000, mem::PageSize::Size4K);
    EXPECT_EQ(device->prefetchBufferOccupancy(), 0u);

    pbFill(*device, 0, 0xbbe00000, mem::PageSize::Size4K, 0xCC000);
    device->invalidatePage(0, 0xbbe00000, mem::PageSize::Size2M);
    EXPECT_EQ(device->prefetchBufferOccupancy(), 0u);
}

TEST(Device, ContextCacheWarmsOnFirstUse)
{
    Fixture f;
    auto device = f.make(deviceConfig(), 10);
    device->accept(packet(5));
    f.queue.run();
    EXPECT_EQ(device->contextStats().hits, 2u); // req 2 and 3
    EXPECT_EQ(device->contextStats().misses(), 1u);
}

TEST(Device, TranslationCounterCountsAllRequests)
{
    Fixture f;
    auto device = f.make(deviceConfig(), 10);
    for (int i = 0; i < 5; ++i) {
        device->accept(packet(0));
        f.queue.run(); // complete before the next accept
    }
    EXPECT_EQ(device->translationsIssued(), 15u);
}

TEST(Device, CompletionSinkReceivesTheCompletedPacket)
{
    Fixture f;
    auto device = f.make(deviceConfig(), 10);
    trace::PacketRecord pkt = packet(3);
    pkt.wireBytes = 777;
    device->accept(pkt);
    f.queue.run();
    ASSERT_EQ(f.sink.completed.size(), 1u);
    EXPECT_EQ(f.sink.completed[0].sid, 3u);
    EXPECT_EQ(f.sink.completed[0].wireBytes, 777u);
    EXPECT_EQ(device->ptbInUse(), 0u);
}

TEST(Device, CompletionSinkRunsAfterEntryRelease)
{
    Fixture f;
    DeviceConfig config = deviceConfig();
    config.ptbEntries = 1;
    auto device = f.make(config, 10);
    f.sink.device = device.get();
    device->accept(packet(0));
    f.queue.run();
    EXPECT_EQ(f.sink.completed.size(), 1u);
}

TEST(DeviceDeathTest, OracleDevtlbRefusesSubEntryTags)
{
    // The Belady feed holds full translation keys; sub-entry tags
    // would hand the policy shared keys it never sees.
    EXPECT_EXIT(
        {
            Fixture f;
            DeviceConfig config = deviceConfig();
            config.devtlb.policy = cache::ReplPolicyKind::Oracle;
            config.devtlb.subEntries = 4;
            cache::OracleFeed feed({1, 2, 3});
            f.make(config, 0, &feed);
        },
        ::testing::ExitedWithCode(1),
        "Oracle DevTLB replacement needs devtlb.subEntries = 1");
}

} // namespace
} // namespace hypersio::core
