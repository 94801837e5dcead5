/** Unit tests for the Translation Prefetching Scheme: SID-predictor
 *  training, Prefetch Buffer semantics, and the chipset-side IOVA
 *  History Reader. */

#include <gtest/gtest.h>

#include "core/chipset.hh"
#include "core/prefetch.hh"

namespace hypersio::core
{
namespace
{

TEST(SidPredictor, PredictsStrideUnderRoundRobin)
{
    // RR over 8 tenants with history length 4: predict(s) must
    // converge to (s + 4) % 8.
    SidPredictor pred(4);
    for (int round = 0; round < 3; ++round)
        for (trace::SourceId s = 0; s < 8; ++s)
            pred.train(s);
    for (trace::SourceId s = 0; s < 8; ++s) {
        auto p = pred.predict(s);
        ASSERT_TRUE(p.has_value());
        EXPECT_EQ(*p, (s + 4) % 8);
    }
}

TEST(SidPredictor, NoPredictionBeforeWindowFills)
{
    SidPredictor pred(10);
    for (trace::SourceId s = 0; s < 10; ++s) {
        EXPECT_FALSE(pred.predict(s).has_value());
        pred.train(s);
    }
    // The 11th observation creates the first table entry.
    pred.train(10);
    EXPECT_TRUE(pred.predict(0).has_value());
}

TEST(SidPredictor, AdaptsWhenScheduleChanges)
{
    SidPredictor pred(2);
    // First schedule: 0,1,2 repeating → predict(0) == 2.
    for (int i = 0; i < 9; ++i)
        pred.train(i % 3);
    ASSERT_TRUE(pred.predict(0).has_value());
    EXPECT_EQ(*pred.predict(0), 2u);
    // New schedule: 0,5 repeating → predict(0) becomes 0 (2 ahead).
    for (int i = 0; i < 10; ++i)
        pred.train(i % 2 == 0 ? 0 : 5);
    EXPECT_EQ(*pred.predict(0), 0u);
}

TEST(SidPredictor, ShrinkDrainsWindowWithNewStride)
{
    // Regression: shrinking the history length drains the window
    // through the same pairing rule train() uses. The old code paired
    // every evicted SID with _window.back(), so after observing
    // 0..7 with H=4 (window [4,5,6,7]) a shrink to H=1 trained
    // predict(4..6) to all answer 7 instead of the next SID.
    SidPredictor pred(4);
    for (trace::SourceId s = 0; s < 8; ++s)
        pred.train(s);
    pred.setHistoryLength(1);
    ASSERT_TRUE(pred.predict(4).has_value());
    EXPECT_EQ(*pred.predict(4), 5u);
    EXPECT_EQ(*pred.predict(5), 6u);
    EXPECT_EQ(*pred.predict(6), 7u);
    // Subsequent training keeps the one-entry window semantics.
    pred.train(9);
    EXPECT_EQ(*pred.predict(7), 9u);
}

TEST(SidPredictor, HistoryLengthReconfiguration)
{
    SidPredictor pred(8);
    for (int i = 0; i < 32; ++i)
        pred.train(i % 16);
    pred.setHistoryLength(2);
    EXPECT_EQ(pred.historyLength(), 2u);
    for (int i = 0; i < 32; ++i)
        pred.train(i % 16);
    EXPECT_EQ(*pred.predict(3), 5u);
}

PrefetchConfig
pbConfig(unsigned entries = 4)
{
    PrefetchConfig config;
    config.enabled = true;
    config.bufferEntries = entries;
    config.historyLength = 4;
    config.pagesPerPrefetch = 2;
    return config;
}

TEST(PrefetchUnit, FillThenConsumeOnHit)
{
    PrefetchUnit pu(pbConfig());
    pu.fill(1, 0x1000, mem::PageSize::Size4K, 0xAA000);
    mem::Addr addr = 0;
    EXPECT_TRUE(pu.lookup(1, 0x1234, mem::PageSize::Size4K, addr));
    EXPECT_EQ(addr, 0xAA000u);
    // Consume-on-hit: the second lookup misses.
    EXPECT_FALSE(pu.lookup(1, 0x1234, mem::PageSize::Size4K, addr));
}

TEST(PrefetchUnit, MissesAcrossDomainsAndSizes)
{
    PrefetchUnit pu(pbConfig());
    pu.fill(1, 0x1000, mem::PageSize::Size4K, 0xAA000);
    mem::Addr addr = 0;
    EXPECT_FALSE(pu.lookup(2, 0x1000, mem::PageSize::Size4K, addr));
    EXPECT_FALSE(pu.lookup(1, 0x1000, mem::PageSize::Size2M, addr));
}

TEST(PrefetchUnit, CapacityEvictsOldest)
{
    PrefetchUnit pu(pbConfig(2));
    pu.fill(1, 0x1000, mem::PageSize::Size4K, 1);
    pu.fill(1, 0x2000, mem::PageSize::Size4K, 2);
    pu.fill(1, 0x3000, mem::PageSize::Size4K, 3); // evicts 0x1000
    mem::Addr addr = 0;
    EXPECT_FALSE(pu.lookup(1, 0x1000, mem::PageSize::Size4K, addr));
    EXPECT_TRUE(pu.lookup(1, 0x2000, mem::PageSize::Size4K, addr));
    EXPECT_TRUE(pu.lookup(1, 0x3000, mem::PageSize::Size4K, addr));
}

TEST(PrefetchUnit, EightEntryBufferEvictsInLruOrder)
{
    // The paper's PB is 8 fully-associative entries. Fill all 8,
    // then keep filling: evictions must leave in insertion (LRU)
    // order, one per fill, and fill() must report each victim.
    PrefetchUnit pu(pbConfig(8));
    for (mem::Iova page = 0; page < 8; ++page) {
        EXPECT_EQ(pu.fill(1, (page + 1) << 12, mem::PageSize::Size4K,
                          page + 1),
                  std::nullopt);
    }
    EXPECT_EQ(pu.bufferOccupancy(), 8u);

    mem::Addr addr = 0;
    for (mem::Iova page = 8; page < 12; ++page) {
        const auto evicted = pu.fill(
            1, (page + 1) << 12, mem::PageSize::Size4K, page + 1);
        ASSERT_TRUE(evicted.has_value());
        // The victim is the oldest resident fill, 8 pages back.
        const mem::Iova victim = (page - 8 + 1) << 12;
        EXPECT_EQ(*evicted,
                  iommu::translationKey(1, victim,
                                        mem::PageSize::Size4K));
        EXPECT_FALSE(
            pu.lookup(1, victim, mem::PageSize::Size4K, addr));
        EXPECT_EQ(pu.bufferOccupancy(), 8u);
    }
    // The 8 most recent fills are all still resident.
    for (mem::Iova page = 4; page < 12; ++page) {
        EXPECT_TRUE(pu.lookup(1, (page + 1) << 12,
                              mem::PageSize::Size4K, addr));
    }
}

TEST(PrefetchUnit, ConsumedEntriesFreeSlotsWithoutEviction)
{
    PrefetchUnit pu(pbConfig(8));
    for (mem::Iova page = 0; page < 8; ++page)
        pu.fill(1, (page + 1) << 12, mem::PageSize::Size4K, 1);
    // A hit consumes its entry, so the next fill needs no victim.
    mem::Addr addr = 0;
    ASSERT_TRUE(pu.lookup(1, 0x3000, mem::PageSize::Size4K, addr));
    EXPECT_EQ(pu.bufferOccupancy(), 7u);
    EXPECT_EQ(pu.fill(1, 0x20000, mem::PageSize::Size4K, 2),
              std::nullopt);
    EXPECT_EQ(pu.bufferOccupancy(), 8u);
}

TEST(SidPredictor, MispredictsAfterPhaseShiftThenRetrains)
{
    // Beyond the shrink regression: a schedule reversal makes every
    // learned pairing wrong (stale, not absent), and sustained
    // training under the new schedule must repair all of them.
    // History length 3 with 8 tenants keeps the two phases distinct:
    // (s + 3) % 8 != (s - 3) % 8 for every s.
    SidPredictor pred(3);
    const unsigned tenants = 8;
    // Phase 1: ascending round-robin. predict(s) → (s + 3) % 8.
    for (int i = 0; i < 32; ++i)
        pred.train(i % tenants);
    for (trace::SourceId s = 0; s < tenants; ++s)
        ASSERT_EQ(*pred.predict(s), (s + 3) % tenants);

    // Phase 2: descending round-robin 7,6,5,… — three packets after
    // SID s the reversed cycle delivers (s - 3) mod 8, so every
    // stale phase-1 entry must end up overwritten.
    for (int i = 0; i < 32; ++i)
        pred.train(tenants - 1 - (i % tenants));
    for (trace::SourceId s = 0; s < tenants; ++s) {
        ASSERT_TRUE(pred.predict(s).has_value());
        EXPECT_EQ(*pred.predict(s), (s + tenants - 3) % tenants)
            << "sid " << s << " kept its stale phase-1 pairing";
    }
}

TEST(SidPredictor, RetrainsAfterTenantSetChanges)
{
    // A tenant disappears and a new SID joins: every live pairing is
    // replaced once training resumes on the new schedule.
    SidPredictor pred(2);
    for (int i = 0; i < 12; ++i)
        pred.train(i % 3); // 0,1,2 cycle
    ASSERT_EQ(*pred.predict(0), 2u);
    ASSERT_EQ(*pred.predict(1), 0u);
    // Tenant 2 leaves; the 0,1,9 cycle takes over.
    const trace::SourceId cycle[] = {0, 1, 9};
    for (int i = 0; i < 12; ++i)
        pred.train(cycle[i % 3]);
    EXPECT_EQ(*pred.predict(0), 9u);
    EXPECT_EQ(*pred.predict(1), 0u);
    EXPECT_EQ(*pred.predict(9), 1u);
    // The departed tenant's entry was retrained one last time as it
    // left the window: it pairs with the new cycle, not with a SID
    // from the dead schedule.
    EXPECT_EQ(*pred.predict(2), 1u);
}

TEST(PrefetchUnit, InvalidateDropsEntry)
{
    PrefetchUnit pu(pbConfig());
    pu.fill(3, 0xbbe00000, mem::PageSize::Size2M, 0xCC);
    pu.invalidate(3, 0xbbe00000, mem::PageSize::Size2M);
    mem::Addr addr = 0;
    EXPECT_FALSE(
        pu.lookup(3, 0xbbe00000, mem::PageSize::Size2M, addr));
}

/**
 * A History Reader on a real IOMMU, whose answers come back here:
 * each valid one is recorded as a fill, then closes its burst step,
 * as the System routes them.
 */
struct ReaderFixture : iommu::TranslationSink
{
    sim::EventQueue queue;
    stats::StatGroup stats{"test"};
    mem::MemoryModel memory{{50 * TicksPerNs, 0}, queue, stats};
    iommu::PageTableDirectory tables{42};
    iommu::Iommu iommu{iommu::IommuConfig{}, queue, stats, memory,
                       tables, *this};
    std::unique_ptr<HistoryReader> reader;

    struct Fill
    {
        mem::DomainId did;
        mem::Iova iova;
        mem::Addr hostAddr;
    };
    std::vector<Fill> fills;
    /** Bursts whose last translation has landed. */
    unsigned burstsEnded = 0;

    HistoryReader &
    makeReader(const PrefetchConfig &config)
    {
        reader = std::make_unique<HistoryReader>(config, queue, stats,
                                                 iommu, memory, 0);
        return *reader;
    }

    void
    translated(const iommu::IommuRequest &req,
               const iommu::IommuResponse &resp, bool) override
    {
        EXPECT_EQ(req.tag.kind, iommu::Requester::HistoryPrefetch);
        if (resp.valid)
            fills.push_back({req.domain, req.iova, resp.hostAddr});
        if (reader->prefetchTranslated(req.domain))
            ++burstsEnded;
    }
};

TEST(HistoryReader, PrefetchesMostRecentDistinctPages)
{
    ReaderFixture f;
    HistoryReader &reader = f.makeReader(pbConfig());
    f.tables.get(1).map(0x34800000, mem::PageSize::Size4K);
    f.tables.get(1).map(0xbbe00000, mem::PageSize::Size2M);
    f.tables.get(1).map(0xf0000000, mem::PageSize::Size4K);

    // Observed order: old, then the two most recent.
    reader.observe(1, 0xf0000000, mem::PageSize::Size4K);
    reader.observe(1, 0x34800000, mem::PageSize::Size4K);
    reader.observe(1, 0xbbe00010, mem::PageSize::Size2M);

    reader.prefetch(1);
    f.queue.run();

    ASSERT_EQ(f.fills.size(), 2u);
    // MRU first: data page, then the control page.
    EXPECT_EQ(f.fills[0].iova, 0xbbe00000u);
    EXPECT_EQ(f.fills[1].iova, 0x34800000u);
    for (const auto &fill : f.fills)
        EXPECT_NE(fill.hostAddr, 0u);
}

TEST(HistoryReader, DuplicateObservationsMoveToFront)
{
    ReaderFixture f;
    HistoryReader &reader = f.makeReader(pbConfig());
    f.tables.get(1).map(0x1000, mem::PageSize::Size4K);
    f.tables.get(1).map(0x2000, mem::PageSize::Size4K);
    reader.observe(1, 0x1000, mem::PageSize::Size4K);
    reader.observe(1, 0x2000, mem::PageSize::Size4K);
    reader.observe(1, 0x1000, mem::PageSize::Size4K); // refresh
    reader.prefetch(1);
    f.queue.run();
    ASSERT_EQ(f.fills.size(), 2u);
    EXPECT_EQ(f.fills[0].iova, 0x1000u);
}

TEST(HistoryReader, DeduplicatesInFlightPrefetches)
{
    ReaderFixture f;
    HistoryReader &reader = f.makeReader(pbConfig());
    f.tables.get(1).map(0x1000, mem::PageSize::Size4K);
    reader.observe(1, 0x1000, mem::PageSize::Size4K);
    EXPECT_TRUE(reader.prefetch(1));
    EXPECT_FALSE(reader.prefetch(1)); // dropped: already in flight
    f.queue.run();
    EXPECT_EQ(reader.prefetchesStarted(), 1u);
    EXPECT_EQ(reader.prefetchesDeduped(), 1u);
    // The one burst ended exactly once, with its last translation.
    EXPECT_EQ(f.burstsEnded, 1u);
    // After completion a new prefetch may start.
    EXPECT_TRUE(reader.prefetch(1));
    f.queue.run();
    EXPECT_EQ(reader.prefetchesStarted(), 2u);
    EXPECT_EQ(f.burstsEnded, 2u);
}

TEST(HistoryReader, UnknownTenantIsIgnored)
{
    ReaderFixture f;
    HistoryReader &reader = f.makeReader(pbConfig());
    EXPECT_FALSE(reader.prefetch(77)); // no history yet
    f.queue.run();
    EXPECT_EQ(reader.prefetchesStarted(), 0u);
    EXPECT_TRUE(f.fills.empty());
}

// A burst ends with its last translation, so one with none would
// never end.
TEST(HistoryReaderDeathTest, ZeroPagesPerBurstIsFatal)
{
    PrefetchConfig config = pbConfig();
    config.pagesPerPrefetch = 0;
    EXPECT_EXIT(
        {
            ReaderFixture f;
            f.makeReader(config);
        },
        ::testing::ExitedWithCode(1),
        "fatal: the IOVA History Reader needs prefetch.pages >= 1");
}

TEST(HistoryReader, ChargesHistoryReadLatency)
{
    ReaderFixture f;
    PrefetchConfig config = pbConfig();
    config.historyReadAccesses = 2;
    HistoryReader &reader = f.makeReader(config);
    f.tables.get(1).map(0x1000, mem::PageSize::Size4K);
    reader.observe(1, 0x1000, mem::PageSize::Size4K);
    reader.prefetch(1);
    f.queue.run();
    // 2 history reads + 24-access walk, serialized chains of 50 ns.
    EXPECT_EQ(f.queue.now(), (2 + 24) * 50 * TicksPerNs);
}

// ---- MMU-aware DMA stride detector (PrefetchKind::MmuDma) ------------

PrefetchConfig
mmuConfig(unsigned pages = 2)
{
    PrefetchConfig config;
    config.enabled = true;
    config.kind = PrefetchKind::MmuDma;
    config.bufferEntries = 8;
    config.pagesPerPrefetch = pages;
    return config;
}

TEST(MmuStride, LocksOntoStrideAndPredictsAhead)
{
    PrefetchUnit pu(mmuConfig());
    mem::Iova pages[4] = {};
    mem::PageSize size = mem::PageSize::Size2M;
    // First access primes, second establishes the stride candidate
    // (confidence 0 — no prediction yet).
    pu.observeAccess(1, trace::ReqClass::Data, 0x1000,
                     mem::PageSize::Size4K);
    pu.observeAccess(1, trace::ReqClass::Data, 0x2010,
                     mem::PageSize::Size4K);
    EXPECT_EQ(pu.predictStrided(1, trace::ReqClass::Data, pages,
                                size),
              0u);
    // Third access confirms the +0x1000 stride.
    pu.observeAccess(1, trace::ReqClass::Data, 0x3400,
                     mem::PageSize::Size4K);
    ASSERT_EQ(pu.predictStrided(1, trace::ReqClass::Data, pages,
                                size),
              2u);
    EXPECT_EQ(pages[0], 0x4000u);
    EXPECT_EQ(pages[1], 0x5000u);
    EXPECT_EQ(size, mem::PageSize::Size4K);
}

TEST(MmuStride, RingPollsCarryNoInformation)
{
    // Repeats of the current page (descriptor-ring polls) neither
    // build nor break confidence.
    PrefetchUnit pu(mmuConfig());
    mem::Iova pages[4] = {};
    mem::PageSize size = mem::PageSize::Size4K;
    pu.observeAccess(2, trace::ReqClass::Ring, 0x10000,
                     mem::PageSize::Size4K);
    pu.observeAccess(2, trace::ReqClass::Ring, 0x11000,
                     mem::PageSize::Size4K);
    for (int i = 0; i < 5; ++i) {
        pu.observeAccess(2, trace::ReqClass::Ring, 0x11080,
                         mem::PageSize::Size4K);
    }
    pu.observeAccess(2, trace::ReqClass::Ring, 0x12000,
                     mem::PageSize::Size4K);
    ASSERT_EQ(pu.predictStrided(2, trace::ReqClass::Ring, pages,
                                size),
              2u);
    EXPECT_EQ(pages[0], 0x13000u);
}

TEST(MmuStride, StrideBreakResetsConfidence)
{
    PrefetchUnit pu(mmuConfig());
    mem::Iova pages[4] = {};
    mem::PageSize size = mem::PageSize::Size4K;
    for (mem::Iova page = 0; page < 4; ++page) {
        pu.observeAccess(3, trace::ReqClass::Data, page << 12,
                         mem::PageSize::Size4K);
    }
    ASSERT_GT(pu.predictStrided(3, trace::ReqClass::Data, pages,
                                size),
              0u);
    // A jump breaks the stream: no prediction until the new stride
    // repeats once.
    pu.observeAccess(3, trace::ReqClass::Data, 0x900000,
                     mem::PageSize::Size4K);
    EXPECT_EQ(pu.predictStrided(3, trace::ReqClass::Data, pages,
                                size),
              0u);
    pu.observeAccess(3, trace::ReqClass::Data, 0x902000,
                     mem::PageSize::Size4K);
    pu.observeAccess(3, trace::ReqClass::Data, 0x904000,
                     mem::PageSize::Size4K);
    ASSERT_EQ(pu.predictStrided(3, trace::ReqClass::Data, pages,
                                size),
              2u);
    EXPECT_EQ(pages[0], 0x906000u);
}

TEST(MmuStride, PageSizeFlipRestartsDetection)
{
    PrefetchUnit pu(mmuConfig());
    mem::Iova pages[4] = {};
    mem::PageSize size = mem::PageSize::Size4K;
    for (mem::Iova page = 0; page < 4; ++page) {
        pu.observeAccess(4, trace::ReqClass::Data, page << 12,
                         mem::PageSize::Size4K);
    }
    ASSERT_GT(pu.predictStrided(4, trace::ReqClass::Data, pages,
                                size),
              0u);
    pu.observeAccess(4, trace::ReqClass::Data, 0x400000,
                     mem::PageSize::Size2M);
    EXPECT_EQ(pu.predictStrided(4, trace::ReqClass::Data, pages,
                                size),
              0u);
    // The 2M stream builds its own stride at 2M granularity.
    pu.observeAccess(4, trace::ReqClass::Data, 0x600000,
                     mem::PageSize::Size2M);
    pu.observeAccess(4, trace::ReqClass::Data, 0x800000,
                     mem::PageSize::Size2M);
    ASSERT_EQ(pu.predictStrided(4, trace::ReqClass::Data, pages,
                                size),
              2u);
    EXPECT_EQ(pages[0], 0xA00000u);
    EXPECT_EQ(size, mem::PageSize::Size2M);
}

TEST(MmuStride, StreamsAreIndependentPerTenantAndClass)
{
    PrefetchUnit pu(mmuConfig());
    mem::Iova pages[4] = {};
    mem::PageSize size = mem::PageSize::Size4K;
    // Interleaved: tenant 5's data stream ascends, its ring stream
    // descends, and tenant 6's data stream stays cold.
    for (int i = 0; i < 4; ++i) {
        pu.observeAccess(5, trace::ReqClass::Data,
                         mem::Iova(i) << 12, mem::PageSize::Size4K);
        pu.observeAccess(5, trace::ReqClass::Ring,
                         mem::Iova(16 - i) << 12,
                         mem::PageSize::Size4K);
        pu.observeAccess(6, trace::ReqClass::Data, 0x7000,
                         mem::PageSize::Size4K);
    }
    ASSERT_EQ(pu.predictStrided(5, trace::ReqClass::Data, pages,
                                size),
              2u);
    EXPECT_EQ(pages[0], 0x4000u);
    ASSERT_EQ(pu.predictStrided(5, trace::ReqClass::Ring, pages,
                                size),
              2u);
    EXPECT_EQ(pages[0], 12u << 12); // descending stride
    EXPECT_EQ(pu.predictStrided(6, trace::ReqClass::Data, pages,
                                size),
              0u);
    EXPECT_EQ(pu.mmuStreams(), 3u);
}

TEST(MmuStride, RetireDomainDropsEveryStream)
{
    PrefetchUnit pu(mmuConfig());
    for (int i = 0; i < 4; ++i) {
        pu.observeAccess(7, trace::ReqClass::Data,
                         mem::Iova(i) << 12, mem::PageSize::Size4K);
        pu.observeAccess(7, trace::ReqClass::Notify,
                         mem::Iova(i) << 13, mem::PageSize::Size4K);
        pu.observeAccess(8, trace::ReqClass::Data,
                         mem::Iova(i) << 14, mem::PageSize::Size4K);
    }
    EXPECT_EQ(pu.mmuStreams(), 3u);
    pu.retireDomain(7);
    EXPECT_EQ(pu.mmuStreams(), 1u);
    mem::Iova pages[4] = {};
    mem::PageSize size = mem::PageSize::Size4K;
    EXPECT_EQ(pu.predictStrided(7, trace::ReqClass::Data, pages,
                                size),
              0u);
    // The surviving tenant's detector is untouched.
    EXPECT_GT(pu.predictStrided(8, trace::ReqClass::Data, pages,
                                size),
              0u);
    pu.retireDomain(8);
    EXPECT_EQ(pu.mmuStreams(), 0u);
}

TEST(HistoryReader, HistoryDepthBoundsMemory)
{
    ReaderFixture f;
    PrefetchConfig config = pbConfig();
    config.historyDepth = 2;
    config.pagesPerPrefetch = 4;
    HistoryReader &reader = f.makeReader(config);
    for (mem::Iova page = 0; page < 10; ++page) {
        f.tables.get(1).map(page << 12, mem::PageSize::Size4K);
        reader.observe(1, page << 12, mem::PageSize::Size4K);
    }
    reader.prefetch(1);
    f.queue.run();
    // Only historyDepth pages were retained.
    EXPECT_EQ(f.fills.size(), 2u);
}

} // namespace
} // namespace hypersio::core
