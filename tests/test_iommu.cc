/** Unit tests for the IOMMU: IOTLB hit path, two-dimensional walk
 *  costs, paging-cache warming, MSHR coalescing, walker-slot limits,
 *  translation faults, and invalidation. */

#include <gtest/gtest.h>

#include "iommu/context_cache.hh"
#include "iommu/iommu.hh"
#include "iommu/keys.hh"

namespace hypersio::iommu
{
namespace
{

/** Records every delivery the IOMMU makes, with its tick. */
struct Fixture : TranslationSink
{
    explicit Fixture(mem::MemoryConfig memory_config = {50 * TicksPerNs,
                                                         0})
        : memory(memory_config, queue, stats)
    {}

    sim::EventQueue queue;
    stats::StatGroup stats{"test"};
    mem::MemoryModel memory;
    PageTableDirectory tables{42};

    struct Delivery
    {
        IommuRequest req;
        IommuResponse resp;
        bool tail;
        Tick at;
    };
    std::vector<Delivery> delivered;

    void
    translated(const IommuRequest &req, const IommuResponse &resp,
               bool tail) override
    {
        delivered.push_back({req, resp, tail, queue.now()});
    }

    std::unique_ptr<Iommu> make(IommuConfig config = {})
    {
        return std::make_unique<Iommu>(config, queue, stats, memory,
                                       tables, *this);
    }

    /** Delivered domains in order, prefetches negated. */
    std::vector<int>
    order() const
    {
        std::vector<int> out;
        for (const Delivery &d : delivered) {
            const int did = static_cast<int>(d.req.domain);
            out.push_back(d.req.prefetch() ? -did : did);
        }
        return out;
    }
};

/** A demand request of PTB slot `slot`. */
IommuRequest
demand(mem::DomainId did, mem::Iova iova,
       mem::PageSize size = mem::PageSize::Size4K, uint32_t slot = 0)
{
    return {did, size, {Requester::Demand, 0, slot}, iova};
}

/** A History Reader prefetch request. */
IommuRequest
prefetch(mem::DomainId did, mem::Iova iova)
{
    return {did, mem::PageSize::Size4K, {Requester::HistoryPrefetch},
            iova};
}

TEST(Keys, TranslationKeyUniqueness)
{
    // Distinct domains, sizes, and frames make distinct keys.
    const auto k1 = translationKey(1, 0x1000, mem::PageSize::Size4K);
    const auto k2 = translationKey(2, 0x1000, mem::PageSize::Size4K);
    const auto k3 = translationKey(1, 0x2000, mem::PageSize::Size4K);
    const auto k4 = translationKey(1, 0x1000, mem::PageSize::Size2M);
    EXPECT_NE(k1, k2);
    EXPECT_NE(k1, k3);
    EXPECT_NE(k1, k4);
    // Same page, different offsets: same key.
    EXPECT_EQ(k1, translationKey(1, 0x1fff, mem::PageSize::Size4K));
}

TEST(Keys, PagingKeyCoversPrefix)
{
    // Two addresses in the same 2 MB region share the level-2 key.
    EXPECT_EQ(pagingKey(1, 0xbbe00000, 2),
              pagingKey(1, 0xbbe12345, 2));
    EXPECT_NE(pagingKey(1, 0xbbe00000, 2),
              pagingKey(1, 0xbc000000, 2));
    EXPECT_NE(pagingKey(1, 0xbbe00000, 2),
              pagingKey(2, 0xbbe00000, 2));
    EXPECT_NE(pagingKey(1, 0xbbe00000, 2),
              pagingKey(1, 0xbbe00000, 3));
}

TEST(ContextCacheTest, MissThenFillThenHit)
{
    ContextCache cc({16, 4, 1, cache::ReplPolicyKind::LRU, 1});
    EXPECT_EQ(cc.lookup(5), nullptr);
    cc.fill(5, 0, ContextCache::resolve(5));
    const ContextEntry *entry = cc.lookup(5);
    ASSERT_NE(entry, nullptr);
    EXPECT_EQ(entry->domain, 5u); // pasid 0 → did == sid
    EXPECT_EQ(cc.stats().hits, 1u);

    // Different PASIDs of the same SID map to distinct domains.
    cc.fill(5, 7, ContextCache::resolve(5, 7));
    const ContextEntry *proc = cc.lookup(5, 7);
    ASSERT_NE(proc, nullptr);
    EXPECT_EQ(proc->domain, 7u * ContextCache::SidSpace + 5);
    EXPECT_NE(proc->domain, entry->domain);
}

TEST(IommuTest, FullWalkCostsTableII)
{
    Fixture f;
    auto iommu = f.make();
    f.tables.get(1).map(0x1000, mem::PageSize::Size4K);
    iommu->translate(demand(1, 0x1000));
    f.queue.run();
    ASSERT_EQ(f.delivered.size(), 1u);
    const IommuResponse &seen = f.delivered[0].resp;
    ASSERT_TRUE(seen.valid);
    EXPECT_FALSE(seen.iotlbHit);
    // Cold caches: full 24-access walk at 50 ns each.
    EXPECT_EQ(f.delivered[0].at, 24 * 50 * TicksPerNs);
}

TEST(IommuTest, FullWalk2MCosts19Accesses)
{
    Fixture f;
    auto iommu = f.make();
    f.tables.get(1).map(0xbbe00000, mem::PageSize::Size2M);
    iommu->translate(demand(1, 0xbbe00000, mem::PageSize::Size2M));
    f.queue.run();
    ASSERT_EQ(f.delivered.size(), 1u);
    EXPECT_EQ(f.delivered[0].at, 19 * 50 * TicksPerNs);
}

TEST(IommuTest, IotlbHitIsFast)
{
    Fixture f;
    auto iommu = f.make();
    f.tables.get(1).map(0x1000, mem::PageSize::Size4K);

    iommu->translate(demand(1, 0x1000));
    f.queue.run();

    Tick start = f.queue.now();
    iommu->translate(demand(1, 0x1800));
    f.queue.run();
    ASSERT_EQ(f.delivered.size(), 2u);
    const IommuResponse &seen = f.delivered[1].resp;
    ASSERT_TRUE(seen.valid);
    EXPECT_TRUE(seen.iotlbHit);
    EXPECT_EQ(f.delivered[1].at - start, 2 * TicksPerNs);
}

TEST(IommuTest, PagingCachesShortenLaterWalks)
{
    Fixture f;
    auto iommu = f.make();
    // Two 4 KB pages in the same 2 MB region: the second walk should
    // hit the L2 paging cache and cost only 9 accesses.
    f.tables.get(1).map(0x10000000, mem::PageSize::Size4K);
    f.tables.get(1).map(0x10001000, mem::PageSize::Size4K);

    iommu->translate(demand(1, 0x10000000));
    f.queue.run();

    const Tick start = f.queue.now();
    iommu->translate(demand(1, 0x10001000));
    f.queue.run();
    ASSERT_EQ(f.delivered.size(), 2u);
    EXPECT_EQ(f.delivered[1].at - start, 9 * 50 * TicksPerNs);
}

TEST(IommuTest, L3CacheShortensCrossRegionWalks)
{
    Fixture f;
    auto iommu = f.make();
    // Same 1 GB region, different 2 MB regions: L3 hit → 14 accesses.
    f.tables.get(1).map(0x10000000, mem::PageSize::Size4K);
    f.tables.get(1).map(0x10200000, mem::PageSize::Size4K);

    iommu->translate(demand(1, 0x10000000));
    f.queue.run();

    const Tick start = f.queue.now();
    iommu->translate(demand(1, 0x10200000));
    f.queue.run();
    ASSERT_EQ(f.delivered.size(), 2u);
    EXPECT_EQ(f.delivered[1].at - start, 14 * 50 * TicksPerNs);
}

TEST(IommuTest, MshrCoalescesConcurrentSamePageWalks)
{
    Fixture f;
    auto iommu = f.make();
    f.tables.get(1).map(0x1000, mem::PageSize::Size4K);

    for (uint32_t slot = 0; slot < 3; ++slot)
        iommu->translate(demand(1, 0x1000, mem::PageSize::Size4K, slot));
    f.queue.run();
    // Every requester hears back, in request order, under its tag.
    ASSERT_EQ(f.delivered.size(), 3u);
    for (uint32_t slot = 0; slot < 3; ++slot) {
        EXPECT_TRUE(f.delivered[slot].resp.valid);
        EXPECT_EQ(f.delivered[slot].req.tag.slot, slot);
    }
    // One walk served all three requests.
    const auto *walks = f.stats.child("iommu").find("walks");
    const auto *coalesced = f.stats.child("iommu").find("coalesced");
    EXPECT_DOUBLE_EQ(walks->value(), 1.0);
    EXPECT_DOUBLE_EQ(coalesced->value(), 2.0);
}

TEST(IommuTest, WalkerLimitSerializesWalks)
{
    Fixture f;
    IommuConfig config;
    config.walkers = 1;
    auto iommu = f.make(config);
    f.tables.get(1).map(0x1000, mem::PageSize::Size4K);
    f.tables.get(2).map(0x1000, mem::PageSize::Size4K);

    iommu->translate(demand(1, 0x1000));
    iommu->translate(demand(2, 0x1000));
    EXPECT_EQ(iommu->activeWalks(), 1u);
    EXPECT_EQ(iommu->queuedWalks(), 1u);
    f.queue.run();
    ASSERT_EQ(f.delivered.size(), 2u);
    // Serialized: second finishes a full walk after the first.
    EXPECT_EQ(f.delivered[0].at, 24 * 50 * TicksPerNs);
    EXPECT_EQ(f.delivered[1].at, 2 * 24 * 50 * TicksPerNs);
}

// A walk completion's deliveries are in tail position — and so may
// fuse their own next hop — only for the last waiter, with no walk
// queued behind it and unbounded memory behind it. An IOTLB hit's
// delivery is always the tail of its event.
TEST(IommuTest, OnlyATailWalkDeliveryIsFusible)
{
    struct Case
    {
        const char *name;
        unsigned walkers;
        unsigned memorySlots;
        std::vector<mem::DomainId> requests;
        std::vector<bool> fusible; ///< per delivery, in order
        bool warm = false; ///< the pages sit in the IOTLB already
    };
    const Case cases[] = {
        // Two coalesced waiters: only the last is the tail.
        {"coalesced", 0, 0, {1, 1}, {false, true}},
        // One walker: dispatchQueued() follows the first completion.
        {"queued walk", 1, 0, {1, 2}, {false, true}},
        // One memory slot: the first finish starts the next chain.
        {"bounded memory", 0, 1, {1, 2}, {false, false}},
        // Each hit is its own event: every delivery is the tail.
        {"iotlb hit", 0, 0, {1, 1, 2}, {true, true, true}, true},
    };
    for (const Case &c : cases) {
        SCOPED_TRACE(c.name);
        Fixture f({50, c.memorySlots});
        IommuConfig config;
        config.walkers = c.walkers;
        auto iommu = f.make(config);
        for (const mem::DomainId did : c.requests)
            f.tables.get(did).map(0x1000, mem::PageSize::Size4K);
        if (c.warm) {
            for (const mem::DomainId did : c.requests)
                iommu->translate(demand(did, 0x1000));
            f.queue.run();
            f.delivered.clear();
        }
        for (const mem::DomainId did : c.requests)
            iommu->translate(demand(did, 0x1000));
        f.queue.run();
        std::vector<bool> fusible;
        for (const Fixture::Delivery &d : f.delivered)
            fusible.push_back(d.tail);
        EXPECT_EQ(fusible, c.fusible);
        EXPECT_EQ(f.queue.fusedHops(), 0u);
    }
}

// From tail position a walk on unbounded memory completes in place of
// its event: same tick, one hop elided.
TEST(IommuTest, TailWalkFusesItsCompletion)
{
    Fixture f;
    auto iommu = f.make();
    f.tables.get(1).map(0x1000, mem::PageSize::Size4K);
    f.queue.schedule(7, [&] {
        iommu->translate(demand(1, 0x1000), /*may_fuse=*/true);
    });
    f.queue.run();
    ASSERT_EQ(f.delivered.size(), 1u);
    EXPECT_TRUE(f.delivered[0].resp.valid);
    EXPECT_EQ(f.delivered[0].at, 7 + 24 * 50 * TicksPerNs);
    EXPECT_TRUE(f.delivered[0].tail);
    EXPECT_EQ(f.queue.fusedHops(), 1u);
    EXPECT_EQ(f.queue.executed(), 1u);
}

TEST(IommuTest, DemandWalksRunBeforeQueuedPrefetches)
{
    Fixture f;
    IommuConfig config;
    config.walkers = 1;
    auto iommu = f.make(config);
    for (mem::DomainId d = 1; d <= 3; ++d)
        f.tables.get(d).map(0x1000, mem::PageSize::Size4K);

    // Occupy the walker.
    iommu->translate(demand(1, 0x1000));
    // Queue a prefetch, then a demand: demand must run first.
    iommu->translate(prefetch(2, 0x1000));
    iommu->translate(demand(3, 0x1000));
    f.queue.run();
    EXPECT_EQ(f.order(), (std::vector<int>{1, 3, -2}));
}

TEST(IommuTest, AgingBoundPromotesStarvedPrefetch)
{
    // Sustained demand traffic must not starve a queued prefetch
    // forever: after `prefetchAgingThreshold` consecutive demand
    // dispatches past the waiting prefetch, it takes the next slot.
    Fixture f;
    IommuConfig config;
    config.walkers = 1;
    config.prefetchAgingThreshold = 2;
    auto iommu = f.make(config);
    for (mem::DomainId d = 1; d <= 7; ++d)
        f.tables.get(d).map(0x1000, mem::PageSize::Size4K);

    // Occupy the walker, queue the prefetch, then pile up demand.
    iommu->translate(demand(1, 0x1000));
    iommu->translate(prefetch(2, 0x1000));
    for (mem::DomainId d = 3; d <= 7; ++d)
        iommu->translate(demand(d, 0x1000));
    f.queue.run();
    // Two demand walks dispatch past the prefetch (streak 1, 2),
    // then the aging bound promotes it ahead of the remaining three.
    EXPECT_EQ(f.order(), (std::vector<int>{1, 3, 4, -2, 5, 6, 7}));
    EXPECT_EQ(iommu->prefetchPromotions(), 1u);
}

TEST(IommuTest, ZeroAgingThresholdKeepsStrictDemandFirst)
{
    Fixture f;
    IommuConfig config;
    config.walkers = 1;
    config.prefetchAgingThreshold = 0;
    auto iommu = f.make(config);
    for (mem::DomainId d = 1; d <= 7; ++d)
        f.tables.get(d).map(0x1000, mem::PageSize::Size4K);

    iommu->translate(demand(1, 0x1000));
    iommu->translate(prefetch(2, 0x1000));
    for (mem::DomainId d = 3; d <= 7; ++d)
        iommu->translate(demand(d, 0x1000));
    f.queue.run();
    EXPECT_EQ(f.order(), (std::vector<int>{1, 3, 4, 5, 6, 7, -2}));
    EXPECT_EQ(iommu->prefetchPromotions(), 0u);
}

TEST(IommuTest, InvalidateDropsBothSizeKeysOnSizeFlip)
{
    // A remap that flips the page size re-keys the translation: an
    // invalidate that only erased the op's declared size would leave
    // the other flavor's entry alive and stale.
    Fixture f;
    auto iommu = f.make();
    f.tables.get(1).map(0xbbe00000, mem::PageSize::Size2M);
    iommu->translate(demand(1, 0xbbe00000, mem::PageSize::Size2M));
    f.queue.run();
    ASSERT_EQ(iommu->iotlbOccupancy(), 1u);

    // Driver remaps the page as 4K and invalidates under the new
    // size; the 2M-keyed entry must be dropped too.
    f.tables.get(1).unmap(0xbbe00000);
    f.tables.get(1).map(0xbbe00000, mem::PageSize::Size4K);
    iommu->invalidate(1, 0xbbe00000, mem::PageSize::Size4K);
    EXPECT_EQ(iommu->iotlbOccupancy(), 0u);

    // The next 2M-declared request must re-walk and return the
    // fresh 4K mapping, not a stale cached 2M translation.
    iommu->translate(demand(1, 0xbbe00000, mem::PageSize::Size2M));
    f.queue.run();
    ASSERT_EQ(f.delivered.size(), 2u);
    const IommuResponse &seen = f.delivered[1].resp;
    ASSERT_TRUE(seen.valid);
    EXPECT_FALSE(seen.iotlbHit);
    EXPECT_EQ(seen.hostAddr,
              f.tables.get(1).translate(0xbbe00000).hostAddr);
}

TEST(IommuTest, UnmappedPageFaults)
{
    Fixture f;
    auto iommu = f.make();
    iommu->translate(demand(1, 0xdead000));
    f.queue.run();
    ASSERT_EQ(f.delivered.size(), 1u);
    EXPECT_FALSE(f.delivered[0].resp.valid);
    const auto *faults = f.stats.child("iommu").find("faults");
    EXPECT_DOUBLE_EQ(faults->value(), 1.0);
}

TEST(IommuTest, FaultsAreNotCached)
{
    Fixture f;
    auto iommu = f.make();
    iommu->translate(demand(1, 0x5000));
    f.queue.run();
    // Map the page afterwards; the next translation must succeed.
    f.tables.get(1).map(0x5000, mem::PageSize::Size4K);
    iommu->translate(demand(1, 0x5000));
    f.queue.run();
    ASSERT_EQ(f.delivered.size(), 2u);
    EXPECT_TRUE(f.delivered[1].resp.valid);
}

TEST(IommuTest, InvalidateDropsIotlbEntry)
{
    Fixture f;
    auto iommu = f.make();
    f.tables.get(1).map(0x1000, mem::PageSize::Size4K);
    iommu->translate(demand(1, 0x1000));
    f.queue.run();

    iommu->invalidate(1, 0x1000, mem::PageSize::Size4K);
    iommu->translate(demand(1, 0x1000));
    f.queue.run();
    ASSERT_EQ(f.delivered.size(), 2u);
    const IommuResponse &seen = f.delivered[1].resp;
    EXPECT_TRUE(seen.valid);
    EXPECT_FALSE(seen.iotlbHit); // had to walk again
}

TEST(IommuTest, InvalidateKeepsPagingStructureCaches)
{
    // A leaf unmap changes no intermediate table pointers, so
    // invalidate() must drop only the IOTLB entry: the re-walk
    // starts from the surviving L2 entry (9 accesses, not 24).
    Fixture f;
    auto iommu = f.make();
    f.tables.get(1).map(0x10000000, mem::PageSize::Size4K);
    iommu->translate(demand(1, 0x10000000));
    f.queue.run();
    ASSERT_EQ(iommu->iotlbOccupancy(), 1u);
    ASSERT_EQ(iommu->l2Occupancy(), 1u);
    ASSERT_EQ(iommu->l3Occupancy(), 1u);

    iommu->invalidate(1, 0x10000000, mem::PageSize::Size4K);
    EXPECT_EQ(iommu->iotlbOccupancy(), 0u);
    EXPECT_EQ(iommu->l2Occupancy(), 1u); // survived
    EXPECT_EQ(iommu->l3Occupancy(), 1u); // survived

    const Tick start = f.queue.now();
    iommu->translate(demand(1, 0x10000000));
    f.queue.run();
    ASSERT_EQ(f.delivered.size(), 2u);
    const IommuResponse &seen = f.delivered[1].resp;
    ASSERT_TRUE(seen.valid);
    EXPECT_FALSE(seen.iotlbHit);
    EXPECT_EQ(f.delivered[1].at - start, 9 * 50 * TicksPerNs);
}

TEST(IommuTest, InvalidateOfUncachedPageIsHarmless)
{
    Fixture f;
    auto iommu = f.make();
    iommu->invalidate(1, 0xabc000, mem::PageSize::Size4K);
    EXPECT_EQ(iommu->iotlbOccupancy(), 0u);
}

TEST(IommuTest, FlushAllDropsPagingCachesToo)
{
    Fixture f;
    auto iommu = f.make();
    f.tables.get(1).map(0x10000000, mem::PageSize::Size4K);
    f.tables.get(1).map(0x10001000, mem::PageSize::Size4K);
    iommu->translate(demand(1, 0x10000000));
    f.queue.run();
    iommu->flushAll();

    const Tick start = f.queue.now();
    iommu->translate(demand(1, 0x10001000));
    f.queue.run();
    // Full walk again: 24 accesses, not the L2-shortened 9.
    ASSERT_EQ(f.delivered.size(), 2u);
    EXPECT_EQ(f.delivered[1].at - start, 24 * 50 * TicksPerNs);
}

TEST(IommuTest, TranslationsFromDifferentDomainsDiffer)
{
    Fixture f;
    auto iommu = f.make();
    f.tables.get(1).map(0x1000, mem::PageSize::Size4K);
    f.tables.get(2).map(0x1000, mem::PageSize::Size4K);
    iommu->translate(demand(1, 0x1000));
    iommu->translate(demand(2, 0x1000));
    f.queue.run();
    ASSERT_EQ(f.delivered.size(), 2u);
    EXPECT_NE(f.delivered[0].resp.hostAddr, f.delivered[1].resp.hostAddr);
}

TEST(IommuTest, FiveLevelWalkCosts35Accesses)
{
    Fixture f;
    IommuConfig config;
    config.pagingLevels = 5;
    auto iommu = f.make(config);
    f.tables.get(1).map(0x1000, mem::PageSize::Size4K);
    iommu->translate(demand(1, 0x1000));
    f.queue.run();
    // 5-level 2-D walk: 6 accesses per guest level * 5 + 5 = 35.
    ASSERT_EQ(f.delivered.size(), 1u);
    EXPECT_EQ(f.delivered[0].at, 35 * 50 * TicksPerNs);
}

TEST(IommuTest, FiveLevelPartialWalksShortenToo)
{
    Fixture f;
    IommuConfig config;
    config.pagingLevels = 5;
    auto iommu = f.make(config);
    f.tables.get(1).map(0x10000000, mem::PageSize::Size4K);
    f.tables.get(1).map(0x10001000, mem::PageSize::Size4K);
    iommu->translate(demand(1, 0x10000000));
    f.queue.run();
    const Tick start = f.queue.now();
    iommu->translate(demand(1, 0x10001000));
    f.queue.run();
    // L2 hit leaves one guest level: 6*1 + 5 = 11 accesses.
    ASSERT_EQ(f.delivered.size(), 2u);
    EXPECT_EQ(f.delivered[1].at - start, 11 * 50 * TicksPerNs);
}

TEST(PageTableDirectoryTest, LazyCreation)
{
    PageTableDirectory dir(42);
    EXPECT_EQ(dir.find(3), nullptr);
    dir.get(3).map(0x1000, mem::PageSize::Size4K);
    ASSERT_NE(dir.find(3), nullptr);
    EXPECT_EQ(dir.size(), 1u);
    EXPECT_EQ(dir.get(3).size(), 1u);
}

} // namespace
} // namespace hypersio::iommu
