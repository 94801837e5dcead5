/** Integration tests for the assembled system: the paper's headline
 *  behaviours on small scaled-down traces, plus run invariants. */

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <string_view>

#include "core/runner.hh"
#include "core/system.hh"
#include "trace/constructor.hh"
#include "workload/benchmarks.hh"
#include "workload/streaming.hh"

namespace hypersio::core
{
namespace
{

trace::HyperTrace
makeTrace(unsigned tenants, const char *il = "RR1",
          workload::Benchmark bench = workload::Benchmark::Iperf3,
          double scale = 0.02)
{
    auto logs = workload::generateLogs(bench, tenants, 42, scale);
    return trace::constructTrace(logs, trace::parseInterleaving(il));
}

TEST(System, EmptyTraceYieldsZeroResults)
{
    System system(SystemConfig::base());
    const RunResults r = system.run(trace::HyperTrace{});
    EXPECT_EQ(r.packetsProcessed, 0u);
    EXPECT_DOUBLE_EQ(r.achievedGbps, 0.0);
}

TEST(System, ProcessesEveryPacketExactlyOnce)
{
    const auto tr = makeTrace(4);
    System system(SystemConfig::base());
    const RunResults r = system.run(tr);
    EXPECT_EQ(r.packetsProcessed, tr.packets.size());
    EXPECT_EQ(r.translations, tr.packets.size() * 3);
}

TEST(System, UtilizationNeverExceedsLinkRate)
{
    for (unsigned tenants : {2u, 16u, 64u}) {
        const auto tr = makeTrace(tenants);
        System system(SystemConfig::hypertrio());
        const RunResults r = system.run(tr);
        EXPECT_LE(r.utilization, 1.0 + 1e-9);
        EXPECT_GT(r.utilization, 0.0);
    }
}

TEST(System, BypassTranslationRunsAtLinkRate)
{
    const auto tr = makeTrace(8);
    System system(SystemConfig::base());
    const RunResults r = system.run(tr, /*bypass=*/true);
    EXPECT_EQ(r.packetsProcessed, tr.packets.size());
    EXPECT_EQ(r.packetsDropped, 0u);
    EXPECT_NEAR(r.utilization, 1.0, 1e-9);
}

TEST(System, BaseCollapsesInHyperTenantRegime)
{
    // The paper's central observation: the Base design cannot use
    // the link once tenants overwhelm the DevTLB.
    const RunResults low = [] {
        System s(SystemConfig::base());
        return s.run(makeTrace(2));
    }();
    const RunResults high = [] {
        System s(SystemConfig::base());
        return s.run(makeTrace(64));
    }();
    EXPECT_GT(low.utilization, 0.5);
    EXPECT_LT(high.utilization, 0.1);
}

TEST(System, HyperTrioSustainsBandwidthAtScale)
{
    System s(SystemConfig::hypertrio());
    const RunResults r = s.run(makeTrace(64));
    EXPECT_GT(r.utilization, 0.8);
}

TEST(System, HyperTrioBeatsBaseEverywhere)
{
    for (unsigned tenants : {4u, 16u, 64u, 128u}) {
        const auto tr = makeTrace(tenants);
        System base(SystemConfig::base());
        System ht(SystemConfig::hypertrio());
        const double b = base.run(tr).achievedGbps;
        const double h = ht.run(tr).achievedGbps;
        EXPECT_GE(h, b) << tenants << " tenants";
    }
}

TEST(System, MmuPrefetchIssuesAndConsumesStridedFills)
{
    // The MMU-aware DMA prefetcher end to end: descriptor-ring
    // strides train the per-(tenant, class) detectors, predicted
    // pages translate through the prefetch-tagged IOMMU path, and
    // completed fills land in the Prefetch Buffer where demand
    // lookups consume them. The auto-installed shadow verifies every
    // issued page against the reference detector.
    SystemConfig config = SystemConfig::base();
    config.name = "mmu-prefetch";
    config.device.prefetch.enabled = true;
    config.device.prefetch.kind = PrefetchKind::MmuDma;
    config.device.prefetch.bufferEntries = 32;
    config.device.prefetch.pagesPerPrefetch = 2;
    const auto tr = makeTrace(16);
    System system(config);
    const RunResults r = system.run(tr);
    EXPECT_EQ(r.packetsProcessed, tr.packets.size());
    EXPECT_GT(system.device().prefetchesSent(), 0u);
    const cache::CacheStats *pb = system.device().prefetchBufferStats();
    ASSERT_NE(pb, nullptr);
    EXPECT_GT(pb->insertions, 0u);
    // No History Reader exists in this mode.
    EXPECT_EQ(system.historyReader(), nullptr);
}

TEST(System, SubEntrySharingRunsCleanAtScale)
{
    // Sub-entry sharing across the DevTLB and both paging caches at
    // the hyper-tenant point; the checked-build mirror enforces the
    // per-tag tenant bound and row legality throughout.
    SystemConfig config = SystemConfig::base();
    config.name = "sub-entry";
    config.device.devtlb.subEntries = 4;
    config.iommu.l2tlb.subEntries = 4;
    config.iommu.l3tlb.subEntries = 4;
    const auto tr = makeTrace(64);
    System system(config);
    const RunResults r = system.run(tr);
    EXPECT_EQ(r.packetsProcessed, tr.packets.size());
    EXPECT_GT(r.utilization, 0.0);
}

TEST(System, DropsOnlyHappenWhenPtbIsSmall)
{
    const auto tr = makeTrace(32);
    SystemConfig config = SystemConfig::base();
    config.device.ptbEntries = 1;
    System small(config);
    const RunResults r_small = small.run(tr);
    EXPECT_GT(r_small.packetsDropped, 0u);

    SystemConfig big = SystemConfig::hypertrio();
    big.device.ptbEntries = 4096;
    System large(big);
    const RunResults r_large = large.run(tr);
    EXPECT_EQ(r_large.packetsDropped, 0u);
}

TEST(System, DeterministicAcrossRuns)
{
    const auto tr = makeTrace(16, "RAND1");
    System a(SystemConfig::hypertrio());
    System b(SystemConfig::hypertrio());
    const RunResults ra = a.run(tr);
    const RunResults rb = b.run(tr);
    EXPECT_EQ(ra.elapsed, rb.elapsed);
    EXPECT_EQ(ra.packetsDropped, rb.packetsDropped);
    EXPECT_DOUBLE_EQ(ra.achievedGbps, rb.achievedGbps);
}

TEST(System, OracleDevtlbRunsAndBeatsLruAtModerateScale)
{
    const auto tr = makeTrace(8);
    SystemConfig lru = SystemConfig::base();
    lru.device.devtlb.policy = cache::ReplPolicyKind::LRU;
    SystemConfig oracle = SystemConfig::base();
    oracle.device.devtlb.policy = cache::ReplPolicyKind::Oracle;
    // With two devices each DevTLB follows its own Belady feed.
    for (unsigned devices : {1u, 2u}) {
        System s_lru(lru, devices);
        System s_oracle(oracle, devices);
        const double g_lru = s_lru.run(tr).achievedGbps;
        const double g_oracle = s_oracle.run(tr).achievedGbps;
        EXPECT_GE(g_oracle, g_lru * 0.99) << devices << " devices";
    }
}

TEST(System, UnmapInvalidationForcesRetranslation)
{
    // mediastream with page retirement: unmaps must not fault later
    // accesses (remap precedes reuse) and the run must complete.
    const auto tr =
        makeTrace(4, "RR1", workload::Benchmark::Mediastream, 0.1);
    System s(SystemConfig::hypertrio());
    const RunResults r = s.run(tr);
    EXPECT_EQ(r.packetsProcessed, tr.packets.size());
    EXPECT_GT(r.utilization, 0.5);
}

TEST(System, StatsDumpIsNonEmpty)
{
    System s(SystemConfig::hypertrio());
    s.run(makeTrace(4));
    std::ostringstream os;
    s.dumpStats(os);
    EXPECT_NE(os.str().find("system.device.packets"),
              std::string::npos);
    EXPECT_NE(os.str().find("system.iommu.requests"),
              std::string::npos);
}

TEST(System, PacketLatencyIsBoundedBelowByHitPath)
{
    System s(SystemConfig::hypertrio());
    const RunResults r = s.run(makeTrace(2));
    // Three serialized DevTLB hits = 6 ns is the floor.
    EXPECT_GE(r.avgPacketLatencyNs, 6.0);
}

TEST(System, ContextMissChargesNoTime)
{
    // 4 tenants x 4 PASIDs: 16 contexts. The default cache keys its
    // set by the PASID, so it holds all 16; a 4-entry cache misses.
    workload::TenantPattern pattern =
        workload::benchmarkProfile(workload::Benchmark::Iperf3).pattern;
    pattern.processesPerTenant = 4;
    workload::scaleInitPhase(pattern, 400);
    std::vector<trace::TenantLog> logs;
    for (unsigned t = 0; t < 4; ++t)
        logs.push_back(workload::TenantStream(pattern, 42, t, 400).drain());
    const auto tr =
        trace::constructTrace(logs, trace::parseInterleaving("RR1"));

    SystemConfig tiny_cfg = SystemConfig::hypertrio();
    tiny_cfg.device.contextCache.entries = 4;
    tiny_cfg.device.contextCache.ways = 4;
    System wide(SystemConfig::hypertrio());
    System tiny(tiny_cfg);
    const RunResults rw = wide.run(tr);
    const RunResults rt = tiny.run(tr);

    EXPECT_NE(wide.device().contextStats().hits,
              tiny.device().contextStats().hits);
    EXPECT_EQ(rw.elapsed, rt.elapsed);
    EXPECT_DOUBLE_EQ(rw.avgPacketLatencyNs, rt.avgPacketLatencyNs);
    EXPECT_EQ(rw.packetsDropped, rt.packetsDropped);
    EXPECT_TRUE(rw == rt);
}

// ---- Pinned drop/retry goldens -----------------------------------------
//
// Parked arrival slots (DESIGN.md §15) bill the slots a full PTB
// refuses without an event each. Everything simulated must stay
// exactly what the one-event-per-slot arrival process produced:
// drops, elapsed time, the final seq ledger, the retirement log and
// the stat-tree bytes. The pins below were measured with that
// per-slot process, or with the refused-slot fast-forward that
// reproduced it before parking, as were the event counts parking
// must beat.

/** FNV-1a 64: a compact pin for long golden byte strings. */
uint64_t
fnv1a(std::string_view bytes)
{
    uint64_t h = 0xcbf29ce484222325ULL;
    for (const unsigned char c : bytes) {
        h ^= c;
        h *= 0x100000001b3ULL;
    }
    return h;
}

struct DropGolden
{
    uint64_t packetsDropped = 0;
    Tick elapsed = 0;
    uint64_t scheduledSeq = 0;
    uint64_t retirements = 0;
    uint64_t retirementHash = 0;
    uint64_t statsHash = 0;

    bool operator==(const DropGolden &) const = default;
};

std::ostream &
operator<<(std::ostream &os, const DropGolden &g)
{
    return os << "{" << g.packetsDropped << "u, " << g.elapsed
              << "u, " << g.scheduledSeq << "u, " << g.retirements
              << "u, 0x" << std::hex << g.retirementHash << "ULL, 0x"
              << g.statsHash << std::dec << "ULL}";
}

DropGolden
observe(System &system, const RunResults &r)
{
    DropGolden g;
    g.packetsDropped = r.packetsDropped;
    g.elapsed = r.elapsed;
    g.scheduledSeq = system.eventQueue().scheduledSeq();
    std::ostringstream log;
    for (const StreamRetirement &ret : system.streamRetirements())
        log << ret.tick << ',' << ret.seq << ',' << ret.sid << ';';
    g.retirements = system.streamRetirements().size();
    g.retirementHash = fnv1a(log.str());
    std::ostringstream stats;
    system.dumpStats(stats);
    g.statsHash = fnv1a(stats.str());
    return g;
}

void
expectPinned(const char *name, System &system, const RunResults &r,
             const DropGolden &pinned, uint64_t per_slot_events)
{
    const DropGolden got = observe(system, r);
    EXPECT_GT(got.packetsDropped, 0u) << name << ": no drops to skip";
    EXPECT_EQ(got, pinned) << name << ": observed " << got;
    EXPECT_LT(system.eventQueue().executed(), per_slot_events)
        << name << ": parking elided no arrival events";
}

TEST(SystemDropGolden, BaseWebsearch)
{
    const auto tr =
        makeTrace(16, "RR1", workload::Benchmark::Websearch, 0.02);
    System system(SystemConfig::base());
    const RunResults r = system.run(tr);
    expectPinned("websearch", system, r,
                 DropGolden{123762u, 7920654480u, 159166u, 0u,
                            0xcbf29ce484222325ULL,
                            0xb9f7999575cf29a8ULL},
                 145528u);
}

// The same run with walks that queue: one walker, where every walk
// completion runs dispatchQueued() at its own tick, and two memory
// slots, where walks wait for a slot and must never fuse. With the
// 1-entry PTB nothing actually queues; with four entries both do.
// Pinned with the refused-slot fast-forward.
TEST(SystemDropGolden, BaseWebsearchQueuedWalks)
{
    const auto tr =
        makeTrace(16, "RR1", workload::Benchmark::Websearch, 0.02);
    const struct
    {
        const char *name;
        unsigned ptbEntries;
        unsigned walkers;
        unsigned memorySlots;
        DropGolden golden;
        uint64_t events;
    } pins[] = {
        {"iommu.walkers=1", 1, 1, 0,
         {123762u, 7920654480u, 159166u, 0u, 0xcbf29ce484222325ULL,
          0xb9f7999575cf29a8ULL},
         38907u},
        {"dram.max_outstanding=2", 1, 0, 2,
         {123762u, 7920654480u, 159166u, 0u, 0xcbf29ce484222325ULL,
          0xb9f7999575cf29a8ULL},
         38907u},
        {"ptb.entries=4 iommu.walkers=1", 4, 1, 0,
         {24773u, 1815912960u, 58519u, 0u, 0xcbf29ce484222325ULL,
          0x144871a04a34bdaeULL},
         33630u},
        {"ptb.entries=4 dram.max_outstanding=2", 4, 0, 2,
         {24760u, 1815111120u, 58716u, 0u, 0xcbf29ce484222325ULL,
          0xc9a5028818abe66fULL},
         34144u},
    };
    for (const auto &pin : pins) {
        SystemConfig config = SystemConfig::base();
        config.device.ptbEntries = pin.ptbEntries;
        config.iommu.walkers = pin.walkers;
        config.memory.maxOutstanding = pin.memorySlots;
        System system(config);
        const RunResults r = system.run(tr);
        expectPinned(pin.name, system, r, pin.golden, pin.events);
    }
}

/** The churn storm of the streamed drop pins. */
workload::ChurnConfig
dropChurnConfig()
{
    workload::ChurnConfig cc;
    cc.bench = workload::Benchmark::Websearch;
    cc.population = 24;
    cc.slots = 5;
    cc.seed = 42;
    cc.minBudget = 12;
    cc.maxBudget = 36;
    cc.tailProb = 0.1;
    cc.tailMin = 64;
    cc.tailMax = 160;
    return cc;
}

TEST(SystemDropGolden, BaseChurnWithEviction)
{
    workload::ChurnStream stream(dropChurnConfig());
    System system(SystemConfig::base());
    const RunResults r = system.runStream(stream);
    expectPinned("churn", system, r,
                 DropGolden{6447u, 445088880u, 10209u, 24u,
                            0xa05e9e628a5cabfbULL,
                            0x2d1f7d8febef38dfULL},
                 8956u);
}

// The same storm under HyperTRIO with a 1-entry PTB. Its prefetch
// fills and bursts end in events that free no PTB entry, so when one
// is a retiring tenant's last in-flight work, it must wake the parked
// arrival slot that retires the tenant (DESIGN.md §15): a retirement
// moved to a later slot shows in the retirement-log hash.
TEST(SystemDropGolden, PrefetchChurnWithEviction)
{
    workload::ChurnStream stream(dropChurnConfig());
    SystemConfig config = SystemConfig::hypertrio();
    config.device.ptbEntries = 1;
    System system(config);
    const RunResults r = system.runStream(stream);
    expectPinned("prefetch churn", system, r,
                 DropGolden{6615u, 455451120u, 11931u, 24u,
                            0x12e9399703808c53ULL,
                            0x705140904c22c930ULL},
                 5876u);
}

// The storm under the MMU-aware DMA prefetcher, with slow memory and
// one walker so walks queue: a retiring tenant's MMU prefetch can
// still wait for the walker after its packets have drained, and
// leaving MMU prefetches out of the in-flight count moves
// retirements. The event bound is what the schedule that re-armed
// every slot while a retirement was pending executed.
TEST(SystemDropGolden, MmuPrefetchChurnWithQueuedWalks)
{
    workload::ChurnStream stream(dropChurnConfig());
    SystemConfig config = SystemConfig::hypertrio();
    config.device.prefetch.kind = PrefetchKind::MmuDma;
    config.device.ptbEntries = 4;
    config.memory.accessLatency = 500 * TicksPerNs;
    config.iommu.walkers = 1;
    System system(config);
    const RunResults r = system.runStream(stream);
    expectPinned("mmu prefetch churn", system, r,
                 DropGolden{17088u, 1102963680u, 21039u, 24u,
                            0x92078a146dc49c4eULL,
                            0x1ff001ea4b316a73ULL},
                 5964u);
}

/**
 * Websearch tenants whose packets are often small on the wire, so
 * consecutive arrival slots differ in length.
 */
trace::HyperTrace
smallPacketTrace()
{
    workload::TenantPattern pattern =
        workload::benchmarkProfile(workload::Benchmark::Websearch)
            .pattern;
    pattern.smallPacketBytes = 256;
    pattern.smallPacketProb = 0.5;
    workload::scaleInitPhase(pattern, 400);
    std::vector<trace::TenantLog> logs;
    for (trace::SourceId sid = 0; sid < 16; ++sid)
        logs.push_back(
            workload::TenantStream(pattern, 42, sid, 400).drain());
    return trace::constructTrace(logs, trace::parseInterleaving("RR1"));
}

TEST(SystemDropGolden, SmallPacketRuns)
{
    // Each arrival slot lasts its head packet's own serialization
    // time: one link over the whole trace, and two links each over
    // its own share of it. Both measured while a batched-admission
    // mode still shared the arrival body.
    const struct
    {
        unsigned devices;
        DropGolden golden;
    } pins[] = {
        {1,
         {558401u, 9936267600u, 605425u, 0u, 0xcbf29ce484222325ULL,
          0xc2d2e40478ec2407ULL}},
        {2,
         {163485u, 1534015440u, 195043u, 0u, 0xcbf29ce484222325ULL,
          0xd2d2df0ff9ea551dULL}},
    };
    const auto tr = smallPacketTrace();
    for (const auto &pin : pins) {
        System system(SystemConfig::base(), pin.devices);
        const RunResults r = system.run(tr);
        EXPECT_EQ(r.packetsProcessed, tr.packets.size());
        const DropGolden got = observe(system, r);
        EXPECT_GT(got.packetsDropped, 0u) << pin.devices << " devices";
        EXPECT_EQ(got, pin.golden)
            << pin.devices << " devices: observed " << got;
    }
}

TEST(ExperimentRunnerTest, CachesTracesAcrossPoints)
{
    ExperimentRunner runner(0.02, 42);
    const auto &a = runner.getTrace(workload::Benchmark::Iperf3, 8,
                                    trace::parseInterleaving("RR1"));
    const auto &b = runner.getTrace(workload::Benchmark::Iperf3, 8,
                                    trace::parseInterleaving("RR1"));
    EXPECT_EQ(&a, &b);
    const auto &c = runner.getTrace(workload::Benchmark::Iperf3, 8,
                                    trace::parseInterleaving("RR4"));
    EXPECT_NE(&a, &c);
}

TEST(ExperimentRunnerTest, RunProducesConsistentRow)
{
    ExperimentRunner runner(0.02, 42);
    ExperimentPoint point;
    point.label = "test";
    point.config = SystemConfig::base();
    point.bench = workload::Benchmark::Iperf3;
    point.tenants = 4;
    point.interleave = trace::parseInterleaving("RR1");
    const ExperimentRow row = runner.run(point);
    EXPECT_GT(row.results.packetsProcessed, 0u);
    EXPECT_EQ(row.point.label, "test");
}

TEST(ExperimentRunnerTest, PaperSweepIsPowersOfTwo)
{
    const auto sweep = paperTenantSweep(1024);
    ASSERT_FALSE(sweep.empty());
    EXPECT_EQ(sweep.front(), 4u);
    EXPECT_EQ(sweep.back(), 1024u);
    for (size_t i = 1; i < sweep.size(); ++i)
        EXPECT_EQ(sweep[i], sweep[i - 1] * 2);
}

} // namespace
} // namespace hypersio::core
