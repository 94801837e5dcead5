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
    // lookups consume them. In checked builds the auto-installed
    // shadow verifies every issued page against the reference
    // detector.
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

TEST(System, AdmitBatchZeroIsTreatedAsOne)
{
    // 0 is the "unset" spelling; both must replay the classic
    // one-event-per-slot arrival process, event for event.
    const auto tr = makeTrace(8, "RAND1");
    SystemConfig one = SystemConfig::hypertrio();
    one.admitBatch = 1;
    SystemConfig zero = SystemConfig::hypertrio();
    zero.admitBatch = 0;
    System a(one), b(zero);
    EXPECT_EQ(a.run(tr), b.run(tr));
}

TEST(System, BatchedAdmissionConservesPackets)
{
    const auto tr = makeTrace(8, "RAND1");
    for (unsigned batch : {2u, 4u, 16u}) {
        SystemConfig config = SystemConfig::hypertrio();
        config.admitBatch = batch;
        System system(config);
        const RunResults r = system.run(tr);
        EXPECT_EQ(r.packetsProcessed, tr.packets.size())
            << "batch " << batch;
        EXPECT_EQ(r.translations, tr.packets.size() * 3)
            << "batch " << batch;
    }
}

TEST(System, BatchedAdmissionSurvivesTinyPtb)
{
    // A full PTB ends the batch early and the packet retries at the
    // next arrival event — drops are events, never lost packets.
    const auto tr = makeTrace(32);
    SystemConfig config = SystemConfig::base();
    config.device.ptbEntries = 1;
    config.admitBatch = 8;
    System system(config);
    const RunResults r = system.run(tr);
    EXPECT_GT(r.packetsDropped, 0u);
    EXPECT_EQ(r.packetsProcessed, tr.packets.size());
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
    System s_lru(lru);
    System s_oracle(oracle);
    const double g_lru = s_lru.run(tr).achievedGbps;
    const double g_oracle = s_oracle.run(tr).achievedGbps;
    EXPECT_GE(g_oracle, g_lru * 0.99);
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

// ---- Pinned drop/retry goldens -----------------------------------------
//
// The refused-slot fast-forward (DESIGN.md §15) bills the arrival
// slots a full PTB is bound to refuse in one step instead of one event
// each. Everything simulated must stay exactly what the one-event-per-
// slot arrival process produced: drops, elapsed time, the final seq
// ledger, the retirement log and the stat-tree bytes. The pins below
// were measured with that per-slot process, as were the event counts
// the fast-forward must now beat.

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
        << name << ": the fast-forward elided no arrival events";
}

TEST(SystemDropGolden, BaseWebsearchAtAdmitBatchOneAndFour)
{
    struct Pin
    {
        unsigned batch;
        DropGolden golden;
        /** Executed events of the per-slot process (fusion on). */
        uint64_t perSlotEvents;
    };
    // Both runs admit the same packets in the same order through a
    // 1-entry PTB, so only the drop counts and timing differ.
    const Pin pins[] = {
        {1,
         {123762u, 7920654480u, 159166u, 0u, 0xcbf29ce484222325ULL,
          0xb9f7999575cf29a8ULL},
         145528u},
        {4,
         {33838u, 8339770080u, 64619u, 0u, 0xcbf29ce484222325ULL,
          0xb9f7999575cf29a8ULL},
         50981u},
    };
    const auto tr =
        makeTrace(16, "RR1", workload::Benchmark::Websearch, 0.02);
    for (const Pin &pin : pins) {
        SystemConfig config = SystemConfig::base();
        config.admitBatch = pin.batch;
        System system(config);
        const RunResults r = system.run(tr);
        const std::string name = "batch" + std::to_string(pin.batch);
        expectPinned(name.c_str(), system, r, pin.golden,
                     pin.perSlotEvents);
    }
}

TEST(SystemDropGolden, BaseChurnWithEviction)
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
    workload::ChurnStream stream(cc);
    System system(SystemConfig::base());
    const RunResults r = system.runStream(stream);
    expectPinned("churn", system, r,
                 DropGolden{6447u, 445088880u, 10209u, 24u,
                            0xa05e9e628a5cabfbULL,
                            0x2d1f7d8febef38dfULL},
                 8956u);
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
