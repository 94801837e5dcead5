/** Tests for the extension features: configuration overrides,
 *  multi-device systems, and variable packet wire sizes. */

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>

#include "core/overrides.hh"
#include "core/system.hh"
#include "oracle/shadow.hh"
#include "trace/constructor.hh"
#include "trace/trace_file.hh"
#include "util/json.hh"
#include "workload/benchmarks.hh"

namespace hypersio::core
{
namespace
{

TEST(Overrides, NumericKeys)
{
    SystemConfig config = SystemConfig::base();
    applyOverride(config, "link.gbps=100");
    applyOverride(config, "ptb.entries=16");
    applyOverride(config, "devtlb.entries=128");
    applyOverride(config, "pcie.oneway_ns=300");
    applyOverride(config, "iommu.paging_levels=5");
    EXPECT_DOUBLE_EQ(config.link.gbps, 100.0);
    EXPECT_EQ(config.device.ptbEntries, 16u);
    EXPECT_EQ(config.device.devtlb.entries, 128u);
    EXPECT_EQ(config.pcieOneWay, 300 * TicksPerNs);
    EXPECT_EQ(config.iommu.pagingLevels, 5u);
}

TEST(Overrides, PolicyAndBooleanKeys)
{
    SystemConfig config = SystemConfig::base();
    applyOverride(config, "devtlb.policy=lru");
    applyOverride(config, "prefetch.enabled=true");
    applyOverride(config, "iotlb.hashed=off");
    EXPECT_EQ(config.device.devtlb.policy,
              cache::ReplPolicyKind::LRU);
    EXPECT_TRUE(config.device.prefetch.enabled);
    EXPECT_FALSE(config.iommu.iotlb.hashIndex);
}

TEST(Overrides, WhitespaceTolerant)
{
    SystemConfig config = SystemConfig::base();
    applyOverride(config, "  seed =  99 ");
    EXPECT_EQ(config.seed, 99u);
}

TEST(Overrides, ListAppliesInOrder)
{
    SystemConfig config = SystemConfig::base();
    applyOverrides(config,
                   {"ptb.entries=8", "ptb.entries=32"});
    EXPECT_EQ(config.device.ptbEntries, 32u);
}

TEST(Overrides, SupportedKeysNonEmptyAndUnique)
{
    const auto keys = supportedOverrideKeys();
    EXPECT_GE(keys.size(), 20u);
    for (size_t i = 0; i < keys.size(); ++i)
        for (size_t j = i + 1; j < keys.size(); ++j)
            EXPECT_NE(keys[i], keys[j]);
}

TEST(Overrides, ConfigFileParsing)
{
    const auto path = std::filesystem::temp_directory_path() /
                      "hypersio_overrides_test.cfg";
    {
        std::ofstream out(path);
        out << "# comment line\n";
        out << "link.gbps = 400   # trailing comment\n";
        out << "\n";
        out << "devtlb.partitions = 8\n";
    }
    SystemConfig config = SystemConfig::base();
    loadConfigFile(config, path.string());
    std::filesystem::remove(path);
    EXPECT_DOUBLE_EQ(config.link.gbps, 400.0);
    EXPECT_EQ(config.device.devtlb.partitions, 8u);
}

TEST(Overrides, RangeChecksAcceptTheLargestValues)
{
    SystemConfig config = SystemConfig::base();
    const uint64_t max_ns = MaxTick / TicksPerNs;
    applyOverride(config, "pcie.oneway_ns=" + std::to_string(max_ns));
    EXPECT_EQ(config.pcieOneWay, max_ns * TicksPerNs);
    applyOverride(config, "ptb.entries=4294967295");
    EXPECT_EQ(config.device.ptbEntries, 4294967295u);
}

TEST(OverridesDeathTest, ThirtyTwoBitKeysRejectTruncation)
{
    for (const char *key :
         {"link.packet_bytes", "dram.max_outstanding", "ptb.entries",
          "devtlb.lfu_bits", "iommu.walkers", "iommu.paging_levels",
          "prefetch.buffer", "prefetch.history", "prefetch.pages"}) {
        SystemConfig config = SystemConfig::base();
        EXPECT_EXIT(
            applyOverride(config, std::string(key) + "=4294967297"),
            ::testing::ExitedWithCode(1),
            std::string("override ") + key +
                ": '4294967297' does not fit in 32 bits")
            << key;
    }
}

TEST(OverridesDeathTest, LinkGbpsMustBePositiveAndFinite)
{
    for (const char *gbps : {"0", "-5", "nan", "inf"}) {
        SystemConfig config = SystemConfig::base();
        EXPECT_EXIT(
            applyOverride(config, std::string("link.gbps=") + gbps),
            ::testing::ExitedWithCode(1),
            "override link.gbps: '.*' is not a positive finite number")
            << gbps;
    }
    // Finite and positive, but a 1542-byte slot rounds to 0 ticks.
    SystemConfig config = SystemConfig::base();
    EXPECT_EXIT(applyOverride(config, "link.gbps=1e300"),
                ::testing::ExitedWithCode(1),
                "override link.gbps: '1e300' gives an arrival slot "
                "under 1 tick");
}

TEST(OverridesDeathTest, PacketBytesMustBeAtLeastOne)
{
    SystemConfig config = SystemConfig::base();
    EXPECT_EXIT(applyOverride(config, "link.packet_bytes=0"),
                ::testing::ExitedWithCode(1),
                "override link.packet_bytes: '0' must be at least 1");
    // The later of the link's two keys checks the pair.
    applyOverride(config, "link.gbps=1000000");
    EXPECT_EXIT(applyOverride(config, "link.packet_bytes=1"),
                ::testing::ExitedWithCode(1),
                "override link.packet_bytes: '1' gives an arrival "
                "slot under 1 tick");
}

TEST(OverridesDeathTest, LatencyKeysMustNotOverflowTicks)
{
    for (const char *key :
         {"pcie.oneway_ns", "dram.latency_ns", "devtlb.hit_ns"}) {
        SystemConfig config = SystemConfig::base();
        EXPECT_EXIT(
            applyOverride(config,
                          std::string(key) + "=99999999999999999"),
            ::testing::ExitedWithCode(1),
            std::string("override ") + key +
                ": '99999999999999999' ns overflows the tick range")
            << key;
    }
}

TEST(OverridesDeathTest, ConfigFileErrorsNamePathAndLine)
{
    const auto path = std::filesystem::temp_directory_path() /
                      "hypersio_overrides_bad.cfg";
    {
        std::ofstream out(path);
        out << "# comment line\n";
        out << "ptb.entries = 8\n";
        out << "devtlb.policy = mru\n";
    }
    SystemConfig config = SystemConfig::base();
    EXPECT_EXIT(loadConfigFile(config, path.string()),
                ::testing::ExitedWithCode(1),
                "hypersio_overrides_bad.cfg:3: override devtlb.policy: "
                "'mru' is not a replacement policy");
    std::filesystem::remove(path);
}

trace::HyperTrace
smallTrace(unsigned tenants)
{
    auto logs = workload::generateLogs(workload::Benchmark::Iperf3,
                                       tenants, 42, 0.02);
    return trace::constructTrace(logs,
                                 trace::parseInterleaving("RR1"));
}

/** `group`'s direct child group named `name`, or nullptr. */
const stats::StatGroup *
childGroup(const stats::StatGroup &group, const std::string &name)
{
    const stats::StatGroup *found = nullptr;
    group.forEachChild([&](const stats::StatGroup &child) {
        if (child.name() == name)
            found = &child;
    });
    return found;
}

TEST(MultiSystemTest, DevicePacketCountersSumToTrace)
{
    const auto tr = smallTrace(8);
    System system(SystemConfig::hypertrio(), 2);
    system.run(tr);
    // Each device's stats sit in its own devN group; there is no
    // root-level device group.
    EXPECT_EQ(childGroup(system.statsRoot(), "device"), nullptr);
    uint64_t total = 0;
    for (const char *dev : {"dev0", "dev1"}) {
        const stats::StatGroup *group =
            childGroup(system.statsRoot(), dev);
        ASSERT_NE(group, nullptr) << dev;
        const stats::StatGroup *device = childGroup(*group, "device");
        ASSERT_NE(device, nullptr) << dev;
        const stats::StatBase *packets = device->find("packets");
        ASSERT_NE(packets, nullptr) << dev;
        EXPECT_GT(packets->value(), 0.0) << dev;
        total += static_cast<uint64_t>(packets->value());
    }
    EXPECT_EQ(total, tr.packets.size());
}

/** The counters of one device that completions are routed to. */
struct DeviceGolden
{
    uint64_t packets;
    uint64_t translations;
    uint64_t devtlbHits;
    uint64_t pbHits;
    uint64_t prefetchesSent;
    uint64_t prefetchFills;

    bool operator==(const DeviceGolden &) const = default;
};

std::ostream &
operator<<(std::ostream &os, const DeviceGolden &g)
{
    return os << '{' << g.packets << "u, " << g.translations << "u, "
              << g.devtlbHits << "u, " << g.pbHits << "u, "
              << g.prefetchesSent << "u, " << g.prefetchFills << "u}";
}

DeviceGolden
observeDevice(const System &system, const std::string &dev)
{
    const stats::StatGroup *group = childGroup(system.statsRoot(), dev);
    const stats::StatGroup *device =
        group ? childGroup(*group, "device") : nullptr;
    if (!device) {
        ADD_FAILURE() << "no " << dev << "/device stats";
        return {};
    }
    const auto count = [&](const char *name) {
        const stats::StatBase *stat = device->find(name);
        EXPECT_NE(stat, nullptr) << dev << '.' << name;
        return stat ? static_cast<uint64_t>(stat->value()) : 0;
    };
    return {count("packets"),      count("translations"),
            count("devtlb_hits"),  count("pb_hits"),
            count("prefetches_sent"), count("prefetch_fills")};
}

std::string
resultsJson(const RunResults &r)
{
    std::ostringstream os;
    json::Writer w(os, 0);
    writeRunResultsJson(w, r);
    return os.str();
}

// Every completion returns to the device whose PTB slot (or prefetch
// unit) issued it. Two devices share the chipset; the oracle refuses
// N > 1, so these pins are what checks the per-device routing of
// demand responses and of both prefetchers' fills.
TEST(MultiSystemTest, PerDeviceRoutingGolden)
{
    SystemConfig mmu = SystemConfig::hypertrio();
    mmu.name = "mmudma";
    mmu.device.prefetch.kind = PrefetchKind::MmuDma;
    const struct
    {
        SystemConfig config;
        DeviceGolden dev0;
        DeviceGolden dev1;
        const char *results;
    } pins[] = {
        {SystemConfig::hypertrio(),
         {2718u, 8154u, 6932u, 772u, 882u, 1756u},
         {2718u, 8154u, 6933u, 771u, 884u, 1760u},
         R"({"config":"hypertrio","packets_processed":5436,)"
         R"("packets_dropped":66,"translations":16308,)"
         R"("elapsed_ticks":170587680,)"
         R"("achieved_gbps":393.1028078932781,)"
         R"("utilization":0.9827570197331953,)"
         R"("devtlb_hit_rate":0.8501962227127791,)"
         R"("pb_hit_rate":0.09461613931812607,)"
         R"("iotlb_hit_rate":0.9699666295884316,"walks":102,)"
         R"("iommu_requests":5394,)"
         R"("avg_packet_latency_ns":336.73551140544515})"},
        {mmu,
         {2718u, 8154u, 6904u, 456u, 948u, 624u},
         {2718u, 8154u, 6903u, 457u, 942u, 621u},
         R"({"config":"mmudma","packets_processed":5436,)"
         R"("packets_dropped":66,"translations":16308,)"
         R"("elapsed_ticks":170217600,)"
         R"("achieved_gbps":393.95747560769274,)"
         R"("utilization":0.9848936890192319,)"
         R"("devtlb_hit_rate":0.8466396860436596,)"
         R"("pb_hit_rate":0.05598479273975963,)"
         R"("iotlb_hit_rate":0.7813443072702332,"walks":648,)"
         R"("iommu_requests":3645,)"
         R"("avg_packet_latency_ns":315.34649006622516})"},
    };
    // Measured before requests carried requester tags.
    const auto tr = smallTrace(12);
    for (const auto &pin : pins) {
        SCOPED_TRACE(pin.config.name);
        System system(pin.config, 2);
        const RunResults r = system.run(tr);
        EXPECT_EQ(observeDevice(system, "dev0"), pin.dev0);
        EXPECT_EQ(observeDevice(system, "dev1"), pin.dev1);
        EXPECT_EQ(resultsJson(r), pin.results);
    }
}

TEST(MultiSystemTest, ProcessesAllPacketsAcrossDevices)
{
    const auto tr = smallTrace(16);
    System multi(SystemConfig::hypertrio(), 4);
    const RunResults r = multi.run(tr);
    EXPECT_EQ(r.packetsProcessed, tr.packets.size());
}

TEST(MultiSystemTest, AggregateBandwidthScalesWithDevices)
{
    const auto tr = smallTrace(32);
    System one(SystemConfig::hypertrio(), 1);
    System four(SystemConfig::hypertrio(), 4);
    const double g1 = one.run(tr).achievedGbps;
    const double g4 = four.run(tr).achievedGbps;
    // Four links carry strictly more aggregate traffic.
    EXPECT_GT(g4, g1 * 2.0);
}

TEST(MultiSystemTest, UtilizationNormalisedToDeviceCount)
{
    const auto tr = smallTrace(16);
    System multi(SystemConfig::hypertrio(), 2);
    const RunResults r = multi.run(tr);
    EXPECT_LE(r.utilization, 1.0 + 1e-9);
    EXPECT_GT(r.utilization, 0.0);
}

TEST(MultiSystemDeathTest, StreamingNeedsOneDevice)
{
    const auto tr = smallTrace(4);
    EXPECT_EXIT(
        {
            System multi(SystemConfig::hypertrio(), 2);
            trace::MaterializedStream stream(tr);
            multi.runStream(stream);
        },
        ::testing::ExitedWithCode(1),
        "streaming runs need a single-device System");
}

TEST(MultiSystemDeathTest, ShadowCheckerNeedsOneDevice)
{
    const auto tr = smallTrace(4);
    const SystemConfig config = SystemConfig::hypertrio();
    EXPECT_EXIT(
        {
            System multi(config, 2);
            oracle::ShadowChecker checker(toShadowConfig(config),
                                          &multi.tables(),
                                          /*fail_fast=*/false);
            oracle::ShadowScope scope(checker);
            multi.run(tr);
        },
        ::testing::ExitedWithCode(1),
        "shadow checking needs a single-device System");
}

TEST(WireBytes, SmallPacketsShortenArrivalIntervals)
{
    workload::TenantPattern pattern =
        workload::benchmarkProfile(workload::Benchmark::Iperf3)
            .pattern;
    pattern.smallPacketBytes = 256;
    pattern.smallPacketProb = 1.0; // every packet small
    std::vector<trace::TenantLog> logs{
        workload::TenantStream(pattern, 42, 0, 512).drain()};
    const auto tr = trace::constructTrace(
        logs, trace::parseInterleaving("RR1"));
    for (const auto &pkt : tr.packets)
        EXPECT_EQ(pkt.wireBytes, 256u);

    // In native mode the run finishes ~6x faster than full-size.
    System small(SystemConfig::base());
    const RunResults rs = small.run(tr, /*bypass=*/true);

    std::vector<trace::TenantLog> big_logs{
        workload::TenantStream(
            workload::benchmarkProfile(workload::Benchmark::Iperf3)
                .pattern,
            42, 0, 512)
            .drain()};
    const auto big_tr = trace::constructTrace(
        big_logs, trace::parseInterleaving("RR1"));
    System big(SystemConfig::base());
    const RunResults rb = big.run(big_tr, /*bypass=*/true);

    EXPECT_LT(rs.elapsed, rb.elapsed / 4);
    // Both still saturate their offered load in native mode.
    EXPECT_NEAR(rs.utilization, 1.0, 1e-9);
}

TEST(WireBytes, MixedSizesRoundTripThroughTraceFiles)
{
    workload::TenantPattern pattern =
        workload::benchmarkProfile(workload::Benchmark::Iperf3)
            .pattern;
    pattern.smallPacketBytes = 128;
    pattern.smallPacketProb = 0.5;
    std::vector<trace::TenantLog> logs{
        workload::TenantStream(pattern, 7, 0, 256).drain()};
    auto tr =
        trace::constructTrace(logs, trace::parseInterleaving("RR1"));

    const auto path = std::filesystem::temp_directory_path() /
                      "hypersio_wirebytes_test.trace";
    trace::saveTrace(tr, path.string());
    const auto loaded = trace::loadTrace(path.string());
    std::filesystem::remove(path);

    ASSERT_EQ(loaded.packets.size(), tr.packets.size());
    size_t small = 0;
    for (size_t i = 0; i < loaded.packets.size(); ++i) {
        EXPECT_EQ(loaded.packets[i].wireBytes,
                  tr.packets[i].wireBytes);
        small += loaded.packets[i].wireBytes == 128 ? 1 : 0;
    }
    // Roughly half the packets are small.
    EXPECT_GT(small, loaded.packets.size() / 4);
    EXPECT_LT(small, loaded.packets.size() * 3 / 4);
}

TEST(WireBytes, BandwidthAccountsActualBytes)
{
    workload::TenantPattern pattern =
        workload::benchmarkProfile(workload::Benchmark::Iperf3)
            .pattern;
    pattern.smallPacketBytes = 256;
    pattern.smallPacketProb = 1.0;
    std::vector<trace::TenantLog> logs{
        workload::TenantStream(pattern, 42, 0, 256).drain()};
    const auto tr = trace::constructTrace(
        logs, trace::parseInterleaving("RR1"));
    System system(SystemConfig::hypertrio());
    const RunResults r = system.run(tr);
    // 256 packets x 256 B = 64 KiB: bandwidth must reflect actual
    // bytes, never the 1542 B default.
    const double max_gbps = 200.0;
    EXPECT_LE(r.achievedGbps, max_gbps + 1e-9);
    EXPECT_GT(r.achievedGbps, 0.0);
    EXPECT_EQ(r.packetsProcessed, 256u);
}

TEST(ScalableIov, GeneratorAssignsPasidsPerProcess)
{
    workload::TenantPattern pattern =
        workload::benchmarkProfile(workload::Benchmark::Iperf3)
            .pattern;
    pattern.processesPerTenant = 3;
    workload::scaleInitPhase(pattern, 600);
    const trace::TenantLog log =
        workload::TenantStream(pattern, 42, 0, 600).drain();
    std::set<uint16_t> pasids;
    for (const auto &pkt : log.packets)
        pasids.insert(pkt.pasid);
    EXPECT_EQ(pasids.size(), 3u);
}

TEST(ScalableIov, ProcessesTranslateInSeparateAddressSpaces)
{
    // Same gIOVA, different PASID → different domain → different
    // host frame.
    const auto a = iommu::ContextCache::resolve(4, 0);
    const auto b = iommu::ContextCache::resolve(4, 1);
    EXPECT_NE(a.domain, b.domain);

    iommu::PageTableDirectory tables(42);
    tables.get(a.domain).map(0x1000, mem::PageSize::Size4K);
    tables.get(b.domain).map(0x1000, mem::PageSize::Size4K);
    EXPECT_NE(tables.get(a.domain).translate(0x1000).hostAddr,
              tables.get(b.domain).translate(0x1000).hostAddr);
}

TEST(ScalableIov, EndToEndRunWithProcesses)
{
    workload::TenantPattern pattern =
        workload::benchmarkProfile(workload::Benchmark::Iperf3)
            .pattern;
    pattern.processesPerTenant = 6;
    workload::scaleInitPhase(pattern, 400);
    std::vector<trace::TenantLog> logs;
    for (unsigned t = 0; t < 8; ++t)
        logs.push_back(workload::TenantStream(pattern, 42, t, 400).drain());
    const auto tr = trace::constructTrace(
        logs, trace::parseInterleaving("RR1"));

    System system(SystemConfig::hypertrio());
    const RunResults r = system.run(tr);
    EXPECT_EQ(r.packetsProcessed, tr.packets.size());
    EXPECT_GT(r.achievedGbps, 0.0);
    // Extra address spaces must cost DevTLB hit rate relative to
    // the single-process run.
    workload::TenantPattern single =
        workload::benchmarkProfile(workload::Benchmark::Iperf3)
            .pattern;
    workload::scaleInitPhase(single, 400);
    std::vector<trace::TenantLog> logs1;
    for (unsigned t = 0; t < 8; ++t)
        logs1.push_back(workload::TenantStream(single, 42, t, 400).drain());
    const auto tr1 = trace::constructTrace(
        logs1, trace::parseInterleaving("RR1"));
    System sys1(SystemConfig::hypertrio());
    const RunResults r1 = sys1.run(tr1);
    EXPECT_LT(r.devtlbHitRate, r1.devtlbHitRate);
}

TEST(ScalableIov, DidEncodingPreservesSidPartitioning)
{
    // Regression guard: the partitioned caches select their PTag row
    // as "domain mod partitions", and the paper partitions by SID.
    // The DID encoding must therefore keep the SID in its low bits:
    // for every power-of-two partition count the paper uses (8, 32,
    // 64), did % parts must equal sid % parts regardless of PASID.
    for (uint32_t parts : {8u, 32u, 64u}) {
        for (trace::SourceId sid : {0u, 5u, 123u, 1023u}) {
            for (uint16_t pasid : {0, 1, 7, 255}) {
                const auto did =
                    iommu::ContextCache::resolve(sid, pasid).domain;
                EXPECT_EQ(did % parts, sid % parts)
                    << "sid=" << sid << " pasid=" << pasid;
                EXPECT_EQ(iommu::ContextCache::sidOf(did), sid);
            }
        }
    }
}

TEST(ScaleInitPhase, BoundsInitShare)
{
    workload::TenantPattern pattern =
        workload::benchmarkProfile(workload::Benchmark::Mediastream)
            .pattern;
    workload::scaleInitPhase(pattern, 1000);
    const uint64_t init_packets =
        static_cast<uint64_t>(pattern.numInitPages) *
        pattern.accessesPerInitPage;
    EXPECT_LE(init_packets, 1000 / 100); // well under 1%... of log
    EXPECT_GE(pattern.numInitPages, 1u);

    // Long logs keep the full 70-page init group.
    workload::TenantPattern big =
        workload::benchmarkProfile(workload::Benchmark::Mediastream)
            .pattern;
    workload::scaleInitPhase(big, 10'000'000);
    EXPECT_EQ(big.numInitPages, 70u);
    EXPECT_EQ(big.accessesPerInitPage, 60u);
}

} // namespace
} // namespace hypersio::core
