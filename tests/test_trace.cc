/** Unit tests for trace records, binary file round-trips, and the
 *  Trace Constructor's interleaving and truncation semantics. */

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <sstream>

#include "trace/constructor.hh"
#include "trace/record.hh"
#include "trace/trace_file.hh"

namespace hypersio::trace
{
namespace
{

PacketRecord
makePacket(SourceId sid, uint64_t n)
{
    PacketRecord pkt;
    pkt.sid = sid;
    pkt.ringIova = 0x34800000 + (n % 128) * 16;
    pkt.dataIova = 0xbbe00000 + n * 1400;
    pkt.notifyIova = 0x34800f00;
    pkt.dataHuge = true;
    return pkt;
}

TenantLog
makeLog(SourceId sid, uint64_t packets)
{
    TenantLog log;
    log.sid = sid;
    log.ops.push_back({0x34800000, mem::PageSize::Size4K, true});
    for (uint64_t i = 0; i < packets; ++i) {
        PacketRecord pkt = makePacket(sid, i);
        if (i == 0) {
            pkt.opBegin = 0;
            pkt.opCount = 1;
        }
        log.packets.push_back(pkt);
    }
    return log;
}

TEST(Record, IovaAccessorsByClass)
{
    PacketRecord pkt = makePacket(3, 7);
    EXPECT_EQ(pkt.iova(ReqClass::Ring), pkt.ringIova);
    EXPECT_EQ(pkt.iova(ReqClass::Data), pkt.dataIova);
    EXPECT_EQ(pkt.iova(ReqClass::Notify), pkt.notifyIova);
    EXPECT_EQ(pkt.pageSize(ReqClass::Ring), mem::PageSize::Size4K);
    EXPECT_EQ(pkt.pageSize(ReqClass::Data), mem::PageSize::Size2M);
    pkt.dataHuge = false;
    EXPECT_EQ(pkt.pageSize(ReqClass::Data), mem::PageSize::Size4K);
}

TEST(Record, ReqClassNames)
{
    EXPECT_STREQ(reqClassName(ReqClass::Ring), "ring");
    EXPECT_STREQ(reqClassName(ReqClass::Data), "data");
    EXPECT_STREQ(reqClassName(ReqClass::Notify), "notify");
}

TEST(Record, PerTenantPacketCounts)
{
    HyperTrace trace;
    trace.numTenants = 3;
    trace.packets = {makePacket(0, 0), makePacket(1, 0),
                     makePacket(0, 1)};
    const auto counts = trace.perTenantPackets();
    ASSERT_EQ(counts.size(), 3u);
    EXPECT_EQ(counts[0], 2u);
    EXPECT_EQ(counts[1], 1u);
    EXPECT_EQ(counts[2], 0u);
    EXPECT_EQ(trace.translations(), 9u);
}

TEST(Interleaving, ParseAndName)
{
    const Interleaving rr1 = parseInterleaving("RR1");
    EXPECT_EQ(rr1.kind, InterleaveKind::RoundRobin);
    EXPECT_EQ(rr1.burst, 1u);
    EXPECT_EQ(rr1.name(), "RR1");

    const Interleaving rr4 = parseInterleaving("rr4");
    EXPECT_EQ(rr4.burst, 4u);

    const Interleaving rand1 = parseInterleaving("RAND1");
    EXPECT_EQ(rand1.kind, InterleaveKind::Random);
    EXPECT_EQ(rand1.name(), "RAND1");

    // Bare names default to burst 1.
    EXPECT_EQ(parseInterleaving("RR").burst, 1u);
}

TEST(Constructor, RoundRobinInterleavesFairly)
{
    std::vector<TenantLog> logs{makeLog(10, 4), makeLog(20, 4),
                                makeLog(30, 4)};
    const HyperTrace trace =
        constructTrace(logs, parseInterleaving("RR1"));
    ASSERT_EQ(trace.packets.size(), 12u);
    // SIDs are renumbered densely and strictly rotate 0,1,2,0,1,2...
    for (size_t i = 0; i < trace.packets.size(); ++i)
        EXPECT_EQ(trace.packets[i].sid, i % 3);
}

TEST(Constructor, BurstTakesConsecutivePackets)
{
    std::vector<TenantLog> logs{makeLog(0, 8), makeLog(1, 8)};
    const HyperTrace trace =
        constructTrace(logs, parseInterleaving("RR4"));
    ASSERT_GE(trace.packets.size(), 8u);
    for (size_t i = 0; i < 8; ++i)
        EXPECT_EQ(trace.packets[i].sid, (i / 4) % 2);
}

TEST(Constructor, StopsWhenShortestLogDrains)
{
    // Tenant 1 has only 2 packets: per the paper, construction stops
    // when any tenant runs out (no "edge effect" tail).
    std::vector<TenantLog> logs{makeLog(0, 10), makeLog(1, 2),
                                makeLog(2, 10)};
    const HyperTrace trace =
        constructTrace(logs, parseInterleaving("RR1"));
    const auto counts = trace.perTenantPackets();
    EXPECT_EQ(counts[1], 2u);
    // The others contributed at most one extra round.
    EXPECT_LE(counts[0], 3u);
    EXPECT_LE(counts[2], 3u);
}

TEST(Constructor, RandomIsSeededAndCoversAllTenants)
{
    std::vector<TenantLog> logs{makeLog(0, 50), makeLog(1, 50),
                                makeLog(2, 50)};
    Interleaving il = parseInterleaving("RAND1");
    il.seed = 7;
    const HyperTrace a = constructTrace(logs, il);
    const HyperTrace b = constructTrace(logs, il);
    ASSERT_EQ(a.packets.size(), b.packets.size());
    for (size_t i = 0; i < a.packets.size(); ++i)
        EXPECT_EQ(a.packets[i].sid, b.packets[i].sid);

    const auto counts = a.perTenantPackets();
    for (uint64_t c : counts)
        EXPECT_GT(c, 0u);
}

TEST(Constructor, PreservesPerTenantPacketOrder)
{
    std::vector<TenantLog> logs{makeLog(0, 6), makeLog(1, 6)};
    const HyperTrace trace =
        constructTrace(logs, parseInterleaving("RAND1"));
    uint64_t last_data[2] = {0, 0};
    for (const auto &pkt : trace.packets) {
        EXPECT_GE(pkt.dataIova, last_data[pkt.sid]);
        last_data[pkt.sid] = pkt.dataIova;
    }
}

TEST(Constructor, RehomesOpsIntoSharedPool)
{
    std::vector<TenantLog> logs{makeLog(0, 3), makeLog(1, 3)};
    const HyperTrace trace =
        constructTrace(logs, parseInterleaving("RR1"));
    EXPECT_EQ(trace.ops.size(), 2u); // one map op per tenant
    for (const auto &pkt : trace.packets) {
        for (uint16_t i = 0; i < pkt.opCount; ++i) {
            ASSERT_LT(pkt.opBegin + i, trace.ops.size());
            EXPECT_TRUE(trace.ops[pkt.opBegin + i].isMap);
        }
    }
}

TEST(Constructor, EmptyInputsYieldEmptyTrace)
{
    EXPECT_TRUE(constructTrace({}, parseInterleaving("RR1"))
                    .packets.empty());
    std::vector<TenantLog> logs{makeLog(0, 0), makeLog(1, 5)};
    EXPECT_TRUE(constructTrace(logs, parseInterleaving("RR1"))
                    .packets.empty());
}

class TraceFileTest : public ::testing::Test
{
  protected:
    void SetUp() override
    {
        // One file per test: ctest runs the cases in parallel.
        _path = std::filesystem::temp_directory_path() /
                (std::string("hypersio_trace_test_") +
                 ::testing::UnitTest::GetInstance()
                     ->current_test_info()
                     ->name() +
                 ".bin");
    }
    void TearDown() override { std::filesystem::remove(_path); }

    std::filesystem::path _path;
};

TEST_F(TraceFileTest, HyperTraceRoundTrip)
{
    std::vector<TenantLog> logs{makeLog(0, 5), makeLog(1, 5)};
    HyperTrace original =
        constructTrace(logs, parseInterleaving("RR2"));
    original.seed = 99;
    saveTrace(original, _path.string());

    const HyperTrace loaded = loadTrace(_path.string());
    EXPECT_EQ(loaded.numTenants, original.numTenants);
    EXPECT_EQ(loaded.seed, 99u);
    ASSERT_EQ(loaded.packets.size(), original.packets.size());
    ASSERT_EQ(loaded.ops.size(), original.ops.size());
    for (size_t i = 0; i < loaded.packets.size(); ++i) {
        EXPECT_EQ(loaded.packets[i].sid, original.packets[i].sid);
        EXPECT_EQ(loaded.packets[i].dataIova,
                  original.packets[i].dataIova);
        EXPECT_EQ(loaded.packets[i].opCount,
                  original.packets[i].opCount);
    }
    for (size_t i = 0; i < loaded.ops.size(); ++i) {
        EXPECT_EQ(loaded.ops[i].pageBase, original.ops[i].pageBase);
        EXPECT_EQ(loaded.ops[i].isMap, original.ops[i].isMap);
    }
}

TEST_F(TraceFileTest, TenantLogRoundTrip)
{
    const TenantLog original = makeLog(17, 8);
    saveTenantLog(original, _path.string());
    const TenantLog loaded = loadTenantLog(_path.string());
    EXPECT_EQ(loaded.sid, 17u);
    ASSERT_EQ(loaded.packets.size(), 8u);
    EXPECT_EQ(loaded.translations(), 24u);
    EXPECT_EQ(loaded.ops.size(), original.ops.size());
}

TEST_F(TraceFileTest, TextDumpContainsPacketsAndOps)
{
    std::vector<TenantLog> logs{makeLog(0, 2)};
    const HyperTrace trace =
        constructTrace(logs, parseInterleaving("RR1"));
    std::ostringstream os;
    dumpTraceText(trace, os);
    const std::string text = os.str();
    EXPECT_NE(text.find("pkt sid=0"), std::string::npos);
    EXPECT_NE(text.find("map"), std::string::npos);
    EXPECT_NE(text.find("0x34800000"), std::string::npos);
}

TEST_F(TraceFileTest, TextDumpRespectsLimit)
{
    std::vector<TenantLog> logs{makeLog(0, 50)};
    const HyperTrace trace =
        constructTrace(logs, parseInterleaving("RR1"));
    std::ostringstream os;
    dumpTraceText(trace, os, 3);
    size_t lines = 0;
    for (char c : os.str())
        lines += c == '\n' ? 1 : 0;
    EXPECT_LE(lines, 6u);
}

} // namespace
} // namespace hypersio::trace
