/** Unit tests for trace records, binary file round-trips, and the
 *  Trace Constructor's interleaving and truncation semantics. */

#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <sstream>
#include <string>

#include "trace/constructor.hh"
#include "trace/record.hh"
#include "trace/trace_file.hh"
#include "workload/log_text.hh"

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

// Constructed SIDs are dense (0..N-1), so N logs need N SIDs; one
// log too many is fatal rather than a SID the record cannot hold.
TEST(ConstructorDeathTest, MoreLogsThanSidsAreFatal)
{
    EXPECT_EXIT(
        {
            std::vector<TenantLog> logs;
            for (SourceId sid = 0; sid <= SidSpace; ++sid)
                logs.push_back(makeLog(sid, 1));
            constructTrace(logs, parseInterleaving("RR1"));
        },
        ::testing::ExitedWithCode(1),
        "fatal: trace constructor: 4097 tenant logs, but the SID "
        "space holds 4096");
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

// A malformed trace file is a user error: each corruption dies with
// one fatal() naming the file (and the packet, where there is one),
// never an out-of-bounds read or an uncaught allocation failure.
TEST_F(TraceFileTest, MalformedFilesAreFatal)
{
    std::vector<TenantLog> logs{makeLog(0, 3), makeLog(1, 3)};
    saveTrace(constructTrace(logs, parseInterleaving("RR1")),
              _path.string());
    std::string good;
    {
        std::ifstream in(_path, std::ios::binary);
        good.assign(std::istreambuf_iterator<char>(in), {});
    }
    // The header's npackets and nops sit at bytes 24 and 32; each
    // 48-byte packet record starts with its sid, then its opBegin.
    constexpr size_t NPackets = 24;
    constexpr size_t NOps = 32;
    constexpr size_t FirstSid = 40;
    constexpr size_t FirstOpBegin = FirstSid + 4;
    auto set64 = [](std::string &bytes, size_t at, uint64_t v) {
        std::memcpy(bytes.data() + at, &v, sizeof(v));
    };
    auto get64 = [](const std::string &bytes, size_t at) {
        uint64_t v;
        std::memcpy(&v, bytes.data() + at, sizeof(v));
        return v;
    };
    const uint64_t nops = get64(good, NOps);
    ASSERT_GT(nops, 0u);
    const char *const mismatch =
        "header counts [0-9]+ packets and [0-9]+ page ops, which do "
        "not match the [0-9]+ bytes after the header";

    const struct
    {
        const char *name;
        std::string bytes;
        const char *message;
    } cases[] = {
        {"truncated", good.substr(0, good.size() - 1), mismatch},
        {"huge count",
         [&] {
             std::string b = good;
             set64(b, NPackets, UINT64_MAX / 48 + 1);
             return b;
         }(),
         "header counts 384307168202282326 packets"},
        {"count that wraps",
         [&] {
             // 16 * (nops + 2^60) wraps to 16 * nops: the size still
             // matches unless the product is overflow-checked.
             std::string b = good;
             set64(b, NOps, nops + (uint64_t(1) << 60));
             return b;
         }(),
         mismatch},
        {"op range past nops",
         [&] {
             std::string b = good;
             const uint32_t begin = 100000000;
             std::memcpy(b.data() + FirstOpBegin, &begin,
                         sizeof(begin));
             return b;
         }(),
         "packet 0's page ops \\[100000000, 10000000[0-9]\\) run past"},
        {"SID outside the SID space",
         [&] {
             std::string b = good;
             const uint32_t sid = 70000;
             std::memcpy(b.data() + FirstSid, &sid, sizeof(sid));
             return b;
         }(),
         "packet 0's SID 70000 is outside the 4096-SID space"},
        {"trailing bytes", good + "x", mismatch},
    };
    for (const auto &c : cases) {
        SCOPED_TRACE(c.name);
        {
            std::ofstream out(_path, std::ios::binary | std::ios::trunc);
            out.write(c.bytes.data(),
                      static_cast<std::streamsize>(c.bytes.size()));
        }
        EXPECT_EXIT(loadTrace(_path.string()),
                    ::testing::ExitedWithCode(1),
                    std::string("fatal: '") + _path.string() + "': " +
                        c.message);
    }
}

// Every field of a packet record at the edge of its range survives
// the binary trace file and the text log: the 40-byte in-memory
// record narrows nothing the formats carry.
TEST_F(TraceFileTest, ExtremeFieldValuesRoundTrip)
{
    constexpr mem::Iova Top = uint64_t(1) << 57;
    constexpr SourceId MaxSid = SidSpace - 1;
    // Two packets of filler ops put the extreme packet's opBegin past
    // 16 bits.
    TenantLog log;
    log.sid = MaxSid;
    const auto addPacket = [&log](uint16_t op_count) {
        PacketRecord pkt = makePacket(MaxSid, log.packets.size());
        pkt.opBegin = static_cast<uint32_t>(log.ops.size());
        pkt.opCount = op_count;
        for (uint32_t i = 0; i < op_count; ++i)
            log.ops.push_back({Top - (log.ops.size() + 1) * 0x1000,
                               log.ops.size() % 2
                                   ? mem::PageSize::Size2M
                                   : mem::PageSize::Size4K,
                               log.ops.size() % 3 != 0});
        log.packets.push_back(pkt);
        return &log.packets.back();
    };
    addPacket(UINT16_MAX);
    addPacket(2);
    PacketRecord &extreme = *addPacket(UINT16_MAX);
    extreme.ringIova = Top - 0xff0;
    extreme.dataIova = Top - 0x200000 + 0x1fffc0;
    extreme.notifyIova = Top - 4;
    extreme.wireBytes = UINT32_MAX;
    extreme.dataHuge = true;
    ASSERT_EQ(extreme.opBegin, uint32_t(UINT16_MAX) + 2);

    const auto expectSame = [](const TenantLog &a, const TenantLog &b,
                               bool with_pasid) {
        ASSERT_EQ(a.packets.size(), b.packets.size());
        for (size_t i = 0; i < a.packets.size(); ++i) {
            SCOPED_TRACE(i);
            const PacketRecord &x = a.packets[i];
            const PacketRecord &y = b.packets[i];
            EXPECT_EQ(x.ringIova, y.ringIova);
            EXPECT_EQ(x.dataIova, y.dataIova);
            EXPECT_EQ(x.notifyIova, y.notifyIova);
            EXPECT_EQ(x.opBegin, y.opBegin);
            EXPECT_EQ(x.wireBytes, y.wireBytes);
            EXPECT_EQ(x.sid, y.sid);
            if (with_pasid) {
                EXPECT_EQ(x.pasid, y.pasid);
            }
            EXPECT_EQ(x.opCount, y.opCount);
            EXPECT_EQ(x.dataHuge, y.dataHuge);
        }
        ASSERT_EQ(a.ops.size(), b.ops.size());
        for (size_t i = 0; i < a.ops.size(); ++i) {
            EXPECT_EQ(a.ops[i].pageBase, b.ops[i].pageBase) << i;
            EXPECT_EQ(a.ops[i].size, b.ops[i].size) << i;
            EXPECT_EQ(a.ops[i].isMap, b.ops[i].isMap) << i;
        }
    };

    // The text log is one tenant's VF and carries no PASID.
    std::stringstream text;
    workload::writeTextLog(log, text);
    const TenantLog from_text = workload::parseTextLog(text, "extreme");
    EXPECT_EQ(from_text.sid, MaxSid);
    expectSame(from_text, log, /*with_pasid=*/false);

    extreme.pasid = UINT16_MAX;
    HyperTrace trace;
    trace.numTenants = SidSpace;
    trace.seed = UINT64_MAX;
    trace.packets = log.packets;
    trace.ops = log.ops;
    saveTrace(trace, _path.string());
    const HyperTrace loaded = loadTrace(_path.string());
    EXPECT_EQ(loaded.numTenants, SidSpace);
    EXPECT_EQ(loaded.seed, UINT64_MAX);
    TenantLog from_file;
    from_file.packets = loaded.packets;
    from_file.ops = loaded.ops;
    expectSame(from_file, log, /*with_pasid=*/true);
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
