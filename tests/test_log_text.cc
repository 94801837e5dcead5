/** Tests for the textual tenant-log interchange format. */

#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <string>

#include "workload/benchmarks.hh"
#include "workload/log_text.hh"
#include "workload/tenant_model.hh"

namespace hypersio::workload
{
namespace
{

TEST(LogText, RoundTripPreservesEverything)
{
    const auto profile = benchmarkProfile(Benchmark::Mediastream);
    const trace::TenantLog original =
        TenantStream(profile.pattern, 42, 17, 500).drain();

    std::stringstream buffer;
    writeTextLog(original, buffer);
    const trace::TenantLog loaded =
        parseTextLog(buffer, "roundtrip");

    EXPECT_EQ(loaded.sid, original.sid);
    ASSERT_EQ(loaded.packets.size(), original.packets.size());
    ASSERT_EQ(loaded.ops.size(), original.ops.size());
    for (size_t i = 0; i < loaded.packets.size(); ++i) {
        const auto &a = loaded.packets[i];
        const auto &b = original.packets[i];
        EXPECT_EQ(a.ringIova, b.ringIova);
        EXPECT_EQ(a.dataIova, b.dataIova);
        EXPECT_EQ(a.notifyIova, b.notifyIova);
        EXPECT_EQ(a.dataHuge, b.dataHuge);
        EXPECT_EQ(a.wireBytes, b.wireBytes);
        EXPECT_EQ(a.opCount, b.opCount);
    }
    for (size_t i = 0; i < loaded.ops.size(); ++i) {
        EXPECT_EQ(loaded.ops[i].pageBase, original.ops[i].pageBase);
        EXPECT_EQ(loaded.ops[i].isMap, original.ops[i].isMap);
        EXPECT_EQ(loaded.ops[i].size, original.ops[i].size);
    }
}

TEST(LogText, ParsesHandWrittenLog)
{
    std::stringstream input(
        "# hand-written example\n"
        "tenant 3\n"
        "map   0x34800000 4K\n"
        "map   0xbbe00000 2M\n"
        "pkt   0x34800000 0xbbe00040 2M 0x34800f00\n"
        "pkt   0x34800010 0xbbe00580 2M 0x34800f00 256\n"
        "unmap 0xbbe00000 2M\n"
        "map   0xbc000000 2M\n"
        "pkt   0x34800020 0xbc000000 2M 0x34800f00\n");
    const trace::TenantLog log = parseTextLog(input, "test");

    EXPECT_EQ(log.sid, 3u);
    ASSERT_EQ(log.packets.size(), 3u);
    EXPECT_EQ(log.ops.size(), 4u);
    EXPECT_EQ(log.packets[0].opCount, 2u);
    EXPECT_EQ(log.packets[1].wireBytes, 256u);
    EXPECT_EQ(log.packets[2].opCount, 2u);
    const trace::PageOp &unmap = log.ops[log.packets[2].opBegin];
    EXPECT_FALSE(unmap.isMap);
    EXPECT_EQ(unmap.pageBase, 0xbbe00000u);
}

TEST(LogText, CommentsAndBlankLinesIgnored)
{
    std::stringstream input(
        "\n"
        "# comment only\n"
        "tenant 1\n"
        "\n"
        "pkt 0x1000 0x2000 4K 0x3000  # trailing comment\n");
    const trace::TenantLog log = parseTextLog(input, "test");
    ASSERT_EQ(log.packets.size(), 1u);
    EXPECT_FALSE(log.packets[0].dataHuge);
}

TEST(LogText, WriterEmitsParsableKeywords)
{
    trace::TenantLog log;
    log.sid = 9;
    log.ops.push_back({0x1000, mem::PageSize::Size4K, true});
    trace::PacketRecord pkt;
    pkt.sid = 9;
    pkt.ringIova = 0x1000;
    pkt.dataIova = 0x2000;
    pkt.dataHuge = false;
    pkt.notifyIova = 0x1f00;
    pkt.opBegin = 0;
    pkt.opCount = 1;
    log.packets.push_back(pkt);

    std::stringstream buffer;
    writeTextLog(log, buffer);
    const std::string text = buffer.str();
    EXPECT_NE(text.find("tenant 9"), std::string::npos);
    EXPECT_NE(text.find("map   0x1000 4K"), std::string::npos);
    EXPECT_NE(text.find("pkt   0x1000 0x2000 4K 0x1f00"),
              std::string::npos);
}

// A value the log format cannot carry is fatal, naming the line,
// rather than narrowed to the packet record's field width.
TEST(LogTextDeathTest, ValuesThatDoNotFitAreFatal)
{
    std::string many_maps = "tenant 1\n";
    for (unsigned i = 0; i <= UINT16_MAX; ++i)
        many_maps += "map 0x1000 4K\n";
    many_maps += "pkt 0x1000 0x2000 4K 0x3000\n";
    const struct
    {
        const char *name;
        std::string text;
        const char *message;
    } cases[] = {
        {"65536 ops", many_maps,
         "fatal: test:65538: 65536 page ops before one packet; at "
         "most 65535 fit"},
        {"tenant SID", "tenant 4294967296\n",
         "fatal: test:1: tenant SID 4294967296 does not fit in 32 "
         "bits"},
        {"tenant SID outside the SID space", "tenant 4096\n",
         "fatal: test:1: tenant SID 4096 is outside the 4096-SID "
         "space"},
        {"wire bytes",
         "tenant 1\npkt 0x1000 0x2000 4K 0x3000 4294967296\n",
         "fatal: test:2: wire-bytes 4294967296 does not fit in 32 "
         "bits"},
    };
    for (const auto &c : cases) {
        SCOPED_TRACE(c.name);
        EXPECT_EXIT(
            {
                std::istringstream input(c.text);
                parseTextLog(input, "test");
            },
            ::testing::ExitedWithCode(1), c.message);
    }
}

// The format carries one VF per file and no PASID, so the writer
// refuses a packet with one rather than let it come back as 0.
TEST(LogTextDeathTest, WriterRefusesANonZeroPasid)
{
    trace::TenantLog log;
    log.sid = 7;
    for (uint16_t i = 0; i < 3; ++i) {
        trace::PacketRecord pkt;
        pkt.sid = 7;
        pkt.ringIova = 0x1000;
        pkt.dataIova = 0x2000;
        pkt.notifyIova = 0x3000;
        log.packets.push_back(pkt);
    }
    std::ostringstream ok;
    writeTextLog(log, ok);
    log.packets[2].pasid = 5;
    EXPECT_EXIT(
        {
            std::ostringstream out;
            writeTextLog(log, out);
        },
        ::testing::ExitedWithCode(1),
        "fatal: text log of tenant 7: packet 2 has PASID 5, and the "
        "text format carries none");
}

} // namespace
} // namespace hypersio::workload
