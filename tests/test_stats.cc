/** Unit tests for the statistics package. */

#include <gtest/gtest.h>

#include <cmath>
#include <sstream>

#include "stats/stats.hh"
#include "json_value.hh"
#include "util/json.hh"

namespace hypersio::stats
{
namespace
{

TEST(Counter, IncrementAndAdd)
{
    StatGroup group("g");
    Counter &c = group.makeCounter("c", "a counter");
    EXPECT_EQ(c.count(), 0u);
    ++c;
    c += 5;
    EXPECT_EQ(c.count(), 6u);
    EXPECT_DOUBLE_EQ(c.value(), 6.0);
    c.reset();
    EXPECT_EQ(c.count(), 0u);
}

TEST(Histogram, MeanMinMaxStddev)
{
    StatGroup group("g");
    Histogram &h = group.makeHistogram("h", "", 0, 100, 10);
    h.sample(10);
    h.sample(20);
    h.sample(30);
    EXPECT_EQ(h.samples(), 3u);
    EXPECT_DOUBLE_EQ(h.mean(), 20.0);
    EXPECT_DOUBLE_EQ(h.min(), 10.0);
    EXPECT_DOUBLE_EQ(h.max(), 30.0);
    EXPECT_NEAR(h.stddev(), 10.0, 1e-9);
}

TEST(Histogram, BinsAndOverflow)
{
    StatGroup group("g");
    Histogram &h = group.makeHistogram("h", "", 0, 10, 10);
    h.sample(-1);       // underflow
    h.sample(0);        // bin 0
    h.sample(9.5);      // bin 9
    h.sample(10);       // overflow (hi is exclusive)
    h.sample(100, 3);   // weighted overflow
    EXPECT_EQ(h.underflow(), 1u);
    EXPECT_EQ(h.binCount(0), 1u);
    EXPECT_EQ(h.binCount(9), 1u);
    EXPECT_EQ(h.overflow(), 4u);
    EXPECT_EQ(h.samples(), 7u);
}

TEST(Histogram, WeightedSamples)
{
    StatGroup group("g");
    Histogram &h = group.makeHistogram("h", "", 0, 100, 4);
    h.sample(10, 3);
    h.sample(50, 1);
    EXPECT_EQ(h.samples(), 4u);
    EXPECT_DOUBLE_EQ(h.mean(), (30.0 + 50.0) / 4.0);
}

TEST(Histogram, ResetClearsEverything)
{
    StatGroup group("g");
    Histogram &h = group.makeHistogram("h", "", 0, 10, 5);
    h.sample(5);
    h.reset();
    EXPECT_EQ(h.samples(), 0u);
    EXPECT_DOUBLE_EQ(h.mean(), 0.0);
    EXPECT_EQ(h.binCount(2), 0u);
}

TEST(Histogram, WeightedMomentsAndExtremes)
{
    StatGroup group("g");
    Histogram &h = group.makeHistogram("h", "", 0, 100, 10);
    h.sample(10, 4);
    h.sample(30, 1);
    EXPECT_EQ(h.samples(), 5u);
    EXPECT_DOUBLE_EQ(h.min(), 10.0);
    EXPECT_DOUBLE_EQ(h.max(), 30.0);
    EXPECT_DOUBLE_EQ(h.mean(), (4 * 10.0 + 30.0) / 5.0);
    // sum = 70, sumSq = 1300: var = (1300 - 70^2/5) / 4 = 80.
    EXPECT_NEAR(h.stddev(), std::sqrt(80.0), 1e-9);
    EXPECT_EQ(h.binCount(1), 4u);
    EXPECT_EQ(h.binCount(3), 1u);
}

TEST(Histogram, PercentileInterpolatesWithinBins)
{
    StatGroup group("g");
    Histogram &h = group.makeHistogram("h", "", 0, 100, 10);
    for (int v = 0; v < 100; ++v)
        h.sample(v);
    // rank(p) = p/100 * 99 + 1; p50 lands 0.5 samples into the
    // 10-count [50,60) bin -> 50 + 10 * 0.05.
    EXPECT_NEAR(h.percentile(50), 50.5, 1e-9);
    EXPECT_NEAR(h.percentile(90), 90.1, 1e-9);
    // p100 clamps to the observed maximum.
    EXPECT_DOUBLE_EQ(h.percentile(100), 99.0);
    EXPECT_DOUBLE_EQ(h.percentile(0), 1.0);
}

TEST(Histogram, PercentileHandlesUnderOverflow)
{
    StatGroup group("g");
    Histogram &h = group.makeHistogram("h", "", 0, 10, 10);
    h.sample(-5, 3);
    h.sample(5, 1);
    h.sample(20, 6);
    // Ranks 1..3 sit in the underflow bucket, 5..10 in overflow.
    EXPECT_DOUBLE_EQ(h.percentile(10), -5.0);
    EXPECT_DOUBLE_EQ(h.percentile(99), 20.0);
}

TEST(Histogram, PercentileOfEmptyIsZero)
{
    StatGroup group("g");
    Histogram &h = group.makeHistogram("h", "", 0, 10, 10);
    EXPECT_DOUBLE_EQ(h.percentile(50), 0.0);
}

TEST(StatGroup, ChildCreationIsIdempotent)
{
    StatGroup root("root");
    StatGroup &a = root.child("a");
    StatGroup &b = root.child("a");
    EXPECT_EQ(&a, &b);
    EXPECT_NE(&root.child("c"), &a);
}

TEST(StatGroup, FindLocatesStats)
{
    StatGroup root("root");
    Counter &c = root.makeCounter("hits", "desc");
    EXPECT_EQ(root.find("hits"), &c);
    EXPECT_EQ(root.find("misses"), nullptr);
}

TEST(StatGroup, ResetAllRecurses)
{
    StatGroup root("root");
    Counter &a = root.makeCounter("a", "");
    Counter &b = root.child("sub").makeCounter("b", "");
    a += 3;
    b += 4;
    root.resetAll();
    EXPECT_EQ(a.count(), 0u);
    EXPECT_EQ(b.count(), 0u);
}

TEST(StatGroup, DumpContainsHierarchicalNames)
{
    StatGroup root("system");
    root.makeCounter("events", "total events") += 7;
    root.child("device").makeCounter("packets", "pkt count") += 2;
    std::ostringstream os;
    root.dump(os);
    const std::string text = os.str();
    EXPECT_NE(text.find("system.events"), std::string::npos);
    EXPECT_NE(text.find("system.device.packets"), std::string::npos);
    EXPECT_NE(text.find("total events"), std::string::npos);
}

TEST(Histogram, DumpShowsDistribution)
{
    StatGroup root("r");
    Histogram &h = root.makeHistogram("lat", "latency", 0, 10, 2);
    h.sample(1);
    h.sample(6);
    std::ostringstream os;
    root.dump(os);
    EXPECT_NE(os.str().find("lat.mean"), std::string::npos);
    EXPECT_NE(os.str().find("lat.bin[0,5)"), std::string::npos);
}

/** Locates a stat entry by name in a parsed group node. */
const json::Value *
statEntry(const json::Value &group, const std::string &name)
{
    const json::Value *stats = group.find("stats");
    if (stats == nullptr)
        return nullptr;
    for (const json::Value &entry : stats->array) {
        const json::Value *n = entry.find("name");
        if (n != nullptr && n->str == name)
            return &entry;
    }
    return nullptr;
}

TEST(JsonExport, RoundTripMatchesFind)
{
    StatGroup root("sys");
    Counter &hits = root.makeCounter("hits", "hit count");
    Counter &lookups = root.makeCounter("lookups", "lookup count");
    root.makeCallback("hit_rate", "hits/lookups", [&] {
        return hits.value() / lookups.value();
    });
    double gbps = 0.0;
    root.makeCallback("gbps", "throughput", [&] { return gbps; });
    Histogram &lat = root.makeHistogram("lat", "latency", 0, 100, 10);
    Counter &pkts = root.child("dev").makeCounter("packets", "");

    hits += 3;
    lookups += 7;
    gbps = 12.3456789012345;
    lat.sample(5, 2);
    lat.sample(42);
    lat.sample(250); // overflow
    pkts += 11;

    auto doc = json::Value::parse(toJsonString(root));
    ASSERT_TRUE(doc.has_value());
    EXPECT_EQ(doc->find("name")->str, "sys");

    // Every value in the JSON must parse back bit-identical to what
    // find() reports — formatDouble guarantees the round trip.
    for (const char *name : {"hits", "lookups", "hit_rate", "gbps",
                             "lat"}) {
        const json::Value *entry = statEntry(*doc, name);
        ASSERT_NE(entry, nullptr) << name;
        EXPECT_EQ(entry->find("value")->number,
                  root.find(name)->value()) << name;
    }
    EXPECT_EQ(statEntry(*doc, "hits")->find("kind")->str, "counter");
    EXPECT_EQ(statEntry(*doc, "hits")->find("count")->number, 3.0);
    EXPECT_EQ(statEntry(*doc, "hit_rate")->find("value")->number,
              3.0 / 7.0);
    EXPECT_EQ(statEntry(*doc, "gbps")->find("desc")->str,
              "throughput");

    const json::Value *jlat = statEntry(*doc, "lat");
    EXPECT_EQ(jlat->find("samples")->number, 4.0);
    EXPECT_EQ(jlat->find("mean")->number, lat.mean());
    EXPECT_EQ(jlat->find("stddev")->number, lat.stddev());
    EXPECT_EQ(jlat->find("min")->number, 5.0);
    EXPECT_EQ(jlat->find("max")->number, 250.0);
    EXPECT_EQ(jlat->find("overflow")->number, 1.0);
    ASSERT_EQ(jlat->find("bins")->array.size(), 10u);
    EXPECT_EQ(jlat->find("bins")->array[0].number, 2.0);
    EXPECT_EQ(jlat->find("bins")->array[4].number, 1.0);
    EXPECT_EQ(jlat->find("percentiles")->find("p50")->number,
              lat.percentile(50));
    EXPECT_EQ(jlat->find("percentiles")->find("p99")->number,
              lat.percentile(99));

    const json::Value *children = doc->find("children");
    ASSERT_EQ(children->array.size(), 1u);
    EXPECT_EQ(children->array[0].find("name")->str, "dev");
    EXPECT_EQ(statEntry(children->array[0], "packets")
                  ->find("value")->number,
              root.child("dev").find("packets")->value());
}

TEST(Callback, ReadsSourceLazily)
{
    StatGroup root("root");
    uint64_t hits = 0;
    Callback &cb = root.makeCallback(
        "hits", "live hit count",
        [&hits] { return static_cast<double>(hits); });
    EXPECT_EQ(cb.value(), 0.0);
    hits = 7;
    EXPECT_EQ(cb.value(), 7.0); // no snapshot: reads the source
    EXPECT_EQ(root.find("hits"), &cb);
}

TEST(Callback, ResetLeavesSourceAlone)
{
    StatGroup root("root");
    double v = 3.5;
    Callback &cb =
        root.makeCallback("v", "", [&v] { return v; });
    root.resetAll();
    EXPECT_EQ(cb.value(), 3.5); // the owner resets its own state
}

TEST(Callback, AppearsInDumpAndJson)
{
    StatGroup root("root");
    root.makeCallback("load", "current load", [] { return 0.25; });
    std::ostringstream os;
    root.dump(os);
    EXPECT_NE(os.str().find("root.load"), std::string::npos);
    EXPECT_NE(os.str().find("0.25"), std::string::npos);

    auto doc = json::Value::parse(toJsonString(root));
    ASSERT_TRUE(doc.has_value());
    const json::Value &stat = doc->find("stats")->array.at(0);
    EXPECT_EQ(stat.find("kind")->str, "callback");
    EXPECT_EQ(stat.find("value")->number, 0.25);
}

TEST(JsonExport, EmptyGroupHasEmptyArrays)
{
    StatGroup root("empty");
    auto doc = json::Value::parse(toJsonString(root));
    ASSERT_TRUE(doc.has_value());
    EXPECT_TRUE(doc->find("stats")->array.empty());
    EXPECT_TRUE(doc->find("children")->array.empty());
}

} // namespace
} // namespace hypersio::stats
