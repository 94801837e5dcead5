/**
 * Soak-harness tests.
 *
 * Three contracts, in order of how badly a violation would corrupt a
 * long-haul run:
 *
 *  - Snapshotter delta math: first-interval semantics, counter
 *    reset/wrap, falling scalars, empty-histogram percentiles, and a
 *    JSON round-trip through util/json.
 *  - Non-perturbation: capturing snapshots mid-run must not change a
 *    single bit of the simulated results — RunResults and the full
 *    stats tree must match a snapshot-free run exactly.
 *  - Determinism: same-seed soak runs emit byte-identical snapshot
 *    streams (wall block excluded), and a sharded run's deterministic
 *    outputs — including every snapshot line — are independent of the
 *    worker-thread count.
 *
 * Plus the fail-fast story: a planted fault under the checked oracle
 * must abort with the single-line soak repro context attached.
 */

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "core/multi_system.hh"
#include "core/system.hh"
#include "stats/snapshot.hh"
#include "stats/stats.hh"
#include "json_value.hh"
#include "util/json.hh"
#include "util/logging.hh"
#include "util/rng.hh"
#include "workload/soak.hh"

#include "oracle/fault_injection.hh"
#include "oracle/shadow.hh"

namespace hypersio
{
namespace
{

// ---------------------------------------------------------------
// Snapshotter delta math
// ---------------------------------------------------------------

const stats::SnapshotEntry *
findEntry(const stats::Snapshot &snap, const std::string &path)
{
    for (const stats::SnapshotEntry &e : snap.entries) {
        if (e.path == path)
            return &e;
    }
    return nullptr;
}

TEST(Snapshotter, FirstCaptureDiffsAgainstZeroState)
{
    stats::StatGroup root("root");
    stats::Counter &packets = root.makeCounter("packets", "");
    double occupancy = 0.0;
    root.makeCallback("occupancy", "", [&] { return occupancy; });
    packets += 5;
    occupancy = 2.5;

    stats::Snapshotter snapper(root);
    EXPECT_EQ(snapper.captures(), 0u);
    const stats::Snapshot snap = snapper.capture(100);

    EXPECT_EQ(snap.interval, 0u);
    EXPECT_EQ(snap.simTicks, 100u);
    EXPECT_EQ(snap.deltaSimTicks, 100u);
    EXPECT_EQ(snapper.captures(), 1u);

    const stats::SnapshotEntry *p = findEntry(snap, "root.packets");
    ASSERT_NE(p, nullptr);
    EXPECT_STREQ(p->kind, "counter");
    EXPECT_DOUBLE_EQ(p->value, 5.0);
    EXPECT_DOUBLE_EQ(p->delta, 5.0);

    const stats::SnapshotEntry *o = findEntry(snap, "root.occupancy");
    ASSERT_NE(o, nullptr);
    EXPECT_DOUBLE_EQ(o->value, 2.5);
    EXPECT_DOUBLE_EQ(o->delta, 2.5);
}

TEST(Snapshotter, CrossIntervalDeltasAndFallingScalars)
{
    stats::StatGroup root("root");
    stats::Counter &packets = root.makeCounter("packets", "");
    double occupancy = 0.0;
    root.makeCallback("occupancy", "", [&] { return occupancy; });
    stats::StatGroup &child = root.child("cache");
    stats::Counter &hits = child.makeCounter("hits", "");

    packets += 5;
    occupancy = 2.5;
    hits += 10;
    stats::Snapshotter snapper(root);
    snapper.capture(100, 1.0);

    packets += 7;
    occupancy = 1.5; // callbacks may fall; delta goes negative
    hits += 1;
    const stats::Snapshot snap = snapper.capture(250, 3.5);

    EXPECT_EQ(snap.interval, 1u);
    EXPECT_EQ(snap.deltaSimTicks, 150u);
    EXPECT_DOUBLE_EQ(snap.deltaWallSeconds, 2.5);

    EXPECT_DOUBLE_EQ(findEntry(snap, "root.packets")->delta, 7.0);
    EXPECT_DOUBLE_EQ(findEntry(snap, "root.occupancy")->delta, -1.0);
    // Nested groups flatten to dotted paths.
    const stats::SnapshotEntry *h =
        findEntry(snap, "root.cache.hits");
    ASSERT_NE(h, nullptr);
    EXPECT_DOUBLE_EQ(h->delta, 1.0);
}

TEST(Snapshotter, CounterResetCreditsPostResetAccumulation)
{
    stats::StatGroup root("root");
    stats::Counter &packets = root.makeCounter("packets", "");
    packets += 10;

    stats::Snapshotter snapper(root);
    snapper.capture(100);

    root.resetAll();
    packets += 3;
    const stats::Snapshot snap = snapper.capture(200);

    // Not -7: the delta is the accumulation since the reset.
    const stats::SnapshotEntry *p = findEntry(snap, "root.packets");
    EXPECT_DOUBLE_EQ(p->value, 3.0);
    EXPECT_DOUBLE_EQ(p->delta, 3.0);
}

TEST(Snapshotter, HistogramSamplesDeltaAndEmptyPercentiles)
{
    stats::StatGroup root("root");
    stats::Histogram &lat =
        root.makeHistogram("latency", "", 0.0, 100.0, 10);

    stats::Snapshotter snapper(root);
    const stats::Snapshot empty = snapper.capture(10);
    const stats::SnapshotEntry *e = findEntry(empty, "root.latency");
    ASSERT_NE(e, nullptr);
    EXPECT_TRUE(e->isHistogram);
    EXPECT_EQ(e->samples, 0u);
    EXPECT_EQ(e->deltaSamples, 0u);
    // The documented no-sample contract: percentiles report 0, not
    // NaN or garbage — an empty interval must serialize cleanly.
    EXPECT_DOUBLE_EQ(e->p50, 0.0);
    EXPECT_DOUBLE_EQ(e->p90, 0.0);
    EXPECT_DOUBLE_EQ(e->p99, 0.0);

    lat.sample(10.0);
    lat.sample(20.0);
    lat.sample(30.0);
    const stats::Snapshot filled = snapper.capture(20);
    e = findEntry(filled, "root.latency");
    EXPECT_EQ(e->samples, 3u);
    EXPECT_EQ(e->deltaSamples, 3u);
    EXPECT_GT(e->p50, 0.0);

    // Reset rule on the monotonic sample count.
    lat.reset();
    lat.sample(50.0);
    const stats::Snapshot reset = snapper.capture(30);
    e = findEntry(reset, "root.latency");
    EXPECT_EQ(e->samples, 1u);
    EXPECT_EQ(e->deltaSamples, 1u);
}

TEST(Snapshotter, StatFirstSeenMidRunGetsFirstCaptureSemantics)
{
    stats::StatGroup root("root");
    root.makeCounter("packets", "");

    stats::Snapshotter snapper(root);
    snapper.capture(10);

    // A lazily created child group appears between captures.
    stats::StatGroup &late = root.child("late");
    stats::Counter &events = late.makeCounter("events", "");
    events += 4;
    const stats::Snapshot snap = snapper.capture(20);

    const stats::SnapshotEntry *e =
        findEntry(snap, "root.late.events");
    ASSERT_NE(e, nullptr);
    EXPECT_DOUBLE_EQ(e->delta, 4.0);
}

TEST(Snapshotter, JsonLineRoundTripsThroughParser)
{
    stats::StatGroup root("root");
    stats::Counter &packets = root.makeCounter("packets", "");
    stats::Histogram &lat =
        root.makeHistogram("latency", "", 0.0, 100.0, 10);
    packets += 42;
    lat.sample(25.0);

    stats::Snapshotter snapper(root);
    stats::Snapshot snap = snapper.capture(1000, 0.5);
    const std::string line =
        stats::snapshotToJsonLine(snap, 3, 77);
    EXPECT_EQ(line.find('\n'), std::string::npos);

    const auto doc = json::Value::parse(line);
    ASSERT_TRUE(doc.has_value());
    EXPECT_EQ(doc->find("schema")->str, "hypersio-soak-1");
    EXPECT_DOUBLE_EQ(doc->find("shard")->number, 3.0);
    EXPECT_DOUBLE_EQ(doc->find("seed")->number, 77.0);
    EXPECT_DOUBLE_EQ(doc->find("interval")->number, 0.0);
    EXPECT_DOUBLE_EQ(doc->find("sim_ticks")->number, 1000.0);

    const json::Value *statsArr = doc->find("stats");
    ASSERT_NE(statsArr, nullptr);
    ASSERT_TRUE(statsArr->isArray());
    ASSERT_EQ(statsArr->array.size(), 2u);
    const json::Value &p = statsArr->array[0];
    EXPECT_EQ(p.find("path")->str, "root.packets");
    EXPECT_EQ(p.find("kind")->str, "counter");
    EXPECT_DOUBLE_EQ(p.find("value")->number, 42.0);
    EXPECT_DOUBLE_EQ(p.find("delta")->number, 42.0);
    const json::Value &h = statsArr->array[1];
    EXPECT_EQ(h.find("kind")->str, "histogram");
    EXPECT_DOUBLE_EQ(h.find("samples")->number, 1.0);
    EXPECT_DOUBLE_EQ(h.find("delta_samples")->number, 1.0);

    // Wall block present by default...
    const json::Value *wall = doc->find("wall");
    ASSERT_NE(wall, nullptr);
    EXPECT_DOUBLE_EQ(wall->find("seconds")->number, 0.5);

    // ...and the byte-identity form omits it entirely.
    const std::string bare =
        stats::snapshotToJsonLine(snap, 3, 77,
                                  /*include_wall=*/false);
    const auto bare_doc = json::Value::parse(bare);
    ASSERT_TRUE(bare_doc.has_value());
    EXPECT_EQ(bare_doc->find("wall"), nullptr);

    // RSS fields appear only when sampled.
    stats::Snapshotter::sampleProcessRss(snap);
    if (snap.rssKnown) {
        const auto rich = json::Value::parse(
            stats::snapshotToJsonLine(snap, 3, 77));
        ASSERT_TRUE(rich.has_value());
        const json::Value *w = rich->find("wall");
        ASSERT_NE(w, nullptr);
        ASSERT_NE(w->find("vm_rss_kib"), nullptr);
        EXPECT_GT(w->find("vm_rss_kib")->number, 0.0);
        ASSERT_NE(w->find("vm_hwm_kib"), nullptr);
        EXPECT_GE(w->find("vm_hwm_kib")->number,
                  w->find("vm_rss_kib")->number);
    }
}

// ---------------------------------------------------------------
// SoakStream: churn + adversarial episodes on one System
// ---------------------------------------------------------------

workload::SoakConfig
smallSoak()
{
    workload::SoakConfig cfg;
    cfg.churn.population = 60;
    cfg.churn.slots = 6;
    cfg.churn.seed = 7;
    cfg.churn.minBudget = 24;
    cfg.churn.maxBudget = 64;
    cfg.churn.tailMin = 200;
    cfg.churn.tailMax = 300;
    cfg.stormPeriod = 300;
    cfg.stormPackets = 50;
    cfg.stormTenants = 3;
    return cfg;
}

TEST(SoakStream, RetiresChurnPopulationAndEveryEpisodeTenant)
{
    const workload::SoakConfig cfg = smallSoak();
    core::System system(core::SystemConfig::hypertrio());
    workload::SoakStream soak(cfg);
    const core::RunResults results = system.runStream(soak);

    EXPECT_GT(results.packetsProcessed, 0u);
    // The config is sized so storms actually fire; a soak test that
    // never leaves the churn regime tests nothing.
    EXPECT_GE(soak.episodes(), 2u);
    const uint64_t expected =
        cfg.churn.population + soak.episodes() * cfg.stormTenants;
    EXPECT_EQ(soak.attaches(), expected);
    EXPECT_EQ(system.streamRetirements().size(), expected);
    EXPECT_EQ(system.tables().size(), 0u);
    ASSERT_NE(system.historyReader(), nullptr);
    EXPECT_EQ(system.historyReader()->historySize(), 0u);
}

TEST(SoakStream, StormPeriodZeroDegeneratesToPlainChurn)
{
    workload::SoakConfig cfg = smallSoak();
    cfg.stormPeriod = 0;

    core::System system(core::SystemConfig::hypertrio());
    workload::SoakStream soak(cfg);
    system.runStream(soak);

    EXPECT_EQ(soak.episodes(), 0u);
    EXPECT_EQ(soak.attaches(), cfg.churn.population);
    EXPECT_EQ(system.streamRetirements().size(),
              cfg.churn.population);
    EXPECT_EQ(system.tables().size(), 0u);
}

// ---------------------------------------------------------------
// Non-perturbation and determinism of snapshot capture
// ---------------------------------------------------------------

/** Runs smallSoak() on one System, optionally snapshotting. */
core::RunResults
runSoak(core::System &system, std::vector<std::string> *lines,
        uint64_t every = 500)
{
    workload::SoakStream soak(smallSoak());
    core::StreamRunOptions opts;
    if (lines) {
        auto snapper = std::make_shared<stats::Snapshotter>(
            system.statsRoot());
        opts.snapshotEveryPackets = every;
        opts.onSnapshot = [snapper, lines](
                              const core::System &sys, uint64_t) {
            const stats::Snapshot snap = snapper->capture(
                sys.eventQueue().now());
            lines->push_back(stats::snapshotToJsonLine(
                snap, 0, 7, /*include_wall=*/false));
        };
    }
    return system.runStream(soak, opts);
}

TEST(SoakSnapshots, CaptureDoesNotPerturbSimulatedResults)
{
    core::System with(core::SystemConfig::hypertrio());
    std::vector<std::string> lines;
    const core::RunResults snapshotted = runSoak(with, &lines);

    core::System without(core::SystemConfig::hypertrio());
    const core::RunResults plain = runSoak(without, nullptr);

    ASSERT_GE(lines.size(), 3u);
    // Bit-identical RunResults and an identical stats tree: the
    // observation layer is pure.
    EXPECT_TRUE(snapshotted == plain);
    EXPECT_EQ(stats::toJsonString(with.statsRoot()),
              stats::toJsonString(without.statsRoot()));
}

TEST(SoakSnapshots, SameSeedRunsEmitByteIdenticalStreams)
{
    core::System a(core::SystemConfig::hypertrio());
    std::vector<std::string> lines_a;
    runSoak(a, &lines_a);

    core::System b(core::SystemConfig::hypertrio());
    std::vector<std::string> lines_b;
    runSoak(b, &lines_b);

    ASSERT_GE(lines_a.size(), 3u);
    EXPECT_EQ(lines_a, lines_b);
}

/** Sharded soak with per-shard snapshot capture via OptionsFactory. */
core::ShardedRunResults
runShardedSoak(unsigned shards, unsigned jobs,
               std::vector<std::vector<std::string>> &lines)
{
    lines.assign(shards, {});
    core::ShardedMultiSystem sharded(
        core::SystemConfig::hypertrio(), shards, jobs);
    auto make_stream = [](unsigned shard) {
        workload::SoakConfig cfg = smallSoak();
        cfg.churn.seed = hashCombine(21, shard);
        return std::make_unique<workload::SoakStream>(cfg);
    };
    auto make_options = [&lines](unsigned shard) {
        core::StreamRunOptions opts;
        opts.snapshotEveryPackets = 500;
        auto snapper = std::make_shared<
            std::unique_ptr<stats::Snapshotter>>();
        opts.onSnapshot = [&lines, shard, snapper](
                              const core::System &sys, uint64_t) {
            if (!*snapper) {
                *snapper = std::make_unique<stats::Snapshotter>(
                    sys.statsRoot());
            }
            const stats::Snapshot snap = (*snapper)->capture(
                sys.eventQueue().now());
            lines[shard].push_back(stats::snapshotToJsonLine(
                snap, shard, 21, /*include_wall=*/false));
        };
        return opts;
    };
    return sharded.run(make_stream, make_options);
}

TEST(SoakSnapshots, ShardedRunIsJobsCountInvariant)
{
    std::vector<std::vector<std::string>> serial_lines;
    const core::ShardedRunResults serial =
        runShardedSoak(3, 1, serial_lines);

    std::vector<std::vector<std::string>> pooled_lines;
    const core::ShardedRunResults pooled =
        runShardedSoak(3, 3, pooled_lines);

    // Every deterministic scalar — counts, the merged retirement
    // timeline, its checksum, per-shard RunResults — and every
    // per-shard snapshot line agree for any worker count.
    EXPECT_TRUE(serial == pooled);
    ASSERT_EQ(serial_lines.size(), pooled_lines.size());
    for (size_t s = 0; s < serial_lines.size(); ++s) {
        EXPECT_GE(serial_lines[s].size(), 1u) << "shard " << s;
        EXPECT_EQ(serial_lines[s], pooled_lines[s])
            << "shard " << s;
    }
}

// ---------------------------------------------------------------
// Fail-fast repro context
// ---------------------------------------------------------------

TEST(SoakFaultInjection, PlantedFaultAbortsWithReproLine)
{
    // The soak fail-fast contract end to end: a planted DevTLB PTag
    // corruption must be caught by the auto-installed fail-fast
    // oracle, and the abort must carry the single-line repro context
    // the harness installs (seed + shard + interval) so a long-haul
    // failure is immediately re-runnable.
    EXPECT_DEATH(
        {
            oracle::FaultInjectionScope scope;
            oracle::faultInjection().devtlbPtagOffByOne = true;
            core::System system(core::SystemConfig::hypertrio());
            workload::SoakStream soak(smallSoak());
            core::StreamRunOptions opts;
            opts.onRunStart = [](const core::System &) {
                PanicContext::set(
                    "HYPERSIO_SOAK_REPRO: seed=7 shard=0 "
                    "interval=0");
            };
            system.runStream(soak, opts);
        },
        "HYPERSIO_SOAK_REPRO: seed=7 shard=0 interval=0");
}

} // namespace
} // namespace hypersio
