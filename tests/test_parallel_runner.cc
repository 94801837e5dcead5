/** Serial-vs-parallel equivalence tests for the ExperimentRunner
 *  worker pool, plus concurrency stress tests for the shared trace
 *  cache (per-key construction locks). */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <memory>
#include <set>
#include <sstream>
#include <thread>
#include <vector>

#include "core/multi_system.hh"
#include "core/runner.hh"
#include "util/debug.hh"
#include "util/logging.hh"
#include "workload/streaming.hh"

namespace hypersio::core
{
namespace
{

ExperimentPoint
makePoint(const std::string &label, SystemConfig config,
          workload::Benchmark bench, unsigned tenants,
          const std::string &il, bool bypass = false)
{
    ExperimentPoint point;
    point.label = label;
    point.config = std::move(config);
    point.bench = bench;
    point.tenants = tenants;
    point.interleave = trace::parseInterleaving(il);
    point.bypassTranslation = bypass;
    return point;
}

/**
 * A sweep mixing configurations, benchmarks, tenant counts, and
 * interleavings. The first three points deliberately share one
 * (iperf3, 4, RR1) trace so the equivalence run also covers cache
 * sharing under concurrency.
 */
std::vector<ExperimentPoint>
goldenPoints()
{
    std::vector<ExperimentPoint> points;
    points.push_back(makePoint("base-shared", SystemConfig::base(),
                               workload::Benchmark::Iperf3, 4,
                               "RR1"));
    points.push_back(makePoint("ht-shared", SystemConfig::hypertrio(),
                               workload::Benchmark::Iperf3, 4,
                               "RR1"));
    points.push_back(makePoint("native-shared", SystemConfig::base(),
                               workload::Benchmark::Iperf3, 4, "RR1",
                               /*bypass=*/true));
    points.push_back(makePoint("ht-media",
                               SystemConfig::hypertrio(),
                               workload::Benchmark::Mediastream, 8,
                               "RR4"));
    points.push_back(makePoint("base-web", SystemConfig::base(),
                               workload::Benchmark::Websearch, 16,
                               "RAND1"));
    SystemConfig partitioned = SystemConfig::base();
    partitioned.name = "partitioned";
    partitioned.device.devtlb.partitions = 8;
    points.push_back(makePoint("part-iperf", partitioned,
                               workload::Benchmark::Iperf3, 8,
                               "RR1"));
    return points;
}

TEST(ParallelRunnerTest, GoldenEquivalenceJobs1VsJobs4)
{
    const auto points = goldenPoints();

    ExperimentRunner serial(0.02, 42, /*jobs=*/1);
    ExperimentRunner parallel(0.02, 42, /*jobs=*/4);
    const auto serial_rows = serial.runAll(points);
    const auto parallel_rows = parallel.runAll(points);

    ASSERT_EQ(serial_rows.size(), points.size());
    ASSERT_EQ(parallel_rows.size(), points.size());
    for (size_t i = 0; i < points.size(); ++i) {
        // Row order follows input order in both modes.
        EXPECT_EQ(serial_rows[i].point.label, points[i].label);
        EXPECT_EQ(parallel_rows[i].point.label, points[i].label);
        // Bit-identical results per row (RunResults compares
        // doubles exactly).
        EXPECT_TRUE(serial_rows[i].results ==
                    parallel_rows[i].results)
            << "row " << i << " (" << points[i].label
            << "): serial " << serial_rows[i].results.achievedGbps
            << " Gb/s / " << serial_rows[i].results.elapsed
            << " ticks vs parallel "
            << parallel_rows[i].results.achievedGbps << " Gb/s / "
            << parallel_rows[i].results.elapsed << " ticks";
    }

    // Three points shared one (iperf3, 4, RR1) trace: only four
    // unique traces exist in either runner.
    EXPECT_EQ(serial.traceConstructions(), 4u);
    EXPECT_EQ(parallel.traceConstructions(), 4u);
}

TEST(ShardedMultiSystemTest, GoldenEquivalenceJobs1VsJobsN)
{
    // Same discipline as the runner equivalence above, applied to
    // the hyper-scale sharded runtime: the worker count must never
    // leak into results. Each shard is an independent deterministic
    // System, so jobs 1 / 2 / 4 must produce bit-identical counter
    // totals, the same merged retirement timeline (and checksum),
    // and byte-identical per-shard stats trees.
    const auto factory = [](unsigned shard) {
        workload::ChurnConfig cfg;
        cfg.population = 60 + shard * 15;
        cfg.slots = 6;
        cfg.seed = hashCombine(77, shard);
        cfg.minBudget = 16;
        cfg.maxBudget = 48;
        cfg.tailMin = 128;
        cfg.tailMax = 256;
        return std::make_unique<workload::ChurnStream>(cfg);
    };

    std::vector<ShardedRunResults> runs;
    std::vector<std::string> stats;
    for (const unsigned jobs : {1u, 2u, 4u}) {
        ShardedMultiSystem sharded(SystemConfig::hypertrio(),
                                   /*shards=*/4, jobs);
        runs.push_back(sharded.run(factory));
        std::ostringstream os;
        sharded.dumpStatsJson(os, 0);
        stats.push_back(os.str());
    }

    EXPECT_EQ(runs[0].tenantsRetired, 60u + 75u + 90u + 105u);
    for (size_t i = 1; i < runs.size(); ++i) {
        EXPECT_TRUE(runs[0] == runs[i]) << "jobs variant " << i;
        EXPECT_EQ(stats[0], stats[i]) << "jobs variant " << i;
    }
}

TEST(ParallelRunnerTest, MoreJobsThanPointsIsHarmless)
{
    const auto points = goldenPoints();
    ExperimentRunner serial(0.02, 42, 1);
    ExperimentRunner oversubscribed(0.02, 42, 64);
    const auto a = serial.runAll(points);
    const auto b = oversubscribed.runAll(points);
    ASSERT_EQ(a.size(), b.size());
    for (size_t i = 0; i < a.size(); ++i)
        EXPECT_TRUE(a[i].results == b[i].results) << "row " << i;
}

TEST(ParallelRunnerTest, ProgressLinesAreCoherentAndComplete)
{
    const auto points = goldenPoints();
    ExperimentRunner runner(0.02, 42, 4);
    std::ostringstream progress;
    runner.runAll(points, &progress);

    std::istringstream in(progress.str());
    std::string line;
    std::multiset<std::string> labels;
    size_t lines = 0;
    while (std::getline(in, line)) {
        ++lines;
        // Every line is one whole "  running <label> (...)..." unit.
        EXPECT_EQ(line.rfind("  running ", 0), 0u) << line;
        EXPECT_NE(line.find("tenants"), std::string::npos) << line;
        const size_t start = std::string("  running ").size();
        labels.insert(line.substr(start,
                                  line.find(" (") - start));
    }
    EXPECT_EQ(lines, points.size());
    std::multiset<std::string> expected;
    for (const auto &point : points)
        expected.insert(point.label);
    EXPECT_EQ(labels, expected);
}

TEST(ParallelRunnerTest, SetJobsClampsZeroToSerial)
{
    ExperimentRunner runner(0.02, 42, 4);
    runner.setJobs(0);
    EXPECT_EQ(runner.jobs(), 1u);
    runner.setJobs(8);
    EXPECT_EQ(runner.jobs(), 8u);
    EXPECT_GE(defaultBenchJobs(), 1u);
}

TEST(TraceCacheStressTest, OverlappingGetTraceConstructsEachOnce)
{
    ExperimentRunner runner(0.02, 42);

    struct Key
    {
        workload::Benchmark bench;
        unsigned tenants;
        const char *il;
    };
    const std::vector<Key> keys = {
        {workload::Benchmark::Iperf3, 4, "RR1"},
        {workload::Benchmark::Iperf3, 8, "RR1"},
        {workload::Benchmark::Websearch, 4, "RR4"},
    };

    constexpr unsigned kThreads = 8;
    constexpr unsigned kIters = 16;
    // One pointer slot per (thread, iteration, key): every observed
    // reference is compared against the canonical one afterwards.
    std::vector<const trace::HyperTrace *> seen(
        kThreads * kIters * keys.size(), nullptr);
    std::atomic<unsigned> ready{0};
    std::atomic<bool> go{false};

    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (unsigned tid = 0; tid < kThreads; ++tid) {
        threads.emplace_back([&, tid]() {
            ready.fetch_add(1);
            while (!go.load()) // spin: maximise overlap
                std::this_thread::yield();
            for (unsigned it = 0; it < kIters; ++it) {
                for (size_t k = 0; k < keys.size(); ++k) {
                    // Stagger key order per thread so different
                    // threads hit different keys simultaneously.
                    const size_t pick =
                        (k + tid + it) % keys.size();
                    const Key &key = keys[pick];
                    const auto &trace = runner.getTrace(
                        key.bench, key.tenants,
                        trace::parseInterleaving(key.il));
                    seen[(tid * kIters + it) * keys.size() + pick] =
                        &trace;
                }
            }
        });
    }
    while (ready.load() != kThreads)
        std::this_thread::yield();
    go.store(true);
    for (auto &thread : threads)
        thread.join();

    // Each unique key was constructed exactly once...
    EXPECT_EQ(runner.traceConstructions(), keys.size());

    // ...and every returned reference is the canonical, valid trace.
    for (size_t k = 0; k < keys.size(); ++k) {
        const trace::HyperTrace &canonical = runner.getTrace(
            keys[k].bench, keys[k].tenants,
            trace::parseInterleaving(keys[k].il));
        EXPECT_FALSE(canonical.packets.empty());
        EXPECT_EQ(canonical.numTenants, keys[k].tenants);
        for (unsigned tid = 0; tid < kThreads; ++tid) {
            for (unsigned it = 0; it < kIters; ++it) {
                const trace::HyperTrace *got =
                    seen[(tid * kIters + it) * keys.size() + k];
                ASSERT_NE(got, nullptr);
                EXPECT_EQ(got, &canonical)
                    << "thread " << tid << " iteration " << it
                    << " key " << k;
            }
        }
    }
    // The post-join lookups hit the cache; nothing was rebuilt.
    EXPECT_EQ(runner.traceConstructions(), keys.size());
}

TEST(ParallelLoggingTest, ConcurrentLogLinesNeverInterleave)
{
    // Many threads hammer the shared sink (warn + debug-flag trace
    // lines); every emitted line must come out whole. Run under
    // scripts/tsan.sh this also proves the sink itself is race-free.
    std::FILE *capture = std::tmpfile();
    ASSERT_NE(capture, nullptr);
    Logger::instance().setStream(capture);
    const LogLevel previous = Logger::instance().level();
    Logger::instance().setLevel(LogLevel::Warn);

    static debug::Flag test_flag("ParallelLogTest",
                                 "concurrency test flag");
    debug::enable("ParallelLogTest");

    constexpr unsigned kThreads = 8;
    constexpr unsigned kLines = 50;
    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (unsigned tid = 0; tid < kThreads; ++tid) {
        threads.emplace_back([tid]() {
            for (unsigned i = 0; i < kLines; ++i) {
                warn("thread-%u-line-%u-padpadpadpadpadpad", tid, i);
                debug::dprintf(test_flag, Tick(i),
                               "trace-%u-%u-padpadpadpadpadpad", tid,
                               i);
            }
        });
    }
    for (auto &thread : threads)
        thread.join();
    debug::disableAll();
    Logger::instance().setLevel(previous);
    Logger::instance().setStream(nullptr);

    std::fflush(capture);
    std::rewind(capture);
    std::string text;
    char buffer[4096];
    size_t n;
    while ((n = std::fread(buffer, 1, sizeof(buffer), capture)) > 0)
        text.append(buffer, n);
    std::fclose(capture);

    size_t warn_lines = 0;
    size_t trace_lines = 0;
    std::istringstream in(text);
    std::string line;
    while (std::getline(in, line)) {
        if (line.find("warn: thread-") != std::string::npos &&
            line.rfind("padpadpadpadpadpad") ==
                line.size() - 18) {
            ++warn_lines;
        } else if (line.find("ParallelLogTest: trace-") !=
                       std::string::npos &&
                   line.rfind("padpadpadpadpadpad") ==
                       line.size() - 18) {
            ++trace_lines;
        } else {
            ADD_FAILURE() << "interleaved/torn log line: " << line;
        }
    }
    EXPECT_EQ(warn_lines, kThreads * kLines);
    EXPECT_EQ(trace_lines, kThreads * kLines);
}

} // namespace
} // namespace hypersio::core
