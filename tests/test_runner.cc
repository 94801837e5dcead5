/** Tests for the experiment runner utilities: bench option parsing
 *  and result-table formatting. */

#include <gtest/gtest.h>

#include <sstream>

#include "core/runner.hh"

namespace hypersio::core
{
namespace
{

BenchOptions
parseArgs(std::vector<std::string> args)
{
    std::vector<char *> argv;
    static std::string prog = "bench";
    argv.push_back(prog.data());
    for (auto &arg : args)
        argv.push_back(arg.data());
    return BenchOptions::parse(static_cast<int>(argv.size()),
                               argv.data());
}

TEST(BenchOptionsTest, Defaults)
{
    const BenchOptions opts = parseArgs({});
    EXPECT_DOUBLE_EQ(opts.scale, 0.05);
    EXPECT_EQ(opts.maxTenants, 1024u);
    EXPECT_EQ(opts.seed, 42u);
    EXPECT_FALSE(opts.verbose);
}

TEST(BenchOptionsTest, QuickAndFullPresets)
{
    const BenchOptions quick = parseArgs({"--quick"});
    EXPECT_DOUBLE_EQ(quick.scale, 0.05);
    EXPECT_EQ(quick.maxTenants, 256u);

    const BenchOptions full = parseArgs({"--full"});
    EXPECT_DOUBLE_EQ(full.scale, 1.0);
    EXPECT_EQ(full.maxTenants, 1024u);
}

TEST(BenchOptionsTest, ExplicitValues)
{
    const BenchOptions opts = parseArgs(
        {"--scale", "0.2", "--tenants", "128", "--seed", "7",
         "--verbose"});
    EXPECT_DOUBLE_EQ(opts.scale, 0.2);
    EXPECT_EQ(opts.maxTenants, 128u);
    EXPECT_EQ(opts.seed, 7u);
    EXPECT_TRUE(opts.verbose);
}

TEST(BenchOptionsTest, JobsFlag)
{
    // Default: one worker per hardware thread, never zero.
    EXPECT_EQ(parseArgs({}).jobs, defaultBenchJobs());
    EXPECT_GE(parseArgs({}).jobs, 1u);

    EXPECT_EQ(parseArgs({"--jobs", "4"}).jobs, 4u);
    EXPECT_EQ(parseArgs({"-j", "2"}).jobs, 2u);
}

TEST(BenchOptionsDeathTest, JobsRejectsZeroAndGarbage)
{
    EXPECT_EXIT(parseArgs({"--jobs", "0"}),
                ::testing::ExitedWithCode(1), "positive integer");
    EXPECT_EXIT(parseArgs({"-j", "many"}),
                ::testing::ExitedWithCode(1), "positive integer");
}

TEST(BenchOptionsDeathTest, HostileWorkloadSizes)
{
    // NaN and infinity parse as doubles; 2^32 + 1 parses as a u64
    // and would narrow to 1 tenant.
    for (const char *scale : {"nan", "inf", "-inf", "0", "-0.5"}) {
        EXPECT_EXIT(parseArgs({"--scale", scale}),
                    ::testing::ExitedWithCode(1),
                    "--scale needs a finite positive number")
            << scale;
    }
    EXPECT_EXIT(parseArgs({"--tenants", "4294967297"}),
                ::testing::ExitedWithCode(1),
                "--tenants value 4294967297 does not fit");
    EXPECT_EXIT(parseArgs({"--jobs", "4294967297"}),
                ::testing::ExitedWithCode(1), "positive integer");
}

TEST(BenchOptionsDeathTest, UnknownFlagPrintsUsageToStderr)
{
    // A typo'd flag must exit 1 and put the full usage text on
    // stderr (stdout may be piped into a report).
    EXPECT_EXIT(parseArgs({"--tenant", "8"}),
                ::testing::ExitedWithCode(1),
                "options:(.|\n)*--tenants <n>(.|\n)*"
                "unknown option '--tenant'");
    EXPECT_EXIT(parseArgs({"-x"}), ::testing::ExitedWithCode(1),
                "unknown option '-x' \\(try --help\\)");
}

TEST(BenchOptionsDeathTest, MissingValuesNameTheFlagGiven)
{
    EXPECT_EXIT(parseArgs({"--seed"}),
                ::testing::ExitedWithCode(1),
                "--seed needs a value");
    // The alias reports itself, not its canonical spelling.
    EXPECT_EXIT(parseArgs({"--stats-json"}),
                ::testing::ExitedWithCode(1),
                "--stats-json needs a value");
}

TEST(BenchOptionsTest, StatsJsonAliasSetsJsonPath)
{
    EXPECT_EQ(parseArgs({"--stats-json", "out.json"}).jsonPath,
              "out.json");
    EXPECT_EQ(parseArgs({"--json", "r.json"}).jsonPath, "r.json");
}

TEST(PrintBandwidthTable, FormatsRowsAndColumns)
{
    std::ostringstream os;
    printBandwidthTable(os, "test table", {4, 8},
                        {{"a", {1.5, 2.5}}, {"b", {3.25}}});
    const std::string text = os.str();
    EXPECT_NE(text.find("test table"), std::string::npos);
    EXPECT_NE(text.find("tenants"), std::string::npos);
    EXPECT_NE(text.find("1.5"), std::string::npos);
    EXPECT_NE(text.find("3.2"), std::string::npos);
    // Missing second value of series "b" renders as "-".
    EXPECT_NE(text.find("-"), std::string::npos);
}

TEST(ExperimentRunnerTest, BypassPointRunsNative)
{
    ExperimentRunner runner(0.02, 42);
    ExperimentPoint point;
    point.label = "native";
    point.config = SystemConfig::base();
    point.config.link.gbps = 10.0;
    point.bench = workload::Benchmark::Iperf3;
    point.tenants = 4;
    point.interleave = trace::parseInterleaving("RR1");
    point.bypassTranslation = true;
    const ExperimentRow row = runner.run(point);
    EXPECT_NEAR(row.results.utilization, 1.0, 1e-9);
    EXPECT_EQ(row.results.packetsDropped, 0u);
}

TEST(ExperimentRunnerTest, RunAllPreservesOrderAndProgress)
{
    ExperimentRunner runner(0.02, 42);
    std::vector<ExperimentPoint> points(2);
    points[0].label = "first";
    points[0].config = SystemConfig::base();
    points[0].tenants = 4;
    points[0].interleave = trace::parseInterleaving("RR1");
    points[1].label = "second";
    points[1].config = SystemConfig::hypertrio();
    points[1].tenants = 4;
    points[1].interleave = trace::parseInterleaving("RR1");

    std::ostringstream progress;
    const auto rows = runner.runAll(points, &progress);
    ASSERT_EQ(rows.size(), 2u);
    EXPECT_EQ(rows[0].point.label, "first");
    EXPECT_EQ(rows[1].point.label, "second");
    EXPECT_NE(progress.str().find("first"), std::string::npos);
    EXPECT_NE(progress.str().find("second"), std::string::npos);
    // HyperTRIO beats Base on the same trace.
    EXPECT_GE(rows[1].results.achievedGbps,
              rows[0].results.achievedGbps);
}

} // namespace
} // namespace hypersio::core
