/**
 * @file
 * Command-line simulator driver: the open-source-release entry
 * point. Builds or loads a hyper-trace, applies configuration
 * overrides, runs the performance model, and prints results and
 * (optionally) the full statistics tree.
 *
 * Usage:
 *   hypersio_sim [--preset base|hypertrio]
 *                [--config <file>] [--set key=value ...]
 *                (--trace <file.trace> |
 *                 --bench <name> --tenants <n> [--scale <f>]
 *                 [--interleave RR1|RR4|RAND1])
 *                [--seed <n>] [--native] [--stats]
 */

#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <limits>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "core/overrides.hh"
#include "hypersio/hypersio.hh"
#include "util/debug.hh"
#include "util/json.hh"
#include "util/logging.hh"
#include "util/str.hh"

using namespace hypersio;

namespace
{

struct Options
{
    std::string preset = "hypertrio";
    std::optional<std::string> configFile;
    std::vector<std::string> overrides;
    std::optional<std::string> tracePath;
    std::string bench = "iperf3";
    unsigned tenants = 64;
    double scale = 0.05;
    std::string interleave = "RR1";
    uint64_t seed = 42;
    bool native = false;
    bool stats = false;
    std::string jsonPath;
};

[[noreturn]] void
usage()
{
    std::puts(
        "hypersio_sim — HyperSIO trace-driven performance model\n"
        "\n"
        "  --preset base|hypertrio   Table IV starting point "
        "(default hypertrio)\n"
        "  --config <file>           key=value config file\n"
        "  --set key=value           single override (repeatable)\n"
        "  --keys                    list supported override keys\n"
        "  --trace <file>            run a saved hyper-trace\n"
        "  --bench <name>            synthesize iperf3|mediastream|"
        "websearch\n"
        "  --tenants <n>             tenant count for --bench\n"
        "  --scale <f>               trace scale for --bench\n"
        "  --interleave <il>         RR1|RR4|RAND1 for --bench\n"
        "  --seed <n>                workload seed\n"
        "  --native                  bypass translation (Fig. 5 "
        "native mode)\n"
        "  --stats                   dump the full statistics tree\n"
        "  --json <file>             write config, results, and the "
        "full stat\n"
        "                            tree as JSON (alias: "
        "--stats-json)\n"
        "  --debug <flags>           comma-separated debug flags "
        "(or All)\n"
        "  --debug-list              list available debug flags");
    std::exit(1);
}

Options
parse(int argc, char **argv)
{
    Options opts;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto value = [&]() -> std::string {
            if (i + 1 >= argc)
                usage();
            return argv[++i];
        };
        if (arg == "--preset") {
            opts.preset = value();
        } else if (arg == "--config") {
            opts.configFile = value();
        } else if (arg == "--set") {
            opts.overrides.push_back(value());
        } else if (arg == "--keys") {
            for (const auto &key : core::supportedOverrideKeys())
                std::puts(key.c_str());
            std::exit(0);
        } else if (arg == "--trace") {
            opts.tracePath = value();
        } else if (arg == "--bench") {
            opts.bench = value();
        } else if (arg == "--tenants") {
            uint64_t n = 0;
            if (!parseU64(value(), n) || n == 0 ||
                n > std::numeric_limits<unsigned>::max())
                fatal("--tenants needs a positive 32-bit integer");
            opts.tenants = static_cast<unsigned>(n);
        } else if (arg == "--scale") {
            if (!parseDouble(value(), opts.scale) ||
                !std::isfinite(opts.scale) || opts.scale <= 0.0)
                fatal("--scale needs a finite positive number");
        } else if (arg == "--interleave") {
            opts.interleave = value();
        } else if (arg == "--seed") {
            if (!parseU64(value(), opts.seed))
                fatal("--seed needs an unsigned integer");
        } else if (arg == "--debug") {
            debug::enable(value());
        } else if (arg == "--debug-list") {
            for (const auto &[name, desc] : debug::listFlags())
                std::printf("%-12s %s\n", name.c_str(),
                            desc.c_str());
            std::exit(0);
        } else if (arg == "--json" || arg == "--stats-json") {
            opts.jsonPath = value();
        } else if (arg == "--native") {
            opts.native = true;
        } else if (arg == "--stats") {
            opts.stats = true;
        } else {
            usage();
        }
    }
    return opts;
}

} // namespace

int
main(int argc, char **argv)
{
    const Options opts = parse(argc, argv);

    core::SystemConfig config =
        opts.preset == "base"        ? core::SystemConfig::base()
        : opts.preset == "hypertrio" ? core::SystemConfig::hypertrio()
                                     : (usage(), core::SystemConfig{});
    if (opts.configFile)
        core::loadConfigFile(config, *opts.configFile);
    core::applyOverrides(config, opts.overrides);
    config.seed = opts.seed;

    trace::HyperTrace tr;
    if (opts.tracePath) {
        tr = trace::loadTrace(*opts.tracePath);
    } else {
        auto logs = workload::generateLogs(
            workload::parseBenchmark(opts.bench), opts.tenants,
            opts.seed, opts.scale);
        tr = trace::constructTrace(
            logs, trace::parseInterleaving(opts.interleave));
    }

    std::printf("%s", config.describe().c_str());
    std::printf("trace: %u tenants, %zu packets, %llu "
                "translations\n\n",
                tr.numTenants, tr.packets.size(),
                (unsigned long long)tr.translations());

    const auto wall_start = std::chrono::steady_clock::now();
    core::System system(config);
    const core::RunResults r = system.run(tr, opts.native);
    const double wall_seconds =
        std::chrono::duration<double>(
            std::chrono::steady_clock::now() - wall_start)
            .count();

    std::printf("achieved bandwidth  %10.2f Gb/s (%.1f%% of link)\n",
                r.achievedGbps, r.utilization * 100.0);
    std::printf("packets processed   %10llu (%llu dropped "
                "arrivals)\n",
                (unsigned long long)r.packetsProcessed,
                (unsigned long long)r.packetsDropped);
    std::printf("simulated time      %10.2f us\n",
                ticksToNs(r.elapsed) / 1000.0);
    std::printf("avg packet latency  %10.1f ns\n",
                r.avgPacketLatencyNs);
    std::printf("DevTLB hit rate     %10.2f %%\n",
                r.devtlbHitRate * 100.0);
    std::printf("PB hit rate         %10.2f %%\n",
                r.pbHitRate * 100.0);
    std::printf("IOTLB hit rate      %10.2f %%\n",
                r.iotlbHitRate * 100.0);
    std::printf("page-table walks    %10llu\n",
                (unsigned long long)r.walks);

    if (opts.stats) {
        std::printf("\n");
        system.dumpStats(std::cout);
    }

    if (!opts.jsonPath.empty()) {
        std::ofstream out(opts.jsonPath, std::ios::trunc);
        if (!out) {
            std::fprintf(stderr, "cannot open '%s' for writing\n",
                         opts.jsonPath.c_str());
            return 1;
        }
        json::Writer w(out);
        w.beginObject();
        w.key("schema");
        w.value("hypersio-sim-1");
        w.key("config");
        w.beginObject();
        w.key("preset");
        w.value(opts.preset);
        w.key("name");
        w.value(config.name);
        w.key("benchmark");
        w.value(opts.tracePath ? "trace" : opts.bench);
        w.key("tenants");
        w.value(tr.numTenants);
        w.key("scale");
        w.value(opts.scale);
        w.key("interleave");
        w.value(opts.interleave);
        w.key("seed");
        w.value(opts.seed);
        w.key("native");
        w.value(opts.native);
        w.endObject();
        w.key("results");
        core::writeRunResultsJson(w, r);
        w.key("stats");
        std::ostringstream stats_os;
        system.dumpStatsJson(stats_os, 0);
        w.raw(stats_os.str());
        w.key("wall_seconds");
        w.value(wall_seconds);
        w.endObject();
        out << '\n';
        if (!out) {
            std::fprintf(stderr, "write error on '%s'\n",
                         opts.jsonPath.c_str());
            return 1;
        }
    }
    return 0;
}
