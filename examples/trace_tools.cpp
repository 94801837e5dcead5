/**
 * @file
 * Trace toolbox: generate per-tenant logs, construct hyper-traces,
 * inspect them, and run them — the HyperSIO workflow as a CLI.
 *
 * Subcommands:
 *   generate   <out.trace> [--bench B] [--tenants N] [--scale F]
 *              [--interleave RR1|RR4|RAND1] [--seed S]
 *   info       <in.trace>
 *   dump       <in.trace> [--packets N]
 *   run        <in.trace> [--config base|hypertrio]
 *   export-log <out.txt>  [--bench B] [--scale F] [--seed S]
 *              write one tenant's log in the textual format
 *   import-log <in.txt>   [--tenants N] [--interleave IL]
 *              [--out <out.trace>] replicate a textual log across
 *              N tenants and construct a hyper-trace from it
 */

#include <cstdio>
#include <cstring>
#include <iostream>
#include <string>

#include "hypersio/hypersio.hh"

using namespace hypersio;

namespace
{

struct Args
{
    std::string command;
    std::string path;
    std::string bench = "iperf3";
    std::string interleave = "RR1";
    std::string config = "hypertrio";
    unsigned tenants = 64;
    double scale = 0.05;
    uint64_t seed = 42;
    uint64_t packets = 20;
    std::string out = "out.trace";
};

constexpr const char *UsageText =
    "usage: trace_tools <command> <file> [options]\n"
    "  generate <out> [--bench iperf3|mediastream|websearch]\n"
    "                 [--tenants N] [--scale F]\n"
    "                 [--interleave RR1|RR4|RAND1] [--seed S]\n"
    "  info <in>      summary of a saved hyper-trace\n"
    "  dump <in>      [--packets N] text dump\n"
    "  run  <in>      [--config base|hypertrio]\n"
    "  export-log <out.txt> [--bench B] [--scale F]\n"
    "  import-log <in.txt> [--tenants N] [--interleave IL]\n"
    "             [--out <out.trace>]";

/** Usage to stderr, so it never mixes into piped output, then dies. */
[[noreturn]] void
reject(const std::string &why)
{
    std::fputs(UsageText, stderr);
    std::fputc('\n', stderr);
    fatal("%s (try --help)", why.c_str());
}

/** Reads argv through core::ArgReader, which checks every number. */
Args
parse(int argc, char **argv)
{
    Args args;
    for (core::ArgReader reader(argc, argv); reader.next();) {
        const std::string &flag = reader.flag();
        if (flag == "--bench") {
            args.bench = reader.value();
        } else if (flag == "--tenants") {
            // Tenants are SIDs: import-log numbers them densely.
            args.tenants =
                static_cast<unsigned>(reader.positive(trace::SidSpace));
        } else if (flag == "--scale") {
            args.scale = reader.real();
        } else if (flag == "--interleave") {
            args.interleave = reader.value();
        } else if (flag == "--seed") {
            args.seed = reader.u64();
        } else if (flag == "--packets") {
            args.packets = reader.u64();
        } else if (flag == "--config") {
            args.config = reader.value();
        } else if (flag == "--out") {
            args.out = reader.value();
        } else if (flag == "--help" || flag == "-h") {
            std::puts(UsageText);
            std::exit(0);
        } else if (flag.starts_with('-')) {
            reject("unknown option '" + flag + "'");
        } else if (args.command.empty()) {
            args.command = flag;
        } else if (args.path.empty()) {
            args.path = flag;
        } else {
            reject("unexpected argument '" + flag + "'");
        }
    }
    if (args.path.empty())
        reject("need a command and a file");
    return args;
}

} // namespace

int
main(int argc, char **argv)
{
    const Args args = parse(argc, argv);

    if (args.command == "generate") {
        auto logs = workload::generateLogs(
            workload::parseBenchmark(args.bench), args.tenants,
            args.seed, args.scale);
        auto tr = trace::constructTrace(
            logs, trace::parseInterleaving(args.interleave));
        tr.seed = args.seed;
        trace::saveTrace(tr, args.path);
        std::printf("wrote %s: %u tenants, %zu packets, %llu "
                    "translations\n",
                    args.path.c_str(), tr.numTenants,
                    tr.packets.size(),
                    (unsigned long long)tr.translations());
        return 0;
    }

    if (args.command == "export-log") {
        const auto profile = workload::benchmarkProfile(
            workload::parseBenchmark(args.bench));
        const auto packets = static_cast<uint64_t>(
            (profile.minTranslations / 3) * args.scale);
        workload::TenantPattern pattern = profile.pattern;
        workload::scaleInitPhase(pattern,
                                 std::max<uint64_t>(packets, 64));
        const trace::TenantLog log =
            workload::TenantStream(pattern, args.seed, 0,
                                   std::max<uint64_t>(packets, 64))
                .drain();
        workload::saveTextLog(log, args.path);
        std::printf("wrote %s: %zu packets, %zu ops\n",
                    args.path.c_str(), log.packets.size(),
                    log.ops.size());
        return 0;
    }

    if (args.command == "import-log") {
        const trace::TenantLog base =
            workload::loadTextLog(args.path);
        // Replicate the log across N tenants (dense SIDs), exactly
        // what the paper's constructor does when fewer collector
        // runs exist than modeled tenants.
        std::vector<trace::TenantLog> logs;
        logs.reserve(args.tenants);
        for (unsigned t = 0; t < args.tenants; ++t) {
            trace::TenantLog copy = base;
            // --tenants is at most SidSpace, so t fits a record.
            copy.sid = t;
            for (auto &pkt : copy.packets)
                pkt.sid = static_cast<uint16_t>(t);
            logs.push_back(std::move(copy));
        }
        auto tr = trace::constructTrace(
            logs, trace::parseInterleaving(args.interleave));
        tr.seed = args.seed;
        trace::saveTrace(tr, args.out);
        std::printf("wrote %s: %u tenants, %zu packets\n",
                    args.out.c_str(), tr.numTenants,
                    tr.packets.size());
        return 0;
    }

    const trace::HyperTrace tr = trace::loadTrace(args.path);

    if (args.command == "info") {
        std::printf("tenants:       %u\n", tr.numTenants);
        std::printf("packets:       %zu\n", tr.packets.size());
        std::printf("translations:  %llu\n",
                    (unsigned long long)tr.translations());
        std::printf("page ops:      %zu\n", tr.ops.size());
        const auto counts = tr.perTenantPackets();
        uint64_t min_c = UINT64_MAX;
        uint64_t max_c = 0;
        for (uint64_t c : counts) {
            min_c = std::min(min_c, c);
            max_c = std::max(max_c, c);
        }
        std::printf("packets/tenant: %llu .. %llu\n",
                    (unsigned long long)min_c,
                    (unsigned long long)max_c);
        return 0;
    }

    if (args.command == "dump") {
        trace::dumpTraceText(tr, std::cout, args.packets);
        return 0;
    }

    if (args.command == "run") {
        const core::SystemConfig config =
            args.config == "base" ? core::SystemConfig::base()
                                  : core::SystemConfig::hypertrio();
        core::System system(config);
        const core::RunResults r = system.run(tr);
        std::printf("%s: %.1f Gb/s (%.1f%%), %llu drops, devtlb "
                    "%.1f%%, pb %.1f%%\n",
                    config.name.c_str(), r.achievedGbps,
                    r.utilization * 100.0,
                    (unsigned long long)r.packetsDropped,
                    r.devtlbHitRate * 100.0, r.pbHitRate * 100.0);
        return 0;
    }

    reject("unknown command '" + args.command + "'");
}
