/**
 * @file
 * Event-fusion microbenchmark: full-system translation storms whose
 * hit paths are dominated by deterministic fixed-latency hops, run
 * with the fused fast path (sim/event_queue.hh::tryFuseAdvance)
 * against the event-per-hop reference.
 *
 * Three storms, each a complete System::run over a synthetic trace:
 *
 *   hit_storm      line-rate arrivals, per-tenant working set of
 *                  three pages — after warmup every request class is
 *                  a DevTLB hit, so a packet's translation chain is
 *                  pure 2 ns hops (3 events -> 1 with fusion).
 *   chipset_storm  sparse arrivals (2 Gb/s) with a data working set
 *                  that thrashes the DevTLB but fits the IOTLB: the
 *                  full device->PCIe->IOMMU->PCIe->device round
 *                  trip is deterministic and fuses end to end.
 *   walk_storm     sparse arrivals, every data page cold: each data
 *                  translation walks through the memory model
 *                  (never fusible), bounding the win on walk-bound
 *                  workloads.
 *
 * The headline scalar `total_walkstorm_packets_per_sec` aggregates
 * all three storms (sum of packets over sum of wall time);
 * check_repo.sh gate 12 forms the cross-build ratio of that scalar
 * between a -DHYPERSIO_EVENT_FUSION=ON and an =OFF build, after
 * requiring every deterministic count scalar to match exactly.
 *
 * Usage:
 *   event_fusion_microbench [--packets N] [--tenants N] [--reps N]
 *       [--smoke] [--check-speedup X] [--json FILE]
 *
 * `--check-speedup X` additionally runs every storm with the
 * runtime knob off (SystemConfig::eventFusion = false) in the same
 * binary, asserts the two legs' RunResults and stat trees are
 * byte-identical, and fails unless the aggregate fused/per-hop
 * rate ratio reaches X. In a -DHYPERSIO_EVENT_FUSION=OFF build the
 * A/B would compare the reference against itself, so the check is
 * skipped with a notice.
 */

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "bench_common.hh"
#include "core/system.hh"
#include "json_report.hh"
#include "util/logging.hh"

namespace
{

using namespace hypersio;
using bench::wallSeconds;

struct Options
{
    uint64_t packets = 240000; ///< hit-storm packets (others scale)
    unsigned tenants = 8;
    unsigned reps = 3;
    double checkSpeedup = 0.0;
    std::string jsonPath;
    bool smoke = false;
};

[[noreturn]] void
usage(const char *argv0, int code)
{
    std::fprintf(
        code == 0 ? stdout : stderr,
        "usage: %s [--packets N] [--tenants N] [--reps N] [--smoke]\n"
        "          [--check-speedup X] [--json FILE]\n"
        "  --packets N        hit-storm packets (default 240000);\n"
        "                     chipset storm runs ~N/2, walk ~N/16\n"
        "  --tenants N        tenants per storm (default 8)\n"
        "  --reps N           timed repetitions, best wall counts\n"
        "  --smoke            small run for CI smoke\n"
        "  --check-speedup X  fail unless fused/per-hop >= X on the\n"
        "                     aggregate packet rate (in-binary A/B)\n"
        "  --json FILE        write a hypersio-bench-1 report\n",
        argv0);
    std::exit(code);
}

Options
parseArgs(int argc, char **argv)
{
    Options opts;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto value = [&]() -> const char * {
            if (i + 1 >= argc)
                usage(argv[0], 2);
            return argv[++i];
        };
        if (arg == "--packets") {
            opts.packets = std::strtoull(value(), nullptr, 0);
        } else if (arg == "--tenants") {
            opts.tenants = static_cast<unsigned>(
                std::strtoul(value(), nullptr, 0));
        } else if (arg == "--reps") {
            opts.reps = static_cast<unsigned>(
                std::strtoul(value(), nullptr, 0));
        } else if (arg == "--smoke") {
            opts.smoke = true;
        } else if (arg == "--check-speedup") {
            opts.checkSpeedup = std::strtod(value(), nullptr);
        } else if (arg == "--json") {
            opts.jsonPath = value();
        } else if (arg == "--help" || arg == "-h") {
            usage(argv[0], 0);
        } else {
            std::fprintf(stderr, "unknown flag '%s'\n", arg.c_str());
            usage(argv[0], 2);
        }
    }
    if (opts.smoke) {
        opts.packets = 4000;
        opts.reps = 1;
    }
    if (opts.packets < 100 || opts.tenants == 0 || opts.reps == 0)
        usage(argv[0], 2);
    return opts;
}

/**
 * Trace builder that attaches the map op for each page to the first
 * packet that touches it (the device applies a packet's ops at
 * accept, so the functional tables stay consistent).
 */
class StormTrace
{
  public:
    explicit StormTrace(unsigned tenants)
    {
        _trace.numTenants = tenants;
        _trace.seed = 42;
    }

    void
    addPacket(trace::SourceId sid, mem::Iova ring, mem::Iova data,
              bool data_huge, mem::Iova notify)
    {
        trace::PacketRecord pkt;
        pkt.sid = sid;
        pkt.ringIova = ring;
        pkt.dataIova = data;
        pkt.dataHuge = data_huge;
        pkt.notifyIova = notify;
        pkt.opBegin = static_cast<uint32_t>(_trace.ops.size());
        mapIfNew(sid, ring, mem::PageSize::Size4K);
        mapIfNew(sid, data,
                 data_huge ? mem::PageSize::Size2M
                           : mem::PageSize::Size4K);
        mapIfNew(sid, notify, mem::PageSize::Size4K);
        pkt.opCount = static_cast<uint16_t>(_trace.ops.size() -
                                            pkt.opBegin);
        _trace.packets.push_back(pkt);
    }

    trace::HyperTrace take() { return std::move(_trace); }

  private:
    void
    mapIfNew(trace::SourceId sid, mem::Iova iova, mem::PageSize size)
    {
        const mem::Addr base = mem::pageBase(iova, size);
        const uint64_t key = (uint64_t{sid} << 40) ^ base;
        if (!_mapped.insert(key).second)
            return;
        _trace.ops.push_back({base, size, /*isMap=*/true});
    }

    trace::HyperTrace _trace;
    std::set<uint64_t> _mapped;
};

/** Base system configuration shared by every storm. */
core::SystemConfig
stormConfig(const char *name)
{
    core::SystemConfig config = core::SystemConfig::base();
    config.name = name;
    // Deep PTB so the pipeline keeps multiple packets in flight
    // instead of measuring drop bookkeeping.
    config.device.ptbEntries = 32;
    return config;
}

/**
 * hit_storm: line-rate arrivals into a three-page per-tenant working
 * set. Every request class is a DevTLB hit after its first touch, so
 * the whole chain is 2 ns deterministic hops.
 */
trace::HyperTrace
makeHitStorm(unsigned tenants, uint64_t packets)
{
    StormTrace storm(tenants);
    for (uint64_t i = 0; i < packets; ++i) {
        const trace::SourceId sid =
            static_cast<trace::SourceId>(i % tenants);
        // Per-tenant pages spread across DevTLB sets (the device TLB
        // indexes raw iova bits, so same-iova tenants would conflict
        // — Section IV-D; this storm wants the opposite).
        storm.addPacket(sid, (0x100 + sid * 3) * 0x1000ULL,
                        0x40000000ULL + sid * 0x200000ULL,
                        /*data_huge=*/true,
                        (0x101 + sid * 3) * 0x1000ULL);
    }
    return storm.take();
}

/**
 * chipset_storm: sparse arrivals; the data stream cycles a working
 * set sized to thrash the 512-entry DevTLB while fitting easily in
 * the 32K-entry IOTLB, so the steady state is DevTLB miss + IOTLB
 * hit — the full fixed-latency chipset round trip.
 */
trace::HyperTrace
makeChipsetStorm(unsigned tenants, uint64_t packets)
{
    // Working sets sized to miss the 64-entry DevTLB essentially
    // always while fitting the 4096-entry IOTLB with room to spare
    // (8 tenants x 288 pages = 2304 entries): every request class
    // becomes a full deterministic chipset round trip.
    constexpr uint64_t DataPages = 192;
    constexpr uint64_t RingPages = 48;
    StormTrace storm(tenants);
    for (uint64_t i = 0; i < packets; ++i) {
        const trace::SourceId sid =
            static_cast<trace::SourceId>(i % tenants);
        const uint64_t turn = i / tenants;
        storm.addPacket(
            sid, 0x10000000ULL + (turn % RingPages) * 0x1000,
            0x80000000ULL + (turn % DataPages) * 0x1000,
            /*data_huge=*/false,
            0x20000000ULL + ((turn * 7) % RingPages) * 0x1000);
    }
    return storm.take();
}

/**
 * walk_storm: sparse arrivals, every data page fresh — each data
 * translation misses everything and walks through the memory model,
 * the canonical never-fusible path.
 */
trace::HyperTrace
makeWalkStorm(unsigned tenants, uint64_t packets)
{
    StormTrace storm(tenants);
    for (uint64_t i = 0; i < packets; ++i) {
        const trace::SourceId sid =
            static_cast<trace::SourceId>(i % tenants);
        storm.addPacket(sid, 0x10000,
                        0x100000000ULL + i * 0x1000,
                        /*data_huge=*/false, 0x20000);
    }
    return storm.take();
}

/** One measured leg of one storm. */
struct StormRun
{
    core::RunResults results;
    std::string statsBytes;
    uint64_t fusedHops = 0;
    uint64_t dispatched = 0;
    uint64_t scheduledSeq = 0;
    double wall = 0.0; ///< best-of-reps
};

/**
 * Runs `trace` under `config` `reps` times (fresh System each rep;
 * the model is single-shot) and keeps the best wall time. Results
 * must not drift across reps — the workload is deterministic.
 */
StormRun
runStorm(const core::SystemConfig &config,
         const trace::HyperTrace &trace, unsigned reps)
{
    StormRun run;
    for (unsigned rep = 0; rep < reps; ++rep) {
        core::System system(config);
        const auto t0 = std::chrono::steady_clock::now();
        core::RunResults results = system.run(trace);
        const double wall = wallSeconds(t0);
        std::ostringstream stats;
        system.dumpStats(stats);
        if (rep == 0) {
            run.results = results;
            run.statsBytes = stats.str();
            run.fusedHops = system.eventQueue().fusedHops();
            run.dispatched = system.eventQueue().executed();
            run.scheduledSeq = system.eventQueue().scheduledSeq();
            run.wall = wall;
        } else {
            HYPERSIO_ASSERT(results == run.results &&
                                stats.str() == run.statsBytes,
                            "storm results drifted across reps");
            if (wall < run.wall)
                run.wall = wall;
        }
    }
    return run;
}

struct StormSpec
{
    const char *name;
    trace::HyperTrace (*make)(unsigned, uint64_t);
    /** Link rate: line rate for the hit storm, sparse otherwise. */
    double gbps;
    /** Packet-count scale relative to --packets. */
    uint64_t num, den;
};

constexpr StormSpec Storms[] = {
    {"hit_storm", &makeHitStorm, 200.0, 1, 1},
    {"chipset_storm", &makeChipsetStorm, 2.0, 1, 2},
    {"walk_storm", &makeWalkStorm, 2.0, 1, 16},
};

} // namespace

int
main(int argc, char **argv)
{
    const Options opts = parseArgs(argc, argv);
    const auto wall0 = std::chrono::steady_clock::now();

    core::BenchOptions ropts;
    ropts.jsonPath = opts.jsonPath;
    bench::JsonReport report("event_fusion_microbench", ropts);

    const bool check = opts.checkSpeedup > 0.0;
    const bool can_ab = sim::EventQueue::FusionCompiledIn;
    if (check && !can_ab)
        std::printf("fusion not compiled in "
                    "(-DHYPERSIO_EVENT_FUSION=OFF); skipping the "
                    "in-binary A/B check\n");

    std::printf("event fusion microbench: %llu packets x %u tenants "
                "(hit storm; fusion %s)\n",
                (unsigned long long)opts.packets, opts.tenants,
                can_ab ? "compiled in" : "compiled out");
    std::printf("%-16s %12s %12s %12s %10s\n", "storm", "packets/s",
                "fused hops", "dispatched", "walks");

    uint64_t total_packets = 0;
    double total_wall = 0.0;
    double total_perhop_wall = 0.0;

    for (const auto &spec : Storms) {
        const uint64_t packets = opts.packets * spec.num / spec.den;
        const trace::HyperTrace trace =
            spec.make(opts.tenants, packets);

        core::SystemConfig config = stormConfig(spec.name);
        config.link.gbps = spec.gbps;
        config.eventFusion = true;
        const StormRun fused = runStorm(config, trace, opts.reps);

        HYPERSIO_ASSERT(fused.results.packetsProcessed ==
                            trace.packets.size(),
                        "storm dropped packets (%llu of %zu)",
                        (unsigned long long)
                            fused.results.packetsProcessed,
                        trace.packets.size());

        const double pps =
            bench::perSecond(packets, fused.wall);
        std::printf("%-16s %12.0f %12llu %12llu %10llu\n",
                    spec.name, pps,
                    (unsigned long long)fused.fusedHops,
                    (unsigned long long)fused.dispatched,
                    (unsigned long long)fused.results.walks);

        total_packets += packets;
        total_wall += fused.wall;

        const std::string prefix = spec.name;
        report.addScalar(prefix + "_packets",
                         static_cast<double>(packets));
        report.addScalar(prefix + "_translations",
                         static_cast<double>(
                             fused.results.translations));
        report.addScalar(prefix + "_walks",
                         static_cast<double>(fused.results.walks));
        report.addScalar(prefix + "_iommu_requests",
                         static_cast<double>(
                             fused.results.iommuRequests));
        report.addScalar(prefix + "_packets_per_sec", pps);
        // Deterministic fusion telemetry. Deliberately NOT a
        // count-suffixed name: it legitimately differs between
        // fusion-ON and fusion-OFF builds, and bench_speedup.py
        // requires count-suffixed scalars to match exactly.
        report.addScalar(prefix + "_fused_hops",
                         static_cast<double>(fused.fusedHops));

        if (check && can_ab) {
            core::SystemConfig perhop_config = config;
            perhop_config.eventFusion = false;
            const StormRun perhop =
                runStorm(perhop_config, trace, opts.reps);
            // The whole point: identical simulation, fewer
            // dispatches. Any observable difference is a bug.
            HYPERSIO_ASSERT(perhop.results == fused.results,
                            "fused and per-hop results differ");
            HYPERSIO_ASSERT(perhop.statsBytes == fused.statsBytes,
                            "fused and per-hop stat trees differ");
            HYPERSIO_ASSERT(perhop.fusedHops == 0,
                            "per-hop leg fused %llu hops",
                            (unsigned long long)perhop.fusedHops);
            HYPERSIO_ASSERT(perhop.scheduledSeq == fused.scheduledSeq,
                            "seq ledger mismatch: %llu != %llu",
                            (unsigned long long)perhop.scheduledSeq,
                            (unsigned long long)fused.scheduledSeq);
            // With PTB drops the legs fast-forward refused arrival
            // slots over different spans (DESIGN.md §15), so the
            // dispatch ledger closes exactly only on drop-free runs.
            HYPERSIO_ASSERT(fused.results.packetsDropped != 0 ||
                                perhop.dispatched ==
                                    fused.dispatched + fused.fusedHops,
                            "event ledger mismatch: %llu != "
                            "%llu + %llu",
                            (unsigned long long)perhop.dispatched,
                            (unsigned long long)fused.dispatched,
                            (unsigned long long)fused.fusedHops);
            total_perhop_wall += perhop.wall;
            const double perhop_pps =
                bench::perSecond(packets, perhop.wall);
            std::printf("%-16s %12.0f   (per-hop reference, "
                        "%.2fx)\n",
                        "", perhop_pps,
                        bench::speedupRatio(pps, perhop_pps));
        }
    }

    const double total_pps =
        bench::perSecond(total_packets, total_wall);
    std::printf("walk storm total: %.0f packets/s\n", total_pps);
    report.addScalar("total_packets",
                     static_cast<double>(total_packets));
    report.addScalar("total_walkstorm_packets_per_sec", total_pps);
    report.addScalar("fusion_compiled", can_ab ? 1.0 : 0.0);
    report.write(wallSeconds(wall0));

    if (check && can_ab) {
        const double total_perhop_pps =
            bench::perSecond(total_packets, total_perhop_wall);
        const double speedup =
            bench::speedupRatio(total_pps, total_perhop_pps);
        std::printf("aggregate: fused %.0f vs per-hop %.0f "
                    "packets/s = %.2fx\n",
                    total_pps, total_perhop_pps, speedup);
        if (!bench::checkSpeedup("event fusion", speedup,
                                 opts.checkSpeedup))
            return 1;
    }
    return 0;
}
