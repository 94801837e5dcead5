#include "workload/benchmarks.hh"

#include <algorithm>
#include <cmath>

#include "iommu/context_cache.hh"
#include "util/logging.hh"
#include "util/rng.hh"

namespace hypersio::workload
{

Benchmark
parseBenchmark(const std::string &name)
{
    if (name == "iperf3" || name == "iperf")
        return Benchmark::Iperf3;
    if (name == "mediastream" || name == "media")
        return Benchmark::Mediastream;
    if (name == "websearch" || name == "web")
        return Benchmark::Websearch;
    fatal("unknown benchmark '%s' "
          "(expected iperf3|mediastream|websearch)",
          name.c_str());
}

const char *
benchmarkName(Benchmark bench)
{
    switch (bench) {
      case Benchmark::Iperf3:
        return "iperf3";
      case Benchmark::Mediastream:
        return "mediastream";
      case Benchmark::Websearch:
        return "websearch";
    }
    panic("unreachable benchmark kind");
}

BenchmarkProfile
benchmarkProfile(Benchmark bench)
{
    BenchmarkProfile profile;
    profile.bench = bench;
    TenantPattern &p = profile.pattern;

    switch (bench) {
      case Benchmark::Iperf3:
        // Throughput-oriented steady packet stream: the most regular
        // pattern and the smallest active translation set (paper: 8).
        p.streams = 6;
        p.jitterProb = 0.0;
        p.randomStreamOrder = false;
        p.numDataPages = 32;
        p.accessesPerDataPage = 1500;
        p.numInitPages = 70;
        profile.minTranslations = 68079;
        profile.maxTranslations = 108510;
        break;

      case Benchmark::Mediastream:
        // Eight concurrent video connections per host (the paper's
        // CloudSuite setting), each streaming sequentially, with
        // occasional revisits across the mapped buffer ring; active
        // set around 32.
        p.streams = 8;
        p.jitterProb = 0.12;
        p.randomStreamOrder = false;
        p.numDataPages = 32;
        p.accessesPerDataPage = 1500;
        p.numInitPages = 70;
        profile.minTranslations = 5520;
        profile.maxTranslations = 73657;
        break;

      case Benchmark::Websearch:
        // Request/response index serving: the least regular pattern;
        // active set around 36.
        p.streams = 12;
        p.jitterProb = 0.30;
        p.randomStreamOrder = true;
        p.numDataPages = 36;
        p.accessesPerDataPage = 1200;
        p.numInitPages = 70;
        profile.minTranslations = 43362;
        profile.maxTranslations = 108513;
        break;
    }
    return profile;
}

void
scaleInitPhase(TenantPattern &pattern, uint64_t num_packets)
{
    const uint64_t init_budget =
        std::max<uint64_t>(4, num_packets / 300);
    const unsigned max_accesses = pattern.accessesPerInitPage;
    pattern.numInitPages = static_cast<unsigned>(
        std::min<uint64_t>(pattern.numInitPages, init_budget));
    pattern.accessesPerInitPage = std::clamp<unsigned>(
        static_cast<unsigned>(init_budget /
                              std::max(1u, pattern.numInitPages)),
        1u, std::max(1u, max_accesses));
}

std::vector<TenantStream>
tenantStreams(Benchmark bench, unsigned num_tenants, uint64_t seed,
              double scale)
{
    if (!std::isfinite(scale) || scale <= 0.0)
        fatal("workload scale must be a finite positive number "
              "(got %g)",
              scale);
    if (num_tenants < 1 || num_tenants > iommu::ContextCache::SidSpace)
        fatal("tenant count must be in [1, %u] (got %u): tenants are "
              "SIDs",
              iommu::ContextCache::SidSpace, num_tenants);

    const BenchmarkProfile profile = benchmarkProfile(bench);
    const uint64_t min_packets = profile.minTranslations / 3;
    const uint64_t max_packets = profile.maxTranslations / 3;
    // Converting a budget past 2^64 to uint64_t is undefined.
    if (static_cast<double>(max_packets) * scale >= 0x1p64)
        fatal("workload scale %g overflows a packet budget", scale);

    auto scaled = [&](uint64_t packets) {
        const auto value = static_cast<uint64_t>(
            static_cast<double>(packets) * scale);
        return std::max<uint64_t>(value, 64);
    };

    TenantPattern pattern = profile.pattern;
    scaleInitPhase(pattern, scaled(min_packets));

    Rng rng(hashCombine(seed, static_cast<uint64_t>(bench)));
    std::vector<TenantStream> tenants;
    tenants.reserve(num_tenants);
    for (unsigned t = 0; t < num_tenants; ++t) {
        uint64_t packets;
        if (t == 0) {
            packets = min_packets;
        } else if (t == num_tenants - 1 && num_tenants > 1) {
            packets = max_packets;
        } else {
            packets = rng.range(min_packets, max_packets);
        }
        tenants.emplace_back(pattern, seed,
                             static_cast<trace::SourceId>(t),
                             scaled(packets));
    }
    return tenants;
}

std::vector<trace::TenantLog>
generateLogs(Benchmark bench, unsigned num_tenants, uint64_t seed,
             double scale)
{
    std::vector<TenantStream> tenants =
        tenantStreams(bench, num_tenants, seed, scale);
    std::vector<trace::TenantLog> logs;
    logs.reserve(tenants.size());
    for (TenantStream &tenant : tenants)
        logs.push_back(tenant.drain());
    return logs;
}

} // namespace hypersio::workload
