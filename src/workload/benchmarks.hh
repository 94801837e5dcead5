/**
 * @file
 * The three I/O-intensive benchmark profiles used by the paper
 * (Table III): iperf3, CloudSuite mediastream, and CloudSuite
 * websearch. Each profile fixes a TenantPattern and the distribution
 * of per-tenant request counts so that a constructed 1024-tenant
 * trace reproduces the paper's min/max/total translation counts.
 */

#ifndef HYPERSIO_WORKLOAD_BENCHMARKS_HH
#define HYPERSIO_WORKLOAD_BENCHMARKS_HH

#include <string>
#include <vector>

#include "workload/tenant_model.hh"

namespace hypersio::workload
{

/** Benchmark identifiers. */
enum class Benchmark
{
    Iperf3,
    Mediastream,
    Websearch,
};

/** All benchmarks, in the paper's order. */
constexpr Benchmark AllBenchmarks[] = {
    Benchmark::Iperf3,
    Benchmark::Mediastream,
    Benchmark::Websearch,
};

/** Parses "iperf3"/"mediastream"/"websearch"; fatal() otherwise. */
Benchmark parseBenchmark(const std::string &name);

/** Benchmark name as used in the paper. */
const char *benchmarkName(Benchmark bench);

/** Per-benchmark workload profile. */
struct BenchmarkProfile
{
    Benchmark bench;
    TenantPattern pattern;
    /**
     * Translation-request count bounds per tenant (Table III). The
     * per-tenant packet count is translations / 3.
     */
    uint64_t minTranslations;
    uint64_t maxTranslations;
};

/** The profile reproducing the paper's Table III row for `bench`. */
BenchmarkProfile benchmarkProfile(Benchmark bench);

/**
 * Caps the initialisation phase (group 3) at ~0.3% of a log of
 * `num_packets` packets. The paper's logs are millions of requests
 * with a one-off init of < 100 accesses per page; a fixed-size init
 * would dominate scaled-down logs. Call this before handing a
 * pattern to a TenantStream for short logs (tenantStreams does it
 * automatically).
 */
void scaleInitPhase(TenantPattern &pattern, uint64_t num_packets);

/**
 * The per-tenant generators of a benchmark: tenant t is SID t, and
 * all share the profile's pattern with its init phase scaled.
 *
 * Tenant 0 receives the minimum request count and the last tenant
 * the maximum (so min/max statistics match Table III); the others
 * draw uniformly in between (seeded, deterministic).
 *
 * fatal() unless `scale` is finite and positive and the tenants fit
 * the SID space (1 <= num_tenants <= ContextCache::SidSpace).
 *
 * @param scale multiplies every per-tenant packet count; use < 1 for
 *        quick runs (counts are clamped to at least 64 packets)
 */
std::vector<TenantStream>
tenantStreams(Benchmark bench, unsigned num_tenants, uint64_t seed,
              double scale = 1.0);

/** Per-tenant logs for a benchmark: tenantStreams(), drained. */
std::vector<trace::TenantLog>
generateLogs(Benchmark bench, unsigned num_tenants, uint64_t seed,
             double scale = 1.0);

} // namespace hypersio::workload

#endif // HYPERSIO_WORKLOAD_BENCHMARKS_HH
