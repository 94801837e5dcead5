/**
 * @file
 * Textual configuration overrides: "key=value" strings applied to a
 * SystemConfig, so command-line tools and config files can reach
 * every knob the evaluation sweeps without recompiling.
 *
 * Supported keys (see overrides.cc for the authoritative table):
 *   link.gbps, link.packet_bytes,
 *   pcie.oneway_ns, dram.latency_ns, dram.max_outstanding,
 *   ptb.entries,
 *   devtlb.entries, devtlb.ways, devtlb.partitions, devtlb.policy,
 *   devtlb.hit_ns, devtlb.lfu_bits,
 *   iotlb.entries, iotlb.ways, iotlb.policy, iotlb.hashed,
 *   l2tlb.entries, l2tlb.ways, l2tlb.partitions,
 *   l3tlb.entries, l3tlb.ways, l3tlb.partitions,
 *   iommu.walkers, iommu.paging_levels,
 *   prefetch.enabled, prefetch.buffer, prefetch.history,
 *   prefetch.pages, seed
 */

#ifndef HYPERSIO_CORE_OVERRIDES_HH
#define HYPERSIO_CORE_OVERRIDES_HH

#include <string>
#include <vector>

#include "core/config.hh"

namespace hypersio::core
{

/**
 * Applies one "key=value" override. Unknown keys and malformed or
 * out-of-range values (a 32-bit field past 2^32 - 1, a latency past
 * the tick range, a link slot under one tick) are user errors
 * (fatal()).
 */
void applyOverride(SystemConfig &config, const std::string &text);

/** Applies a list of overrides in order. */
void applyOverrides(SystemConfig &config,
                    const std::vector<std::string> &overrides);

/**
 * Loads overrides from a config file: one "key = value" per line,
 * '#' starts a comment, blank lines ignored. Errors name the file
 * and line ("path:line: ...").
 */
void loadConfigFile(SystemConfig &config, const std::string &path);

/** Lists all supported override keys (for --help output). */
std::vector<std::string> supportedOverrideKeys();

} // namespace hypersio::core

#endif // HYPERSIO_CORE_OVERRIDES_HH
