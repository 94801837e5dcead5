/**
 * @file
 * Top-level system configuration and the Base / HyperTRIO presets.
 *
 * Latency and link parameters follow the paper's Table II; the Base
 * and HyperTRIO architectural presets follow Table IV. Every knob the
 * evaluation sweeps (DevTLB size/associativity/policy/partitions,
 * PTB depth, prefetcher parameters, paging-cache partitioning) is a
 * field here, so experiments are pure configuration.
 */

#ifndef HYPERSIO_CORE_CONFIG_HH
#define HYPERSIO_CORE_CONFIG_HH

#include <string>

#include "cache/set_assoc_cache.hh"
#include "iommu/iommu.hh"
#include "mem/memory_model.hh"
#include "oracle/shadow.hh"
#include "util/units.hh"

namespace hypersio::core
{

/** I/O link parameters (Table II). */
struct LinkConfig
{
    /** Nominal link bandwidth in Gb/s. */
    double gbps = 200.0;
    /** Wire size of one packet incl. inter-packet gap (Table II). */
    unsigned packetBytes = 1542;

    /** Ticks between back-to-back packet arrivals. */
    Tick
    packetInterval() const
    {
        return serializationTicks(packetBytes, gbps);
    }
};

/** Which prefetch mechanism drives the Prefetch Buffer. */
enum class PrefetchKind
{
    /**
     * The paper's scheme: SID predictor + History Reader fetching
     * each predicted tenant's recent gIOVAs from main memory.
     */
    SidPredictor,
    /**
     * MMU-aware DMA prefetch: a per-(tenant, request-class) stride
     * detector follows the descriptor-ring access pattern and pulls
     * the next ring pages through the IOMMU ahead of the demand
     * stream. No history reads from memory are needed.
     */
    MmuDma,
};

/** Translation-prefetching scheme parameters (Section III). */
struct PrefetchConfig
{
    bool enabled = false;
    /** Prefetch Buffer entries (fully associative; paper: 8). */
    unsigned bufferEntries = 8;
    /**
     * SID-predictor history length: the prediction targets the SID
     * expected this many packets in the future (paper: 48).
     */
    unsigned historyLength = 48;
    /** Most-recent gIOVAs prefetched per predicted SID (paper: 2). */
    unsigned pagesPerPrefetch = 2;
    /** Per-DID gIOVA history entries kept in main memory. */
    unsigned historyDepth = 4;
    /** Memory reads to fetch a tenant's history on a prefetch. */
    unsigned historyReadAccesses = 2;
    /** Mechanism selector (appended last; brace-inits keep working). */
    PrefetchKind kind = PrefetchKind::SidPredictor;
};

/** The I/O-device-side configuration. */
struct DeviceConfig
{
    /** Pending Translation Buffer entries (Table IV: 1 vs 32). */
    unsigned ptbEntries = 1;
    /** Device TLB geometry/policy (Table IV). */
    cache::CacheConfig devtlb{64, 8, 1, cache::ReplPolicyKind::LFU, 7};
    /** DevTLB hit latency (same 2 ns as the IOTLB, Table II). */
    Tick devtlbHitLatency = 2 * TicksPerNs;
    /** Context Cache geometry (device-resident per-VF state). */
    cache::CacheConfig contextCache{2048, 4, 1,
                                    cache::ReplPolicyKind::LRU, 11};
    PrefetchConfig prefetch;
};

/** Everything a System needs. */
struct SystemConfig
{
    std::string name = "base";
    LinkConfig link;
    DeviceConfig device;
    iommu::IommuConfig iommu;
    mem::MemoryConfig memory;
    /** One-way PCIe traversal latency (Table II: 450 ns). */
    Tick pcieOneWay = 450 * TicksPerNs;
    /** Seed for page-table frame assignment and policy randomness. */
    uint64_t seed = 42;
    /**
     * Packets admitted per link-arrival event. 1 reproduces the
     * classic one-event-per-slot arrival process exactly (the
     * default everywhere). Larger values drain up to this many
     * pending arrivals per event-kernel dispatch, spacing arrival
     * events by the batch's total serialization time — the same
     * offered load with ~1/batch the dispatch overhead. A PTB drop
     * ends the batch early; the dropped packet retries at the next
     * arrival event, exactly as in the per-slot process.
     */
    unsigned admitBatch = 1;
    /**
     * Hit-path event fusion (sim/event_queue.hh::tryFuseAdvance):
     * deterministic translation hops run as synchronous
     * continuations instead of separate events. Results are
     * bit-identical either way (bench/layer_bench's fusion A/B and
     * tests/test_event_fusion.cc enforce it); OFF selects the
     * event-per-hop schedule for A/B measurement.
     */
    bool eventFusion = true;

    /**
     * The paper's Base configuration (Table IV): single-entry PTB,
     * unpartitioned 64-entry 8-way LFU DevTLB, unpartitioned paging
     * caches, no prefetching.
     */
    static SystemConfig base();

    /**
     * The paper's HyperTRIO configuration (Table IV): 32-entry PTB,
     * DevTLB with 8 partitions, L2 TLB with 32 partitions, L3 TLB
     * with 64 partitions, prefetching with an 8-entry buffer, a
     * 48-access history stride, and 2 pages of history per tenant.
     */
    static SystemConfig hypertrio();

    /** Renders the configuration as a Table II/IV-style text block. */
    std::string describe() const;
};

/**
 * The cache/predictor geometry the shadow oracle mirrors, extracted
 * from a full system configuration (see oracle/shadow.hh).
 */
oracle::ShadowConfig toShadowConfig(const SystemConfig &config);

} // namespace hypersio::core

#endif // HYPERSIO_CORE_CONFIG_HH
