/**
 * @file
 * Hyper-scale sharding: the tenant population split across
 * independent System shards, each with its own link, device,
 * chipset, and event queue, run on a small worker pool. (Several
 * devices sharing one chipset are a single System with a device
 * count; see core/system.hh.)
 */

#ifndef HYPERSIO_CORE_MULTI_SYSTEM_HH
#define HYPERSIO_CORE_MULTI_SYSTEM_HH

#include <functional>
#include <memory>
#include <vector>

#include "core/config.hh"
#include "core/system.hh"
#include "trace/stream.hh"

namespace hypersio::core
{

/**
 * One tenant retirement on the merged global timeline. Entries are
 * ordered by (tick, shard, seq, per-shard index) — the slab event
 * kernel's (tick, seq) rule with the shard id between the two — so
 * the timeline is a pure function of the per-shard simulations,
 * independent of worker-thread scheduling.
 */
struct GlobalRetirement
{
    Tick tick = 0;
    unsigned shard = 0;
    uint64_t seq = 0;
    trace::SourceId sid = 0;

    bool operator==(const GlobalRetirement &) const = default;
};

/** Aggregate results of a sharded streaming run. */
struct ShardedRunResults
{
    uint64_t packetsProcessed = 0;
    uint64_t packetsDropped = 0;
    uint64_t translations = 0;
    uint64_t tenantsRetired = 0;
    /** Slowest shard's elapsed time (makespan of the fleet). */
    Tick maxElapsed = 0;
    /** Global retirement timeline (deterministic merge). */
    std::vector<GlobalRetirement> retirements;
    /**
     * Order-sensitive 48-bit digest of the merged timeline (48 so
     * the value survives a JSON double round-trip exactly).
     */
    uint64_t mergeChecksum = 0;
    std::vector<RunResults> perShard;

    bool operator==(const ShardedRunResults &) const = default;
};

/**
 * Hyper-scale regime: the tenant population is partitioned across
 * independent System shards (own link, device, chipset, and event
 * queue each), run on a small worker pool. Shards never interact
 * mid-run, so any jobs count produces bit-identical results; the
 * cross-shard retirement timeline is re-synchronised after the fact
 * by a deterministic (tick, shard, seq) merge of the per-shard logs.
 */
class ShardedMultiSystem
{
  public:
    /** Builds shard `s`'s packet stream (called in shard order). */
    using StreamFactory =
        std::function<std::unique_ptr<trace::PacketStream>(
            unsigned shard)>;

    /**
     * Builds shard `s`'s run options (called in shard order on the
     * calling thread). Lets each shard carry its own telemetry
     * hooks — a per-shard Snapshotter, a per-shard repro context —
     * while the run itself stays jobs-count independent.
     */
    using OptionsFactory =
        std::function<StreamRunOptions(unsigned shard)>;

    /**
     * @param jobs worker threads for run(); clamped to the shard
     *        count, 0/1 runs serially on the calling thread
     */
    ShardedMultiSystem(const SystemConfig &config, unsigned shards,
                       unsigned jobs = 1);
    ~ShardedMultiSystem();

    ShardedMultiSystem(const ShardedMultiSystem &) = delete;
    ShardedMultiSystem &operator=(const ShardedMultiSystem &) =
        delete;

    /** Runs every shard's stream to exhaustion. Call once. */
    ShardedRunResults run(const StreamFactory &make_stream,
                          const StreamRunOptions &opts = {});

    /** Same, with per-shard run options. Call once. */
    ShardedRunResults run(const StreamFactory &make_stream,
                          const OptionsFactory &make_options);

    unsigned numShards() const
    {
        return static_cast<unsigned>(_systems.size());
    }

    /** Direct access for tests/benchmarks. */
    const System &shard(unsigned s) const { return *_systems[s]; }

    /**
     * Writes every shard's statistics tree as one JSON array, in
     * shard order (deterministic regardless of the jobs count).
     */
    void dumpStatsJson(std::ostream &os, unsigned indent = 2) const;

  private:
    unsigned _jobs;
    std::vector<std::unique_ptr<System>> _systems;
    /** Kept alive past run() so callers may read stream counters. */
    std::vector<std::unique_ptr<trace::PacketStream>> _streams;
    bool _ran = false;
};

} // namespace hypersio::core

#endif // HYPERSIO_CORE_MULTI_SYSTEM_HH
