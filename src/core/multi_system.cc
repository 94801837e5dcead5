#include "core/multi_system.hh"

#include <algorithm>
#include <atomic>
#include <ostream>
#include <thread>

#include "util/logging.hh"
#include "util/rng.hh"

namespace hypersio::core
{

ShardedMultiSystem::ShardedMultiSystem(const SystemConfig &config,
                                       unsigned shards,
                                       unsigned jobs)
    : _jobs(jobs ? jobs : 1)
{
    if (shards == 0)
        fatal("sharded system needs at least one shard");
    if (config.device.devtlb.policy == cache::ReplPolicyKind::Oracle)
        fatal("oracle DevTLB replacement is not supported in "
              "sharded streaming mode");
    _systems.reserve(shards);
    for (unsigned s = 0; s < shards; ++s)
        _systems.push_back(std::make_unique<System>(config));
}

ShardedMultiSystem::~ShardedMultiSystem() = default;

ShardedRunResults
ShardedMultiSystem::run(const StreamFactory &make_stream,
                        const StreamRunOptions &opts)
{
    return run(make_stream,
               [&opts](unsigned) { return opts; });
}

ShardedRunResults
ShardedMultiSystem::run(const StreamFactory &make_stream,
                        const OptionsFactory &make_options)
{
    HYPERSIO_ASSERT(!_ran,
                    "ShardedMultiSystem::run() may only run once");
    _ran = true;

    const auto n = static_cast<unsigned>(_systems.size());

    // Streams and per-shard options are built on the calling thread
    // in shard order, so factories drawing from shared (seeded)
    // state stay deterministic no matter the jobs count.
    _streams.reserve(n);
    std::vector<StreamRunOptions> options;
    options.reserve(n);
    for (unsigned s = 0; s < n; ++s) {
        _streams.push_back(make_stream(s));
        HYPERSIO_ASSERT(_streams.back() != nullptr,
                        "stream factory returned null for shard %u",
                        s);
        options.push_back(make_options(s));
    }

    // Shards share nothing at run time (each System owns its event
    // queue, memory, chipset, and its own thread-local shadow
    // checker), so each worker simulates whole shards independently
    // and results are a pure function of the per-shard streams.
    ShardedRunResults results;
    results.perShard.resize(n);
    const unsigned workers = std::min(_jobs, n);
    if (workers <= 1) {
        for (unsigned s = 0; s < n; ++s)
            results.perShard[s] =
                _systems[s]->runStream(*_streams[s], options[s]);
    } else {
        std::atomic<unsigned> next{0};
        auto work = [&]() {
            for (;;) {
                const unsigned s =
                    next.fetch_add(1, std::memory_order_relaxed);
                if (s >= n)
                    return;
                results.perShard[s] =
                    _systems[s]->runStream(*_streams[s], options[s]);
            }
        };
        std::vector<std::thread> pool;
        pool.reserve(workers);
        for (unsigned t = 0; t < workers; ++t)
            pool.emplace_back(work);
        for (auto &thread : pool)
            thread.join();
    }

    for (unsigned s = 0; s < n; ++s) {
        const RunResults &r = results.perShard[s];
        results.packetsProcessed += r.packetsProcessed;
        results.packetsDropped += r.packetsDropped;
        results.translations += r.translations;
        results.maxElapsed = std::max(results.maxElapsed, r.elapsed);
        for (const StreamRetirement &ret :
             _systems[s]->streamRetirements()) {
            results.retirements.push_back(
                {ret.tick, s, ret.seq, ret.sid});
        }
    }
    results.tenantsRetired = results.retirements.size();

    // Merge rule: the slab kernel's (tick, seq) ordering with the
    // shard id between the two. Per-shard logs are already in
    // (tick, seq) order, so a stable sort on
    // (tick, shard, seq) yields the unique global timeline with the
    // per-shard index as the final tie-breaker.
    std::stable_sort(results.retirements.begin(),
                     results.retirements.end(),
                     [](const GlobalRetirement &a,
                        const GlobalRetirement &b) {
                         if (a.tick != b.tick)
                             return a.tick < b.tick;
                         if (a.shard != b.shard)
                             return a.shard < b.shard;
                         return a.seq < b.seq;
                     });

    uint64_t digest = 0;
    for (const GlobalRetirement &ret : results.retirements) {
        digest = hashCombine(
            digest, hashCombine(ret.tick,
                                hashCombine(ret.shard, ret.sid)));
    }
    results.mergeChecksum = digest & ((uint64_t{1} << 48) - 1);
    return results;
}

void
ShardedMultiSystem::dumpStatsJson(std::ostream &os,
                                  unsigned indent) const
{
    os << '[';
    for (size_t s = 0; s < _systems.size(); ++s) {
        if (s != 0)
            os << (indent ? ",\n" : ",");
        _systems[s]->dumpStatsJson(os, indent);
    }
    os << ']';
}

} // namespace hypersio::core
