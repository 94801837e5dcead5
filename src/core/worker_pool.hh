/**
 * @file
 * The one worker pool behind ExperimentRunner::runAll and
 * ShardedMultiSystem::run: independent jobs indexed 0..n-1, each
 * claimed once by the next free worker.
 */

#ifndef HYPERSIO_CORE_WORKER_POOL_HH
#define HYPERSIO_CORE_WORKER_POOL_HH

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <thread>
#include <vector>

namespace hypersio::core
{

/**
 * Calls `fn(i)` once for every i in [0, n) on min(jobs, n) threads,
 * each claiming the next unclaimed index. With one worker the calls
 * run in index order on the calling thread. A caller that writes
 * result i from fn(i) gets its results in index order whatever the
 * completion order.
 */
template <typename Fn>
void
forEachIndex(size_t n, unsigned jobs, Fn &&fn)
{
    const size_t workers = std::min<size_t>(std::max(jobs, 1u), n);
    if (workers <= 1) {
        for (size_t i = 0; i < n; ++i)
            fn(i);
        return;
    }
    std::atomic<size_t> next{0};
    auto work = [&]() {
        for (size_t i; (i = next.fetch_add(
                            1, std::memory_order_relaxed)) < n;)
            fn(i);
    };
    std::vector<std::thread> pool;
    pool.reserve(workers);
    for (size_t t = 0; t < workers; ++t)
        pool.emplace_back(work);
    for (std::thread &thread : pool)
        thread.join();
}

} // namespace hypersio::core

#endif // HYPERSIO_CORE_WORKER_POOL_HH
