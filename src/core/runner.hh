/**
 * @file
 * Experiment harness: builds traces, runs configuration sweeps, and
 * prints paper-style result tables. All bench binaries are thin
 * wrappers around this API.
 *
 * Sweeps can fan out across a worker pool (`jobs` > 1): every
 * ExperimentPoint is an independent System run over an immutable
 * cached trace, so points execute on N threads while results stay in
 * input order and are bit-identical to a serial run. The trace cache
 * is thread-safe with per-key construction locks — two points that
 * need the same (benchmark, tenants, interleaving) trace build it
 * exactly once.
 */

#ifndef HYPERSIO_CORE_RUNNER_HH
#define HYPERSIO_CORE_RUNNER_HH

#include <atomic>
#include <compare>
#include <functional>
#include <iosfwd>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "core/bench_options.hh"
#include "core/system.hh"
#include "trace/constructor.hh"
#include "workload/benchmarks.hh"

namespace hypersio::core
{

/** A named point in a sweep: configuration + workload. */
struct ExperimentPoint
{
    std::string label;
    SystemConfig config;
    workload::Benchmark bench = workload::Benchmark::Iperf3;
    unsigned tenants = 4;
    trace::Interleaving interleave;
    bool bypassTranslation = false;
};

/** One row of experiment output. */
struct ExperimentRow
{
    ExperimentPoint point;
    RunResults results;
    /**
     * Compact JSON dump of the run's full stat tree; empty unless
     * the runner's captureStatsJson() was enabled (the `--json`
     * reports embed it per point).
     */
    std::string statsJson;
};

/**
 * Runs experiment points, reusing constructed traces across points
 * that share (benchmark, tenants, interleaving, scale, seed).
 *
 * All public methods are safe to call from multiple threads; each
 * run() builds its own System, and getTrace() returns references
 * that stay valid for the runner's lifetime.
 */
class ExperimentRunner
{
  public:
    /**
     * @param scale trace scale factor (1.0 = paper-sized logs);
     *        quick runs use a small fraction
     * @param jobs worker threads used by runAll(); 1 = serial
     * @param capture_stats_json fill ExperimentRow::statsJson
     */
    explicit ExperimentRunner(double scale = 0.05,
                              uint64_t seed = 42,
                              unsigned jobs = 1,
                              bool capture_stats_json = false);

    /** Runs one point. */
    ExperimentRow run(const ExperimentPoint &point);

    /**
     * Runs all points, dispatching them to jobs() worker threads.
     * Results are returned in input order regardless of completion
     * order; progress lines (one per point) are emitted atomically.
     * With jobs() == 1 this is exactly the historical serial loop.
     */
    std::vector<ExperimentRow>
    runAll(const std::vector<ExperimentPoint> &points,
           std::ostream *progress = nullptr);

    /**
     * Builds (and caches) the trace for a workload setting. The
     * returned reference is stable for the runner's lifetime; a
     * given key's trace is constructed exactly once even when many
     * threads request it concurrently.
     */
    const trace::HyperTrace &getTrace(workload::Benchmark bench,
                                      unsigned tenants,
                                      const trace::Interleaving &il);

    double scale() const { return _scale; }
    uint64_t seed() const { return _seed; }

    unsigned jobs() const { return _jobs; }
    void setJobs(unsigned jobs) { _jobs = jobs ? jobs : 1; }

    /** When set, each ExperimentRow carries its JSON stat tree. */
    bool captureStatsJson() const { return _captureStatsJson; }
    void setCaptureStatsJson(bool on) { _captureStatsJson = on; }

    /** Unique traces constructed so far (tested by the stress suite). */
    uint64_t
    traceConstructions() const
    {
        return _constructions.load(std::memory_order_relaxed);
    }

    /** One worker per hardware thread (at least 1). */
    static unsigned defaultJobs();

  private:
    double _scale;
    uint64_t _seed;
    unsigned _jobs;
    bool _captureStatsJson = false;

    struct TraceKey
    {
        workload::Benchmark bench;
        unsigned tenants;
        std::string interleave;

        auto operator<=>(const TraceKey &) const = default;
    };

    /** A cache slot: the once-flag is the per-key construction lock. */
    struct TraceEntry
    {
        std::once_flag built;
        trace::HyperTrace trace;
    };

    std::mutex _traceMutex; ///< guards the map structure only
    std::map<TraceKey, std::unique_ptr<TraceEntry>> _traces;
    std::atomic<uint64_t> _constructions{0};
};

/** The tenant counts the paper sweeps in Figs. 9-12 (4..1024). */
std::vector<unsigned> paperTenantSweep(unsigned max_tenants = 1024);

/**
 * Prints a bandwidth table: one row per tenant count, one column per
 * series. `series` maps label → (tenants → Gb/s).
 */
void printBandwidthTable(
    std::ostream &os, const std::string &title,
    const std::vector<unsigned> &tenants,
    const std::vector<
        std::pair<std::string, std::vector<double>>> &series);

} // namespace hypersio::core

#endif // HYPERSIO_CORE_RUNNER_HH
