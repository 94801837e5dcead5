/**
 * @file
 * Shared helpers for the per-figure bench binaries: each binary
 * regenerates one table or figure of the paper, printing the same
 * rows/series the paper reports.
 *
 * Sweep-style benches collect their points into a PointBatch and run
 * them through the ExperimentRunner worker pool (`--jobs`), which
 * keeps the printed tables byte-identical to a serial run while
 * using every core.
 */

#ifndef HYPERSIO_BENCH_COMMON_HH
#define HYPERSIO_BENCH_COMMON_HH

#include <chrono>
#include <cstdio>
#include <iostream>
#include <string>
#include <utility>
#include <vector>

#include "hypersio/hypersio.hh"
#include "json_report.hh"

namespace hypersio::bench
{

/**
 * Builds the standard runner for a bench binary. With `--json` the
 * runner also captures each point's full stat tree so the report
 * can embed it.
 */
inline core::ExperimentRunner
makeRunner(const core::BenchOptions &opts)
{
    return core::ExperimentRunner(opts.scale, opts.seed, opts.jobs,
                                  !opts.jsonPath.empty());
}

/** Runs one (config, workload) point and returns the results. */
inline core::RunResults
runPoint(core::ExperimentRunner &runner, core::SystemConfig config,
         workload::Benchmark bench, unsigned tenants,
         const std::string &il = "RR1", bool bypass = false)
{
    core::ExperimentPoint point;
    point.label = config.name;
    point.config = std::move(config);
    point.bench = bench;
    point.tenants = tenants;
    point.interleave = trace::parseInterleaving(il);
    point.bypassTranslation = bypass;
    return runner.run(point).results;
}

/**
 * Collects experiment points across a bench's loop structure, runs
 * them all at once through ExperimentRunner::runAll (fanning out
 * over the `--jobs` worker pool), and hands the results back in the
 * order the points were added.
 *
 * Usage: run the bench's loops once calling add(), call run(), then
 * mirror the same loops calling take() — take() returns results in
 * exactly add() order, so the printed tables match a serial run
 * byte for byte.
 */
class PointBatch
{
  public:
    /**
     * @param report when non-null, every take() also records its
     *        point into the `--json` report (a no-op report — no
     *        `--json` on the command line — records nothing)
     */
    explicit PointBatch(core::ExperimentRunner &runner,
                        JsonReport *report = nullptr)
        : _runner(runner), _report(report)
    {}

    /** Queues one point; its result comes back in add() order. */
    void
    add(core::SystemConfig config, workload::Benchmark bench,
        unsigned tenants, const std::string &il = "RR1",
        bool bypass = false)
    {
        core::ExperimentPoint point;
        point.label = config.name;
        point.config = std::move(config);
        point.bench = bench;
        point.tenants = tenants;
        point.interleave = trace::parseInterleaving(il);
        point.bypassTranslation = bypass;
        _points.push_back(std::move(point));
    }

    /** Runs every queued point across the runner's worker pool. */
    void
    run(std::ostream *progress = nullptr)
    {
        _rows = _runner.runAll(_points, progress);
        _next = 0;
    }

    /** Next result, in add() order. */
    const core::RunResults &
    take()
    {
        if (_next >= _rows.size())
            panic("PointBatch::take() past the %zu queued points",
                  _rows.size());
        if (_report)
            _report->addRow(_points[_next], _rows[_next]);
        return _rows[_next++].results;
    }

    size_t size() const { return _points.size(); }

  private:
    core::ExperimentRunner &_runner;
    JsonReport *_report;
    std::vector<core::ExperimentPoint> _points;
    std::vector<core::ExperimentRow> _rows;
    size_t _next = 0;
};

/** Wall-clock timer for the end-of-bench speedup line. */
class WallTimer
{
  public:
    WallTimer() : _start(std::chrono::steady_clock::now()) {}

    double
    seconds() const
    {
        return std::chrono::duration<double>(
                   std::chrono::steady_clock::now() - _start)
            .count();
    }

  private:
    std::chrono::steady_clock::time_point _start;
};

/**
 * Prints the wall-clock line. It goes to stderr so stdout result
 * tables stay byte-identical across `--jobs` values; run a bench
 * with `--jobs 1` and again with `--jobs N` to read the sweep
 * speedup directly off the two lines.
 */
inline void
wallClockLine(const WallTimer &timer, const core::BenchOptions &opts)
{
    std::fprintf(stderr, "[wall] %.2f s (--jobs %u)\n",
                 timer.seconds(), opts.jobs);
}

/** Table IV "HyperTRIO without prefetching" configuration. */
inline core::SystemConfig
partitionedPtbConfig(unsigned ptb_entries)
{
    core::SystemConfig config = core::SystemConfig::hypertrio();
    config.name = "part+ptb" + std::to_string(ptb_entries);
    config.device.ptbEntries = ptb_entries;
    config.device.prefetch.enabled = false;
    return config;
}

/** Prints the standard bench banner. */
inline void
banner(const char *id, const char *what,
       const core::BenchOptions &opts)
{
    std::printf("=== %s: %s ===\n", id, what);
    std::printf("(scale %.3g, max %u tenants, seed %llu; "
                "use --full for paper-sized traces)\n\n",
                opts.scale, opts.maxTenants,
                (unsigned long long)opts.seed);
}

/** The progress sink for a batch run: stderr when --verbose. */
inline std::ostream *
progressSink(const core::BenchOptions &opts)
{
    return opts.verbose ? &std::cerr : nullptr;
}

// ---------------------------------------------------------------
// Timing and rate helpers (bench/layer_bench).
// ---------------------------------------------------------------

/** Wall seconds elapsed since `t0` (steady clock). */
inline double
wallSeconds(std::chrono::steady_clock::time_point t0)
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now() - t0)
        .count();
}

/** Wall seconds one call of `fn()` takes. */
template <typename Fn>
double
wallOf(Fn &&fn)
{
    const auto t0 = std::chrono::steady_clock::now();
    fn();
    return wallSeconds(t0);
}

/**
 * Calls `fn(rep)` for rep = 0..reps-1 — each call times its own
 * measured region (usually via wallOf) and returns the seconds — and
 * returns the best (minimum). Best-of-reps because rate noise is
 * one-sided: background load only ever slows a rep down.
 */
template <typename Fn>
double
bestWall(unsigned reps, Fn &&fn)
{
    double best = 0.0;
    for (unsigned rep = 0; rep < reps; ++rep) {
        const double wall = fn(rep);
        if (rep == 0 || wall < best)
            best = wall;
    }
    return best;
}

/** count/wall per second; 0 when the wall time is degenerate. */
inline double
perSecond(uint64_t count, double wall)
{
    return wall <= 0.0 ? 0.0 : static_cast<double>(count) / wall;
}

/** Million events per second (the event-kernel layer's unit). */
inline double
meps(uint64_t events, double wall)
{
    return perSecond(events, wall) / 1e6;
}

/** A/B ratio fast/slow; 0 when either side is degenerate. */
inline double
speedupRatio(double fast_rate, double slow_rate)
{
    return fast_rate > 0.0 && slow_rate > 0.0
               ? fast_rate / slow_rate
               : 0.0;
}

} // namespace hypersio::bench

#endif // HYPERSIO_BENCH_COMMON_HH
