/**
 * @file
 * Shared helpers for the bench binaries: each binary regenerates one
 * table or figure of the paper or runs one extension, printing the
 * same rows/series the paper reports. The bandwidth sweeps are
 * entries in bench/figures.cc, run by its one driver.
 */

#ifndef HYPERSIO_BENCH_COMMON_HH
#define HYPERSIO_BENCH_COMMON_HH

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "hypersio/hypersio.hh"
#include "json_report.hh"
#include "util/logging.hh"
#include "util/str.hh"

namespace hypersio::bench
{

/** Wall seconds elapsed since `t0` (steady clock). */
inline double
wallSeconds(std::chrono::steady_clock::time_point t0)
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now() - t0)
        .count();
}

/** Wall-clock timer for the end-of-bench speedup line. */
class WallTimer
{
  public:
    WallTimer() : _start(std::chrono::steady_clock::now()) {}

    double seconds() const { return wallSeconds(_start); }

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

/**
 * The measured active translation set of `bench` (Figs. 8 and 11c):
 * the fully-associative entries tenant 0's 50K-packet log needs for
 * a 99.9% hit rate, searched up to 128.
 */
inline unsigned
activeSet(workload::Benchmark bench, uint64_t seed)
{
    workload::TenantLogGenerator gen(
        workload::benchmarkProfile(bench).pattern, seed);
    return workload::activeTranslationSet(gen.generate(0, 50000), 0.999,
                                          128);
}

/**
 * A `packets` budget times `scale` (a finite positive `--scale`),
 * at least one packet. A product past 64 bits is fatal: converting
 * it to an integer is undefined behaviour.
 */
inline uint64_t
scaledBudget(uint64_t packets, double scale)
{
    const double scaled = static_cast<double>(packets) * scale;
    if (scaled >= 0x1p64) {
        fatal("--scale %g takes a %llu-packet budget past 64 bits",
              scale, (unsigned long long)packets);
    }
    return scaled < 1.0 ? 1 : static_cast<uint64_t>(scaled);
}

/**
 * Prints the process's peak resident set (VmHWM) and, with a nonzero
 * `budget_mib`, dies when it exceeds the budget or cannot be read:
 * a missing VmHWM must never pass as 0 KiB, which would turn the
 * O(active) memory gate into a no-op.
 */
inline void
checkPeakRss(uint64_t budget_mib)
{
    uint64_t kib = 0;
    std::ifstream status("/proc/self/status");
    std::ostringstream text;
    if (status)
        text << status.rdbuf();
    const bool known = status && parseVmHwmKib(text.str(), kib);
    const double mib = static_cast<double>(kib) / 1024.0;
    const std::string budget =
        budget_mib ? " (budget " + std::to_string(budget_mib) + " MiB)"
                   : "";
    if (known)
        std::printf("%-26s %.1f MiB%s\n", "peak RSS (VmHWM)", mib,
                    budget.c_str());
    else
        std::printf("%-26s %s\n", "peak RSS (VmHWM)", "unavailable");
    if (budget_mib && !known) {
        fatal("--rss-budget-mb %llu requested but VmHWM is "
              "unavailable in /proc/self/status — cannot verify the "
              "RSS budget",
              (unsigned long long)budget_mib);
    }
    if (budget_mib && mib > static_cast<double>(budget_mib)) {
        fatal("peak RSS %.1f MiB exceeds the %llu MiB budget — "
              "O(active) state is broken",
              mib, (unsigned long long)budget_mib);
    }
}

// ---------------------------------------------------------------
// Timing and rate helpers (bench/layer_bench).
// ---------------------------------------------------------------

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
