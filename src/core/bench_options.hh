/**
 * @file
 * The standard bench command line, split out of runner.hh so that
 * bench binaries (and bench/json_report.hh) that only need the
 * option block don't compile the whole experiment harness — and,
 * through it, the entire simulator — into their own translation
 * unit. That matters most for a bench whose timed loops are
 * header-inline (the event kernel's): pulling megabytes of unrelated
 * inline code into the same TU lets unit-growth inlining heuristics
 * reshape the very loops being measured.
 */

#ifndef HYPERSIO_CORE_BENCH_OPTIONS_HH
#define HYPERSIO_CORE_BENCH_OPTIONS_HH

#include <cstdint>
#include <string>

namespace hypersio::core
{

/** Worker-pool width default: hardware_concurrency, else 1. */
unsigned defaultBenchJobs();

/** Standard "--quick/--full/--scale/--jobs" command line for benches. */
struct BenchOptions
{
    double scale = 0.05;
    unsigned maxTenants = 1024;
    uint64_t seed = 42;
    unsigned jobs = defaultBenchJobs();
    bool verbose = false;
    /** `--json <file>`: machine-readable report destination. */
    std::string jsonPath;

    /** Parses argv; fatal() on unknown flags. */
    static BenchOptions parse(int argc, char **argv);
};

} // namespace hypersio::core

#endif // HYPERSIO_CORE_BENCH_OPTIONS_HH
