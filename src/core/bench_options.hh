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

/**
 * Walks a bench command line: the one place its values are checked.
 * Each value getter reads the argument after the current flag and
 * dies with one fatal() naming the flag as given, rather than
 * narrowing a value or letting a NaN or an infinity through.
 *
 *     for (ArgReader args(argc, argv); args.next();)
 *         if (args.flag() == "--jobs") jobs = args.count();
 */
class ArgReader
{
  public:
    ArgReader(int argc, char **argv) : _argc(argc), _argv(argv) {}

    /** Moves to the next flag; false past the last. */
    bool
    next()
    {
        if (++_i >= _argc)
            return false;
        _flag = _argv[_i];
        return true;
    }

    const std::string &flag() const { return _flag; }

    /** The flag's value as given. */
    std::string value();
    /** The value as any unsigned 64-bit integer. */
    uint64_t u64();
    /** The value as an integer in [1, max]. */
    uint64_t positive(uint64_t max = UINT64_MAX);
    /** The value as a positive integer that fits `unsigned`. */
    unsigned count();
    /** The value as a finite positive number. */
    double real();

  private:
    int _argc;
    char **_argv;
    int _i = 0;
    std::string _flag;
};

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
    /** parse() over `defaults`, which the flags override. */
    static BenchOptions parse(int argc, char **argv,
                              BenchOptions defaults);
};

} // namespace hypersio::core

#endif // HYPERSIO_CORE_BENCH_OPTIONS_HH
