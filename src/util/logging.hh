/**
 * @file
 * Status-message and error-reporting helpers, in the spirit of gem5's
 * logging interface.
 *
 * `panic()` is for conditions that indicate a bug in the simulator
 * itself; it aborts. `fatal()` is for user errors (bad configuration,
 * malformed trace files, invalid arguments); it exits with status 1.
 * `warn()` never stops the simulation.
 */

#ifndef HYPERSIO_UTIL_LOGGING_HH
#define HYPERSIO_UTIL_LOGGING_HH

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <mutex>
#include <sstream>
#include <string>

namespace hypersio
{

/**
 * Process-wide logger configuration. All free logging functions below
 * route through this singleton.
 *
 * The logger is shared by every simulation thread (parallel sweeps
 * run one System per worker), so the stream is an atomic and all
 * writers serialise on ioMutex() — each log line reaches the sink as
 * one uninterleaved unit.
 */
class Logger
{
  public:
    static Logger &instance();

    /** Redirect output (used by tests); nullptr restores stderr. */
    void
    setStream(std::FILE *stream)
    {
        _stream.store(stream, std::memory_order_relaxed);
    }

    std::FILE *
    stream() const
    {
        std::FILE *s = _stream.load(std::memory_order_relaxed);
        return s ? s : stderr;
    }

    /** Serialises writers so each line is emitted atomically. */
    std::mutex &ioMutex() { return _ioMutex; }

  private:
    Logger() = default;

    std::atomic<std::FILE *> _stream{nullptr};
    std::mutex _ioMutex;
};

/**
 * Thread-local one-line context printed immediately before any
 * panic() message raised on the same thread. Long-running harnesses
 * set it to a self-contained repro line (seed, shard, interval) so
 * that an assertion or shadow-oracle abort deep inside the simulator
 * still tells the user how to reproduce it — the soak harness's
 * equivalent of the fuzz harness's HYPERSIO_FUZZ_SEED line.
 */
class PanicContext
{
  public:
    /** Replaces this thread's context line; empty clears it. */
    static void set(std::string line);

    /** This thread's current context line (empty when unset). */
    static const std::string &get();
};

/** Warning about suspicious but non-fatal behaviour. */
void warn(const char *fmt, ...) __attribute__((format(printf, 1, 2)));

/**
 * Unrecoverable *user* error (bad config, bad input file). Prints the
 * message and exits with status 1.
 */
[[noreturn]] void fatal(const char *fmt, ...)
    __attribute__((format(printf, 1, 2), nonnull(1)));

/**
 * Unrecoverable *internal* error (a simulator bug). Prints the message
 * and aborts so a core dump / debugger can be used.
 */
[[noreturn]] void panic(const char *fmt, ...)
    __attribute__((format(printf, 1, 2), nonnull(1)));

/** panic() unless `cond` holds; message describes the broken invariant. */
#define HYPERSIO_ASSERT(cond, fmt, ...)                                     \
    do {                                                                    \
        if (!(cond)) {                                                      \
            ::hypersio::panic("assertion '%s' failed at %s:%d: " fmt,       \
                              #cond, __FILE__, __LINE__,                    \
                              ##__VA_ARGS__);                               \
        }                                                                   \
    } while (0)

} // namespace hypersio

#endif // HYPERSIO_UTIL_LOGGING_HH
