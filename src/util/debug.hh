/**
 * @file
 * Per-component debug tracing, in the spirit of gem5's debug flags.
 *
 * Components declare a Flag object and emit tick-stamped trace lines
 * through dprintf(); nothing is printed (and the cost is one branch)
 * unless the flag was enabled by name, e.g. from the CLI:
 *
 *   hypersio_sim --debug DevTLB,IOMMU ...
 *
 * The special name "All" enables every registered flag.
 */

#ifndef HYPERSIO_UTIL_DEBUG_HH
#define HYPERSIO_UTIL_DEBUG_HH

#include <atomic>
#include <cstdarg>
#include <string>
#include <vector>

#include "util/units.hh"

namespace hypersio::debug
{

/** A named, registrable debug flag. Declare as a static object. */
class Flag
{
  public:
    Flag(const char *name, const char *desc);
    ~Flag();

    Flag(const Flag &) = delete;
    Flag &operator=(const Flag &) = delete;

    const char *name() const { return _name; }
    const char *desc() const { return _desc; }

    bool
    enabled() const
    {
        return _enabled.load(std::memory_order_relaxed);
    }

    void
    setEnabled(bool on)
    {
        _enabled.store(on, std::memory_order_relaxed);
    }

  private:
    const char *_name;
    const char *_desc;
    std::atomic<bool> _enabled{false};
};

/**
 * Enables flags by name; comma-separated lists and "All" accepted.
 * Unknown names are user errors (fatal()).
 */
void enable(const std::string &names);

/** Disables every flag (used by tests). */
void disableAll();

/** Lists all registered flags as (name, description) pairs. */
std::vector<std::pair<std::string, std::string>> listFlags();

/** True when any flag is enabled (fast global gate). */
bool anyEnabled();

/**
 * Emits one tick-stamped trace line if `flag` is enabled:
 *   "  12345: DevTLB: miss sid=3 iova=0xbbe00000"
 */
void dprintf(const Flag &flag, Tick when, const char *fmt, ...)
    __attribute__((format(printf, 3, 4), nonnull(3)));

} // namespace hypersio::debug

/** Convenience macro: evaluates arguments only when enabled. */
#define HYPERSIO_DPRINTF(flag, when, ...)                           \
    do {                                                             \
        if ((flag).enabled())                                        \
            ::hypersio::debug::dprintf((flag), (when),               \
                                       __VA_ARGS__);                 \
    } while (0)

#endif // HYPERSIO_UTIL_DEBUG_HH
