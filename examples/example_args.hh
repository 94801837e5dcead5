/**
 * @file
 * Positional arguments of the examples: a count is an integer that
 * fits 32 bits and a scale a finite positive number; anything else
 * dies with a fatal() naming the value instead of running with a
 * truncated or partly read one.
 */

#ifndef HYPERSIO_EXAMPLES_EXAMPLE_ARGS_HH
#define HYPERSIO_EXAMPLES_EXAMPLE_ARGS_HH

#include <cmath>
#include <cstdint>

#include "util/logging.hh"
#include "util/str.hh"

namespace hypersio::examples
{

inline unsigned
countArg(const char *name, const char *text)
{
    uint64_t value = 0;
    if (!parseU64(text, value) || value > UINT32_MAX)
        fatal("%s '%s' is not an integer that fits 32 bits", name,
              text);
    return static_cast<unsigned>(value);
}

inline double
scaleArg(const char *text)
{
    double value = 0.0;
    if (!parseDouble(text, value) || !std::isfinite(value) ||
        value <= 0.0)
        fatal("scale '%s' is not a finite positive number", text);
    return value;
}

} // namespace hypersio::examples

#endif // HYPERSIO_EXAMPLES_EXAMPLE_ARGS_HH
