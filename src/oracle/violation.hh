/**
 * @file
 * The failure path shared by the reference models' checks.
 */

#ifndef HYPERSIO_ORACLE_VIOLATION_HH
#define HYPERSIO_ORACLE_VIOLATION_HH

#include <cstdarg>
#include <optional>
#include <string>

#include "util/str.hh"

namespace hypersio::oracle
{

/**
 * A check's violation message, printf-formatted. Cold and never
 * inlined, so that a check's passing path stays small enough for the
 * compiler to inline it into its hook.
 */
[[gnu::cold, gnu::noinline, gnu::format(printf, 1, 2)]]
inline std::optional<std::string>
violation(const char *fmt, ...)
{
    va_list args;
    va_start(args, fmt);
    std::string message = vstrprintf(fmt, args);
    va_end(args);
    return message;
}

} // namespace hypersio::oracle

#endif // HYPERSIO_ORACLE_VIOLATION_HH
