/**
 * @file
 * Small string utilities: splitting, trimming, and number parsing used
 * by the command-line and config-file front ends.
 */

#ifndef HYPERSIO_UTIL_STR_HH
#define HYPERSIO_UTIL_STR_HH

#include <cstdarg>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace hypersio
{

/** Splits `text` at every occurrence of `sep`; keeps empty fields. */
std::vector<std::string> split(std::string_view text, char sep);

/** Removes leading and trailing whitespace. */
std::string_view trim(std::string_view text);

/**
 * Parses an unsigned integer, accepting decimal, 0x-hex, and the
 * suffixes k/m/g (powers of 1024). Returns false on malformed input.
 */
bool parseU64(std::string_view text, uint64_t &out);

/** Parses a double. Returns false on malformed input. */
bool parseDouble(std::string_view text, double &out);

/**
 * Extracts the peak-resident-set high-water mark (the "VmHWM:" field,
 * in KiB) from a /proc/self/status blob. Returns false when the field
 * is absent or malformed — callers gating on a memory budget must
 * treat that as "no measurement", not as 0 KiB.
 */
bool parseVmHwmKib(std::string_view status_text, uint64_t &out);

/**
 * Extracts the current resident set (the "VmRSS:" field, in KiB) from
 * a /proc/self/status blob, under the same strict-parse contract as
 * parseVmHwmKib. The soak harness samples this per interval — unlike
 * the high-water mark, it can fall, which is what makes a monotonic
 * trajectory a leak signal.
 */
bool parseVmRssKib(std::string_view status_text, uint64_t &out);

/** printf-style formatting into a std::string. */
std::string strprintf(const char *fmt, ...)
    __attribute__((format(printf, 1, 2)));
/** strprintf() over a va_list; `args` is consumed. */
std::string vstrprintf(const char *fmt, va_list args)
    __attribute__((format(printf, 1, 0)));

/** Formats a byte count with a human-readable suffix (e.g. "2MiB"). */
std::string formatBytes(uint64_t bytes);

} // namespace hypersio

#endif // HYPERSIO_UTIL_STR_HH
