/**
 * @file
 * Textual per-tenant log format — the interchange format between the
 * Log Collector stage and the Trace Constructor, mirroring how the
 * paper's HyperSIO passes QEMU-derived logs between its stages.
 *
 * One record per line:
 *
 *   # comment
 *   tenant <sid>
 *   map   <page-hex> 4K|2M
 *   unmap <page-hex> 4K|2M
 *   pkt   <ring-hex> <data-hex> 4K|2M <notify-hex> [wire-bytes]
 *
 * `map`/`unmap` lines attach to the next `pkt` line. The format is
 * deliberately simple so logs from other collectors (e.g. a real
 * QEMU trace post-processor) can be converted into it with a few
 * lines of scripting.
 */

#ifndef HYPERSIO_WORKLOAD_LOG_TEXT_HH
#define HYPERSIO_WORKLOAD_LOG_TEXT_HH

#include <iosfwd>
#include <string>

#include "trace/record.hh"

namespace hypersio::workload
{

/**
 * Writes a tenant log in the textual format. The format carries one
 * VF per file and no PASID: a packet with a non-zero PASID is
 * fatal(), naming the tenant and the packet index.
 */
void writeTextLog(const trace::TenantLog &log, std::ostream &os);

/** Writes a tenant log to a file; fatal() on I/O errors. */
void saveTextLog(const trace::TenantLog &log,
                 const std::string &path);

/**
 * Parses a textual log. Malformed lines are user errors (fatal(),
 * with the line number).
 */
trace::TenantLog parseTextLog(std::istream &is,
                              const std::string &name = "<stream>");

/** Loads a textual log from a file. */
trace::TenantLog loadTextLog(const std::string &path);

} // namespace hypersio::workload

#endif // HYPERSIO_WORKLOAD_LOG_TEXT_HH
