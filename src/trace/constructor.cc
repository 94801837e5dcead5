#include "trace/constructor.hh"

#include <algorithm>
#include <cctype>

#include "util/logging.hh"
#include "util/str.hh"

namespace hypersio::trace
{

std::string
Interleaving::name() const
{
    const char *base =
        kind == InterleaveKind::RoundRobin ? "RR" : "RAND";
    return strprintf("%s%u", base, burst);
}

Interleaving
parseInterleaving(const std::string &text)
{
    std::string upper;
    for (char c : text)
        upper.push_back(static_cast<char>(
            std::toupper(static_cast<unsigned char>(c))));

    Interleaving mode;
    size_t prefix_len = 0;
    if (upper.rfind("RAND", 0) == 0) {
        mode.kind = InterleaveKind::Random;
        prefix_len = 4;
    } else if (upper.rfind("RR", 0) == 0) {
        mode.kind = InterleaveKind::RoundRobin;
        prefix_len = 2;
    } else {
        fatal("bad interleaving '%s' (expected RR<n> or RAND<n>)",
              text.c_str());
    }

    uint64_t burst = 1;
    if (prefix_len < upper.size()) {
        if (!parseU64(upper.substr(prefix_len), burst) || burst == 0 ||
            burst > UINT32_MAX)
            fatal("bad interleaving burst in '%s'", text.c_str());
    }
    mode.burst = static_cast<unsigned>(burst);
    return mode;
}

HyperTrace
constructTrace(const std::vector<TenantLog> &logs,
               const Interleaving &mode)
{
    // Tenants are renumbered to dense SIDs 0..N-1, so N logs need N
    // SIDs.
    if (logs.size() > SidSpace)
        fatal("trace constructor: %zu tenant logs, but the SID space "
              "holds %u",
              logs.size(), SidSpace);
    HyperTrace trace;
    trace.numTenants = static_cast<uint32_t>(logs.size());
    if (logs.empty())
        return trace;

    size_t min_packets = SIZE_MAX;
    size_t total_packets = 0;
    for (const auto &log : logs) {
        min_packets = std::min(min_packets, log.packets.size());
        total_packets += log.packets.size();
    }
    if (min_packets == 0) {
        warn("trace constructor: a tenant log is empty; "
             "result is empty");
        return trace;
    }

    // Upper bound; the actual cut happens when the shortest log
    // drains, so reserve conservatively.
    trace.packets.reserve(
        std::min(total_packets, min_packets * logs.size() +
                                    logs.size() * mode.burst));

    // Per-tenant read cursors.
    std::vector<size_t> cursor(logs.size(), 0);
    TurnCursor turns(mode, trace.numTenants);
    for (;;) {
        const uint32_t tenant = turns.next();
        const TenantLog &log = logs[tenant];
        if (cursor[tenant] >= log.packets.size())
            break;
        PacketRecord &pkt =
            trace.packets.emplace_back(log.packets[cursor[tenant]++]);
        pkt.sid = static_cast<uint16_t>(tenant); // dense SIDs
        // Re-home the ops into the shared pool.
        const uint32_t op_begin =
            static_cast<uint32_t>(trace.ops.size());
        for (uint16_t i = 0; i < pkt.opCount; ++i)
            trace.ops.push_back(log.ops[pkt.opBegin + i]);
        pkt.opBegin = op_begin;
    }

    return trace;
}

} // namespace hypersio::trace
