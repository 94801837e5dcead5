#include "workload/log_text.hh"

#include <cstdint>
#include <fstream>
#include <sstream>

#include "util/logging.hh"
#include "util/str.hh"

namespace hypersio::workload
{

namespace
{

const char *
sizeName(mem::PageSize size)
{
    return size == mem::PageSize::Size2M ? "2M" : "4K";
}

mem::PageSize
parseSize(const std::string &text, const std::string &where,
          unsigned lineno)
{
    if (text == "4K" || text == "4k")
        return mem::PageSize::Size4K;
    if (text == "2M" || text == "2m")
        return mem::PageSize::Size2M;
    fatal("%s:%u: bad page size '%s' (expected 4K or 2M)",
          where.c_str(), lineno, text.c_str());
}

uint64_t
parseHex(const std::string &text, const std::string &where,
         unsigned lineno)
{
    uint64_t out = 0;
    if (!parseU64(text, out))
        fatal("%s:%u: bad address '%s'", where.c_str(), lineno,
              text.c_str());
    return out;
}

} // namespace

void
writeTextLog(const trace::TenantLog &log, std::ostream &os)
{
    os << "# HyperSIO tenant log\n";
    os << "tenant " << log.sid << "\n";
    for (const auto &pkt : log.packets) {
        for (uint16_t i = 0; i < pkt.opCount; ++i) {
            const trace::PageOp &op = log.ops[pkt.opBegin + i];
            os << (op.isMap ? "map   " : "unmap ") << std::hex
               << "0x" << op.pageBase << std::dec << " "
               << sizeName(op.size) << "\n";
        }
        os << "pkt   " << std::hex << "0x" << pkt.ringIova << " 0x"
           << pkt.dataIova << std::dec << " "
           << (pkt.dataHuge ? "2M" : "4K") << " " << std::hex
           << "0x" << pkt.notifyIova << std::dec;
        if (pkt.wireBytes != 0)
            os << " " << pkt.wireBytes;
        os << "\n";
    }
}

void
saveTextLog(const trace::TenantLog &log, const std::string &path)
{
    std::ofstream out(path, std::ios::trunc);
    if (!out)
        fatal("cannot open '%s' for writing", path.c_str());
    writeTextLog(log, out);
    if (!out)
        fatal("write error on '%s'", path.c_str());
}

trace::TenantLog
parseTextLog(std::istream &is, const std::string &name)
{
    trace::TenantLog log;
    std::vector<trace::PageOp> pending;
    std::string line;
    unsigned lineno = 0;
    bool saw_tenant = false;

    while (std::getline(is, line)) {
        ++lineno;
        const size_t hash = line.find('#');
        if (hash != std::string::npos)
            line.resize(hash);
        std::istringstream fields(line);
        std::string keyword;
        if (!(fields >> keyword))
            continue; // blank line

        if (keyword == "tenant") {
            uint64_t sid = 0;
            std::string value;
            if (!(fields >> value) ||
                !parseU64(value, sid))
                fatal("%s:%u: bad tenant line", name.c_str(),
                      lineno);
            if (sid > UINT32_MAX)
                fatal("%s:%u: tenant SID %llu does not fit in 32 bits",
                      name.c_str(), lineno, (unsigned long long)sid);
            if (sid >= trace::SidSpace)
                fatal("%s:%u: tenant SID %llu is outside the %u-SID "
                      "space",
                      name.c_str(), lineno, (unsigned long long)sid,
                      trace::SidSpace);
            log.sid = static_cast<trace::SourceId>(sid);
            saw_tenant = true;
        } else if (keyword == "map" || keyword == "unmap") {
            std::string addr;
            std::string size;
            if (!(fields >> addr >> size))
                fatal("%s:%u: bad %s line", name.c_str(), lineno,
                      keyword.c_str());
            pending.push_back(
                {parseHex(addr, name, lineno),
                 parseSize(size, name, lineno), keyword == "map"});
        } else if (keyword == "pkt") {
            std::string ring;
            std::string data;
            std::string size;
            std::string notify;
            if (!(fields >> ring >> data >> size >> notify))
                fatal("%s:%u: bad pkt line", name.c_str(), lineno);
            trace::PacketRecord pkt;
            pkt.sid = static_cast<uint16_t>(log.sid); // below SidSpace
            pkt.ringIova = parseHex(ring, name, lineno);
            pkt.dataIova = parseHex(data, name, lineno);
            pkt.dataHuge =
                parseSize(size, name, lineno) ==
                mem::PageSize::Size2M;
            pkt.notifyIova = parseHex(notify, name, lineno);
            std::string wire;
            if (fields >> wire) {
                uint64_t bytes = 0;
                if (!parseU64(wire, bytes))
                    fatal("%s:%u: bad wire-bytes '%s'",
                          name.c_str(), lineno, wire.c_str());
                if (bytes > UINT32_MAX)
                    fatal("%s:%u: wire-bytes %llu does not fit in 32 "
                          "bits",
                          name.c_str(), lineno,
                          (unsigned long long)bytes);
                pkt.wireBytes = static_cast<uint32_t>(bytes);
            }
            if (pending.size() > UINT16_MAX)
                fatal("%s:%u: %zu page ops before one packet; at most "
                      "%u fit",
                      name.c_str(), lineno, pending.size(),
                      unsigned(UINT16_MAX));
            pkt.opBegin = static_cast<uint32_t>(log.ops.size());
            pkt.opCount = static_cast<uint16_t>(pending.size());
            for (const auto &op : pending)
                log.ops.push_back(op);
            pending.clear();
            log.packets.push_back(pkt);
        } else {
            fatal("%s:%u: unknown record '%s'", name.c_str(),
                  lineno, keyword.c_str());
        }
    }

    if (!saw_tenant && !log.packets.empty())
        warn("text log '%s' has packets but no tenant line; "
             "sid defaults to 0",
             name.c_str());
    if (!pending.empty())
        warn("text log '%s' ends with %zu dangling map/unmap "
             "records (dropped)",
             name.c_str(), pending.size());
    return log;
}

trace::TenantLog
loadTextLog(const std::string &path)
{
    std::ifstream in(path);
    if (!in)
        fatal("cannot open text log '%s'", path.c_str());
    return parseTextLog(in, path);
}

} // namespace hypersio::workload
