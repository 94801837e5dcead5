#include "trace/trace_file.hh"

#include <cstdio>
#include <cstring>
#include <fstream>
#include <ostream>
#include <type_traits>

#include "util/logging.hh"
#include "util/str.hh"

namespace hypersio::trace
{

namespace
{

constexpr uint32_t TraceMagic = 0x4f495348; // 'HSIO'
constexpr uint32_t TraceVersion = 3;

enum FileKind : uint32_t
{
    KindTenantLog = 0,
    KindHyperTrace = 1,
};

struct Header
{
    uint32_t magic;
    uint32_t version;
    uint32_t kind;
    uint32_t tenantsOrSid;
    uint64_t seed;
    uint64_t npackets;
    uint64_t nops;
};

struct PacketWire
{
    uint32_t sid;
    uint32_t opBegin;
    uint16_t opCount;
    uint8_t dataHuge;
    uint8_t pad = 0;
    uint32_t wireBytes;
    uint16_t pasid;
    uint16_t pad2 = 0;
    uint32_t pad3 = 0;
    uint64_t ringIova;
    uint64_t dataIova;
    uint64_t notifyIova;
};

struct OpWire
{
    uint64_t pageBase;
    uint8_t size;
    uint8_t isMap;
    uint8_t pad[6] = {};
};

// Every byte of a record is a named, initialized field, so a written
// trace holds no stray stack bytes and is reproducible byte for byte.
static_assert(sizeof(PacketWire) == 48);
static_assert(std::has_unique_object_representations_v<PacketWire>);
static_assert(sizeof(OpWire) == 16);
static_assert(std::has_unique_object_representations_v<OpWire>);

PacketWire
toWire(const PacketRecord &pkt)
{
    return {pkt.sid,       pkt.opBegin,  pkt.opCount,
            pkt.dataHuge,  0,            pkt.wireBytes,
            pkt.pasid,     0,            0,
            pkt.ringIova,  pkt.dataIova, pkt.notifyIova};
}

PacketRecord
fromWire(const PacketWire &w)
{
    // readPackets has refused a SID outside SidSpace.
    PacketRecord pkt;
    pkt.sid = static_cast<uint16_t>(w.sid);
    pkt.opBegin = w.opBegin;
    pkt.opCount = w.opCount;
    pkt.dataHuge = w.dataHuge != 0;
    pkt.wireBytes = w.wireBytes;
    pkt.pasid = w.pasid;
    pkt.ringIova = w.ringIova;
    pkt.dataIova = w.dataIova;
    pkt.notifyIova = w.notifyIova;
    return pkt;
}

void
writePackets(std::ofstream &out, const std::vector<PacketRecord> &pkts,
             const std::vector<PageOp> &ops)
{
    for (const auto &pkt : pkts) {
        PacketWire w = toWire(pkt);
        out.write(reinterpret_cast<const char *>(&w), sizeof(w));
    }
    for (const auto &op : ops) {
        OpWire w{op.pageBase, static_cast<uint8_t>(op.size),
                 static_cast<uint8_t>(op.isMap ? 1 : 0), {}};
        out.write(reinterpret_cast<const char *>(&w), sizeof(w));
    }
}

/** Bytes from the read position of `in` to the end of the file. */
uint64_t
bytesLeft(std::ifstream &in)
{
    const std::streampos here = in.tellg();
    in.seekg(0, std::ios::end);
    const std::streampos end = in.tellg();
    in.seekg(here);
    return static_cast<uint64_t>(end - here);
}

void
readPackets(std::ifstream &in, uint64_t npackets, uint64_t nops,
            std::vector<PacketRecord> &pkts, std::vector<PageOp> &ops,
            const std::string &path)
{
    // saveTrace writes exactly the header and the two arrays, so the
    // header's counts must account for every byte that follows it;
    // checking before allocating keeps a corrupt count from asking
    // for an absurd vector.
    uint64_t pkt_bytes = 0;
    uint64_t op_bytes = 0;
    uint64_t need = 0;
    const uint64_t left = bytesLeft(in);
    if (__builtin_mul_overflow(npackets, sizeof(PacketWire),
                               &pkt_bytes) ||
        __builtin_mul_overflow(nops, sizeof(OpWire), &op_bytes) ||
        __builtin_add_overflow(pkt_bytes, op_bytes, &need) ||
        need != left)
        fatal("'%s': header counts %llu packets and %llu page ops, "
              "which do not match the %llu bytes after the header "
              "(truncated or corrupt trace file)",
              path.c_str(), (unsigned long long)npackets,
              (unsigned long long)nops, (unsigned long long)left);

    // Bulk-read each wire array with one sized read instead of one
    // stream extraction per record, then convert in memory.
    std::vector<PacketWire> pkt_wire(npackets);
    if (npackets > 0) {
        in.read(reinterpret_cast<char *>(pkt_wire.data()),
                static_cast<std::streamsize>(pkt_bytes));
        if (!in)
            fatal("read error on '%s'", path.c_str());
    }
    pkts.reserve(npackets);
    for (const PacketWire &w : pkt_wire) {
        if (w.sid >= SidSpace)
            fatal("'%s': packet %llu's SID %u is outside the %u-SID "
                  "space",
                  path.c_str(), (unsigned long long)pkts.size(), w.sid,
                  SidSpace);
        if (uint64_t(w.opBegin) + w.opCount > nops)
            fatal("'%s': packet %llu's page ops [%llu, %llu) run past "
                  "the file's %llu ops",
                  path.c_str(), (unsigned long long)pkts.size(),
                  (unsigned long long)w.opBegin,
                  (unsigned long long)(uint64_t(w.opBegin) + w.opCount),
                  (unsigned long long)nops);
        pkts.push_back(fromWire(w));
    }

    std::vector<OpWire> op_wire(nops);
    if (nops > 0) {
        in.read(reinterpret_cast<char *>(op_wire.data()),
                static_cast<std::streamsize>(op_bytes));
        if (!in)
            fatal("read error on '%s'", path.c_str());
    }
    ops.reserve(nops);
    for (const OpWire &w : op_wire) {
        if (w.size > 1)
            fatal("corrupt page-op size in '%s'", path.c_str());
        ops.push_back({w.pageBase, static_cast<mem::PageSize>(w.size),
                       w.isMap != 0});
    }
}

Header
readHeader(std::ifstream &in, const std::string &path,
           uint32_t expected_kind)
{
    Header hdr;
    in.read(reinterpret_cast<char *>(&hdr), sizeof(hdr));
    if (!in)
        fatal("cannot read header of '%s'", path.c_str());
    if (hdr.magic != TraceMagic)
        fatal("'%s' is not a HyperSIO trace (bad magic)", path.c_str());
    if (hdr.version != TraceVersion)
        fatal("'%s': unsupported trace version %u (expected %u)",
              path.c_str(), hdr.version, TraceVersion);
    if (hdr.kind != expected_kind)
        fatal("'%s': wrong trace kind %u (expected %u)", path.c_str(),
              hdr.kind, expected_kind);
    return hdr;
}

} // namespace

void
saveTrace(const HyperTrace &trace, const std::string &path)
{
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    if (!out)
        fatal("cannot open '%s' for writing", path.c_str());
    Header hdr{TraceMagic,   TraceVersion,
               KindHyperTrace, trace.numTenants,
               trace.seed,   trace.packets.size(),
               trace.ops.size()};
    out.write(reinterpret_cast<const char *>(&hdr), sizeof(hdr));
    writePackets(out, trace.packets, trace.ops);
    if (!out)
        fatal("write error on '%s'", path.c_str());
}

HyperTrace
loadTrace(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        fatal("cannot open trace '%s'", path.c_str());
    Header hdr = readHeader(in, path, KindHyperTrace);
    HyperTrace trace;
    trace.numTenants = hdr.tenantsOrSid;
    trace.seed = hdr.seed;
    readPackets(in, hdr.npackets, hdr.nops, trace.packets, trace.ops,
                path);
    return trace;
}

void
saveTenantLog(const TenantLog &log, const std::string &path)
{
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    if (!out)
        fatal("cannot open '%s' for writing", path.c_str());
    Header hdr{TraceMagic,  TraceVersion,      KindTenantLog,
               log.sid,     0,                 log.packets.size(),
               log.ops.size()};
    out.write(reinterpret_cast<const char *>(&hdr), sizeof(hdr));
    writePackets(out, log.packets, log.ops);
    if (!out)
        fatal("write error on '%s'", path.c_str());
}

TenantLog
loadTenantLog(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        fatal("cannot open tenant log '%s'", path.c_str());
    Header hdr = readHeader(in, path, KindTenantLog);
    TenantLog log;
    log.sid = hdr.tenantsOrSid;
    readPackets(in, hdr.npackets, hdr.nops, log.packets, log.ops, path);
    return log;
}

void
dumpTraceText(const HyperTrace &trace, std::ostream &os,
              uint64_t max_packets)
{
    os << "# hyper-trace tenants=" << trace.numTenants
       << " packets=" << trace.packets.size()
       << " translations=" << trace.translations() << "\n";
    uint64_t n = 0;
    for (const auto &pkt : trace.packets) {
        if (n++ >= max_packets)
            break;
        for (uint16_t i = 0; i < pkt.opCount; ++i) {
            const PageOp &op = trace.ops[pkt.opBegin + i];
            os << strprintf("  op  sid=%-4u %-5s %#llx (%s)\n",
                            pkt.sid, op.isMap ? "map" : "unmap",
                            (unsigned long long)op.pageBase,
                            op.size == mem::PageSize::Size2M ? "2M"
                                                             : "4K");
        }
        os << strprintf("pkt sid=%-4u ring=%#llx data=%#llx(%s) "
                        "notify=%#llx\n",
                        pkt.sid, (unsigned long long)pkt.ringIova,
                        (unsigned long long)pkt.dataIova,
                        pkt.dataHuge ? "2M" : "4K",
                        (unsigned long long)pkt.notifyIova);
    }
}

} // namespace hypersio::trace
