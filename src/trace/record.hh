/**
 * @file
 * In-memory representation of translation traces.
 *
 * A *tenant log* is the per-tenant sequence of packets (with their
 * three gIOVA translation requests each) plus the page map/unmap
 * operations the tenant's driver performs. The *hyper-trace* is the
 * merged multi-tenant sequence produced by the Trace Constructor and
 * consumed by the performance model.
 */

#ifndef HYPERSIO_TRACE_RECORD_HH
#define HYPERSIO_TRACE_RECORD_HH

#include <array>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "mem/addr.hh"

namespace hypersio::trace
{

/** PCIe Source ID (Bus/Device/Function) — one per tenant VF. */
using SourceId = uint32_t;

/** Source IDs a simulated system tells apart: every SID is below. */
constexpr SourceId SidSpace = 4096;

/** The three translation requests each received packet triggers. */
enum class ReqClass : uint8_t
{
    Ring = 0,    ///< ring-buffer descriptor pointer
    Data = 1,    ///< packet data buffer
    Notify = 2,  ///< completion notification / interrupt mailbox
};

constexpr size_t NumReqClasses = 3;

/** Name of a request class, for dumps. */
const char *reqClassName(ReqClass cls);

/** A page mapping operation performed by the tenant's driver. */
struct PageOp
{
    mem::Iova pageBase = 0;
    mem::PageSize size = mem::PageSize::Size4K;
    bool isMap = true; ///< false = unmap (invalidates cached entries)
};

/**
 * One received packet and the translation work it generates. Page
 * operations ops[opBegin, opBegin+opCount) from the owning container
 * are applied when the packet is accepted by the device.
 *
 * Every trace-driven run holds each packet twice at its peak (in the
 * tenant logs and in the merged trace), so the fields are ordered by
 * size to leave no interior padding: 39 bytes of fields in 40. The
 * SID is stored in 16 bits; every writer checks it against
 * `SidSpace` before narrowing, and `SourceId` stays 32 bits in
 * every API.
 */
struct PacketRecord
{
    mem::Iova ringIova = 0;
    mem::Iova dataIova = 0;
    mem::Iova notifyIova = 0;
    uint32_t opBegin = 0;
    /**
     * Wire size of this packet in bytes; 0 means "use the link's
     * default packet size". Small packets (e.g. key-value-store
     * requests) arrive faster, leaving less time per translation.
     */
    uint32_t wireBytes = 0;
    /** Source ID, below `SidSpace`. */
    uint16_t sid = 0;
    /**
     * Process Address Space ID (Intel Scalable IOV): sub-address
     * spaces within one VF. 0 when the tenant is a whole VM.
     */
    uint16_t pasid = 0;
    uint16_t opCount = 0;
    /** True when data buffer is a 2 MB (huge) page. */
    bool dataHuge = true;

    /** gIOVA of request class `cls`. */
    mem::Iova
    iova(ReqClass cls) const
    {
        switch (cls) {
          case ReqClass::Ring:
            return ringIova;
          case ReqClass::Data:
            return dataIova;
          case ReqClass::Notify:
            return notifyIova;
        }
        return 0;
    }

    /** Page size of request class `cls`. */
    mem::PageSize
    pageSize(ReqClass cls) const
    {
        return cls == ReqClass::Data && dataHuge
                   ? mem::PageSize::Size2M
                   : mem::PageSize::Size4K;
    }
};

static_assert(SidSpace <= 65536,
              "PacketRecord stores a SID in 16 bits");
static_assert(sizeof(PacketRecord) == 40,
              "PacketRecord is 39 bytes of fields, ordered by size");

/** Per-tenant packet log, as the Log Collector records it. */
struct TenantLog
{
    SourceId sid = 0;
    std::vector<PacketRecord> packets;
    std::vector<PageOp> ops;

    /** Translation requests in this log (3 per packet). */
    uint64_t translations() const { return packets.size() * 3; }
};

/**
 * The merged hyper-tenant trace driving one simulation. Op indices in
 * the packet records refer to the shared `ops` pool.
 */
struct HyperTrace
{
    uint32_t numTenants = 0;
    uint64_t seed = 0;
    std::vector<PacketRecord> packets;
    std::vector<PageOp> ops;

    uint64_t translations() const { return packets.size() * 3; }

    /** Per-tenant packet counts (index = sid). */
    std::vector<uint64_t> perTenantPackets() const;
};

} // namespace hypersio::trace

#endif // HYPERSIO_TRACE_RECORD_HH
