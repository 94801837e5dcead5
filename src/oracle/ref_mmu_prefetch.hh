/**
 * @file
 * Untimed reference model of the MMU-aware DMA stride prefetcher
 * (the oracle twin of the MmuDma half of core::PrefetchUnit).
 *
 * One detector per (tenant, request-class) stream follows the
 * descriptor-ring access pattern: repeats of the current page carry
 * no information, a repeated page delta builds confidence, and any
 * stride or page-size break resets it. The state transitions
 * replicate PrefetchUnit::observeAccess() exactly, so every issued
 * prefetch can be checked against the slot the reference predicts.
 */

#ifndef HYPERSIO_ORACLE_REF_MMU_PREFETCH_HH
#define HYPERSIO_ORACLE_REF_MMU_PREFETCH_HH

#include <cstdint>
#include <optional>
#include <utility>

#include "mem/addr.hh"
#include "oracle/ref_table.hh"

namespace hypersio::oracle
{

/** Confidence cap; mirrors core::MaxMmuConfidence. */
constexpr unsigned RefMaxMmuConfidence = 3;

/** Stride state of one (tenant, request-class) stream. */
struct RefMmuStream
{
    mem::Iova lastPage = 0;
    int64_t stride = 0;
    unsigned confidence = 0;
    bool primed = false;
    mem::PageSize size = mem::PageSize::Size4K;
};

/** Event-driven reference of the MMU-aware stride detectors. */
class RefMmuPrefetcher
{
  public:
    void
    observe(uint32_t did, unsigned cls, mem::Iova iova,
            mem::PageSize size)
    {
        const mem::Iova page = mem::pageBase(iova, size);
        RefMmuStream &stream = _streams[streamKey(did, cls)];
        if (!stream.primed) {
            stream.primed = true;
            stream.lastPage = page;
            stream.size = size;
            return;
        }
        const int64_t delta =
            int64_t(page) - int64_t(stream.lastPage);
        if (delta == 0 && size == stream.size)
            return;
        if (delta == stream.stride && size == stream.size) {
            if (stream.confidence < RefMaxMmuConfidence)
                ++stream.confidence;
        } else {
            stream.stride = delta;
            stream.confidence = 0;
            stream.size = size;
        }
        stream.lastPage = page;
    }

    /**
     * The page a legal prefetch of `slot` (0-based) must name for
     * the (did, cls) stream, or nullopt when no prefetch is legal.
     */
    std::optional<std::pair<mem::Iova, mem::PageSize>>
    predicted(uint32_t did, unsigned cls, unsigned slot) const
    {
        const RefMmuStream *found = _streams.find(streamKey(did, cls));
        if (!found)
            return std::nullopt;
        const RefMmuStream &stream = *found;
        if (stream.confidence == 0 || stream.stride == 0)
            return std::nullopt;
        return std::make_pair(
            mem::Iova(int64_t(stream.lastPage) +
                      stream.stride * int64_t(slot) +
                      stream.stride),
            stream.size);
    }

    /** Tenant detach: the tenant's streams must all disappear. */
    void
    retire(uint32_t did)
    {
        for (unsigned cls = 0; cls < 3; ++cls)
            _streams.erase(streamKey(did, cls));
    }

    size_t streams() const { return _streams.size(); }

  private:
    static uint64_t
    streamKey(uint32_t did, unsigned cls)
    {
        return (uint64_t(did) << 2) | cls;
    }

    RefTable<RefMmuStream> _streams;
};

} // namespace hypersio::oracle

#endif // HYPERSIO_ORACLE_REF_MMU_PREFETCH_HH
