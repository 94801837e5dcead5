/**
 * @file
 * Pending Translation Buffer (Section III).
 *
 * The PTB tracks every in-flight gIOVA→hPA translation on the
 * device, supporting out-of-order completion so a packet whose walk
 * is slow does not block later packets (no head-of-line blocking).
 * A packet that cannot allocate an entry at arrival time is dropped
 * and retried at the next link arrival slot.
 *
 * Each entry corresponds to one accepted packet working through its
 * (dependent) chain of translation requests: the ring-descriptor
 * pointer must be translated to learn the data-buffer address, and
 * the completion notification follows the data write — so a packet
 * holds one outstanding translation at a time, and the PTB depth
 * bounds the number of concurrently translating packets.
 */

#ifndef HYPERSIO_CORE_PTB_HH
#define HYPERSIO_CORE_PTB_HH

#include <cstdint>
#include <vector>

#include "mem/page_table.hh"
#include "trace/record.hh"
#include "util/logging.hh"
#include "util/units.hh"

namespace hypersio::core
{

/**
 * Receives packet completions from the device. The completed packet
 * identifies itself (SID, wire bytes, iovas), so one long-lived sink
 * serves every in-flight packet — unlike a per-packet closure, which
 * costs a std::function copy (and, past the small-buffer limit, a
 * heap allocation) on every accept.
 */
struct PacketCompletionSink
{
    virtual ~PacketCompletionSink() = default;
    /** All three of `packet`'s translations completed. */
    virtual void packetDone(const trace::PacketRecord &packet) = 0;
};

/**
 * One PTB entry: an accepted packet in translation. The entry IS the
 * packet's in-flight state — the parameters of the translation
 * currently on the wire live here, so per-hop events only need to
 * carry the entry index.
 */
struct PtbEntry
{
    // Ordered by size, like the packet record it copies.
    trace::PacketRecord packet;
    Tick accepted = 0;
    /** Next request class to issue (0..2), 3 = all issued. */
    unsigned nextReq = 0;
    /** Domain of the request currently outstanding. */
    mem::DomainId did = 0;
    bool busy = false;
    /** A prefetch was already triggered for this packet. */
    bool prefetchIssued = false;
    /** Request class currently outstanding (set by each resolve). */
    trace::ReqClass curCls = trace::ReqClass::Ring;
};

static_assert(sizeof(PtbEntry) == 64,
              "a PTB entry fills one cache line");

/**
 * Fixed-capacity pool of PTB entries with a free list. Allocation
 * fails when full (the caller drops the packet).
 */
class PendingTranslationBuffer
{
  public:
    explicit PendingTranslationBuffer(unsigned entries)
    {
        HYPERSIO_ASSERT(entries >= 1, "PTB needs at least one entry");
        _pool.resize(entries);
        _free.reserve(entries);
        for (unsigned i = 0; i < entries; ++i)
            _free.push_back(entries - 1 - i);
    }

    unsigned capacity() const { return static_cast<unsigned>(
        _pool.size()); }
    unsigned inUse() const
    {
        return capacity() - static_cast<unsigned>(_free.size());
    }
    bool full() const { return _free.empty(); }

    /**
     * Allocates an entry for `packet`.
     * @return entry index, or -1 when the buffer is full.
     */
    int
    allocate(const trace::PacketRecord &packet, Tick now)
    {
        if (_free.empty())
            return -1;
        const unsigned idx = _free.back();
        _free.pop_back();
        PtbEntry &entry = _pool[idx];
        entry.busy = true;
        entry.packet = packet;
        entry.nextReq = 0;
        entry.prefetchIssued = false;
        entry.accepted = now;
        return static_cast<int>(idx);
    }

    PtbEntry &
    entry(unsigned idx)
    {
        HYPERSIO_ASSERT(idx < _pool.size() && _pool[idx].busy,
                        "bad PTB index %u", idx);
        return _pool[idx];
    }

    /** Returns the entry to the free list. */
    void
    release(unsigned idx)
    {
        HYPERSIO_ASSERT(idx < _pool.size() && _pool[idx].busy,
                        "double free of PTB entry %u", idx);
        _pool[idx].busy = false;
        _free.push_back(idx);
    }

  private:
    std::vector<PtbEntry> _pool;
    std::vector<unsigned> _free;
};

} // namespace hypersio::core

#endif // HYPERSIO_CORE_PTB_HH
