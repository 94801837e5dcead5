/**
 * @file
 * Pooled device→chipset translation round trip.
 *
 * The demand path (device → PCIe → IOMMU → PCIe → device) used to
 * capture the request parameters and the response callback into a
 * fresh closure at every hop, heap-allocating several times per
 * translation. XlatePort keeps the whole round trip's state in one
 * pooled continuation record instead: each hop's event captures only
 * (port pointer, 32-bit slot), which stores inline both in the event
 * kernel's slab records and in std::function's small-buffer storage.
 * The record recycles the moment the response is handed back.
 */

#ifndef HYPERSIO_CORE_XLATE_PORT_HH
#define HYPERSIO_CORE_XLATE_PORT_HH

#include "core/chipset.hh"
#include "core/device.hh"
#include "iommu/iommu.hh"
#include "sim/event_queue.hh"
#include "util/pool.hh"

namespace hypersio::core
{

/**
 * One device's demand-translation port. Wire DevicePorts::translate
 * to translate(); completions return over the same PCIe latency and
 * invoke the device's response function exactly once.
 */
class XlatePort
{
  public:
    /**
     * @param history chipset-side IOVA history observer (prefetch
     *        path), or nullptr when prefetching is disabled
     */
    XlatePort(sim::EventQueue &queue, iommu::Iommu &iommu,
              HistoryReader *history, Tick pcie_one_way)
        : _queue(queue), _iommu(iommu), _history(history),
          _pcie(pcie_one_way)
    {}

    /**
     * Starts one translation round trip (DevicePorts::translate).
     * With `may_fuse` (the caller is in tail position) the outbound
     * PCIe hop collapses into a synchronous continuation when the
     * event window is clear; otherwise — and whenever anything
     * nondeterministic could interleave — it is a real event at the
     * identical (tick, priority, seq).
     */
    void
    translate(mem::DomainId did, mem::Iova iova, mem::PageSize size,
              bool may_fuse, DevicePorts::ResponseFn done)
    {
        const uint32_t op = _ops.alloc();
        Op &rec = _ops.at(op);
        rec.did = did;
        rec.iova = iova;
        rec.size = size;
        rec.done = std::move(done);
        if (may_fuse && _queue.tryFuseAdvance(_pcie)) {
            atChipset(op);
            return;
        }
        _queue.scheduleAfter(_pcie, [this, op] { atChipset(op); });
    }

    /** Round-trip records ever allocated (bounded by PTB depth). */
    size_t poolCapacity() const { return _ops.capacity(); }
    /** Round trips currently in flight. */
    size_t inFlight() const { return _ops.inUse(); }

  private:
    struct Op
    {
        mem::DomainId did = 0;
        mem::Iova iova = 0;
        mem::PageSize size = mem::PageSize::Size4K;
        DevicePorts::ResponseFn done;
    };

    /** The request arrived at the chipset: history + IOMMU lookup. */
    void
    atChipset(uint32_t op)
    {
        Op &rec = _ops.at(op);
        if (_history)
            _history->observe(rec.did, rec.iova, rec.size);
        iommu::IommuRequest req;
        req.domain = rec.did;
        req.iova = rec.iova;
        req.size = rec.size;
        // atChipset is always the tail of its event (or of a fused
        // continuation of one), so the IOMMU may fuse its hit
        // latency. The return hop may fuse only when the IOMMU says
        // the delivery itself is in tail position — a page-table
        // walk's completion fans out to coalesced waiters and may
        // start queued walks afterwards, so only its last delivery,
        // with nothing after it, may fuse.
        _iommu.translate(
            req,
            [this, op](const iommu::IommuResponse &resp) {
                if (_iommu.fusedDelivery() &&
                    _queue.tryFuseAdvance(_pcie)) {
                    respond(op, resp);
                    return;
                }
                _queue.scheduleAfter(_pcie, [this, op, resp] {
                    respond(op, resp);
                });
            },
            /*may_fuse=*/true);
    }

    /** Back at the device: recycle the record, then complete. */
    void
    respond(uint32_t op, const iommu::IommuResponse &resp)
    {
        DevicePorts::ResponseFn done = std::move(_ops.at(op).done);
        _ops.release(op);
        done(resp);
    }

    sim::EventQueue &_queue;
    iommu::Iommu &_iommu;
    HistoryReader *_history;
    Tick _pcie;
    util::SlabPool<Op> _ops;
};

} // namespace hypersio::core

#endif // HYPERSIO_CORE_XLATE_PORT_HH
