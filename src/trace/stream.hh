/**
 * @file
 * Streaming front-end for hyper-traces.
 *
 * A PacketStream presents the same packet-plus-page-ops view of a
 * workload that a materialized HyperTrace does, but one packet at a
 * time: the head packet is produced lazily, so the total trace never
 * has to exist in memory. This is what makes the hyper-scale tenant
 * regime (100K+ tenants) feasible — a materialized 100K-tenant trace
 * is tens of gigabytes, while a stream's state is O(active tenants).
 *
 * The interface also carries the tenant-churn protocol used by
 * System::runStream's eviction mode:
 *
 *   - drainDetached() surfaces SIDs whose tenant has finished and
 *     detached; the System retires their translation state
 *     (page-table directory, caches, history, predictor) once every
 *     in-flight access has drained, and then
 *   - sidRetired() confirms the retirement back to the stream, which
 *     may re-use the SID slot for the next tenant (SID recycling is
 *     how a bounded SID space hosts an unbounded tenant population).
 *
 * A stream whose peek() returns null may be merely *stalled* (every
 * slot is parked awaiting retirement) rather than exhausted();
 * runStream restarts the arrival process when a retirement unparks a
 * slot.
 */

#ifndef HYPERSIO_TRACE_STREAM_HH
#define HYPERSIO_TRACE_STREAM_HH

#include <cstddef>
#include <utility>
#include <vector>

#include "trace/record.hh"

namespace hypersio::trace
{

/** Lazy, possibly-churning source of packets and their page ops. */
class PacketStream
{
  public:
    virtual ~PacketStream() = default;

    /**
     * The head packet, or nullptr when none is currently available
     * (the stream is exhausted, or stalled awaiting retirements).
     * Repeated calls without advance() return the same packet.
     */
    virtual const PacketRecord *peek() = 0;

    /**
     * The head packet's page operations: opCount entries, with
     * opBegin always 0 (the ops belong to the head packet only).
     * Valid until the next advance()/peek() transition.
     */
    virtual const PageOp *ops() const = 0;

    /** Consumes the head packet. */
    virtual void advance() = 0;

    /**
     * True when the stream can never produce another packet. A false
     * return with a null peek() means "stalled": packets will become
     * available again once pending SID retirements are confirmed.
     */
    virtual bool exhausted() = 0;

    /** Total tenant population this stream will have presented. */
    virtual uint32_t numTenants() const = 0;

    /**
     * Appends the SIDs of tenants that detached since the last call.
     * A tenant detaches only once its final packet has been consumed
     * via advance() — never while that packet is still buffered
     * (e.g. across a full-PTB drop/retry). Default: none.
     */
    virtual void drainDetached(std::vector<SourceId> &out)
    {
        (void)out;
    }

    /**
     * The System confirms that `sid`'s translation state has been
     * fully retired; the slot may be re-bound to a new tenant.
     */
    virtual void sidRetired(SourceId sid) { (void)sid; }
};

/**
 * A materialized HyperTrace, or one link's share of it, through the
 * stream interface. System::run() drives every link through one of
 * these.
 */
class MaterializedStream : public PacketStream
{
  public:
    /** The whole trace, in order; nothing is copied. */
    explicit MaterializedStream(const HyperTrace &trace)
        : _trace(trace), _count(trace.packets.size())
    {}

    /** The trace's packets at the indices `order` lists, in order. */
    MaterializedStream(const HyperTrace &trace,
                       std::vector<uint32_t> order)
        : _trace(trace), _order(std::move(order)), _count(_order.size())
    {}

    const PacketRecord *peek() override { return at(_cursor); }

    const PageOp *
    ops() const override
    {
        return _trace.ops.data() + at(_cursor)->opBegin;
    }

    void advance() override { ++_cursor; }

    bool exhausted() override { return _cursor >= _count; }

    uint32_t numTenants() const override { return _trace.numTenants; }

  private:
    const PacketRecord *
    at(size_t k) const
    {
        if (k >= _count)
            return nullptr;
        return &_trace.packets[_order.empty() ? k : _order[k]];
    }

    const HyperTrace &_trace;
    /** Trace indices of the viewed packets; empty for the whole. */
    std::vector<uint32_t> _order;
    size_t _count;
    size_t _cursor = 0;
};

} // namespace hypersio::trace

#endif // HYPERSIO_TRACE_STREAM_HH
