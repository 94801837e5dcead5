/**
 * @file
 * Lazy streaming workload generators for the hyper-scale regime.
 *
 * The materialized path (generateLogs + constructTrace) builds every
 * tenant's full packet log in memory before the simulation starts,
 * which caps experiments near 1024 tenants. The generators here
 * present workloads one packet at a time from per-tenant
 * TenantStreams (workload/tenant_model.hh), the same state machine
 * generateLogs drains:
 *
 *  - SpliceStream replays generateLogs + constructTrace lazily: the
 *    same per-tenant streams (tenantStreams()) plus the interleaving
 *    cursor, so memory is O(tenants) small states instead of
 *    O(total packets).
 *  - ChurnStream hosts an unbounded tenant *population* on a bounded
 *    set of SID slots: when a tenant's stream ends, the slot is
 *    parked and its SID reported as detached; once the System
 *    confirms retirement (sidRetired), the slot is re-bound to the
 *    next virtual tenant with a fresh per-tenant seed. This is the
 *    arrival/departure-storm workload of the 100K+ tenant regime —
 *    total state is O(active slots), never O(population).
 */

#ifndef HYPERSIO_WORKLOAD_STREAMING_HH
#define HYPERSIO_WORKLOAD_STREAMING_HH

#include <cstdint>
#include <vector>

#include "trace/constructor.hh"
#include "trace/stream.hh"
#include "util/rng.hh"
#include "workload/benchmarks.hh"

namespace hypersio::workload
{

/**
 * Lazy equivalent of constructTrace(generateLogs(bench, tenants,
 * seed, scale), mode): the same per-tenant streams, the same
 * interleaving decisions, the same packets. Tenant count is bounded
 * by the SID space (iommu::ContextCache::SidSpace); use ChurnStream
 * beyond that.
 */
class SpliceStream : public trace::PacketStream
{
  public:
    SpliceStream(Benchmark bench, unsigned num_tenants, uint64_t seed,
                 const trace::Interleaving &mode, double scale = 1.0);

    const trace::PacketRecord *peek() override;
    const trace::PageOp *ops() const override { return _ops.data(); }
    void advance() override { _hasCur = false; }
    bool exhausted() override;
    uint32_t numTenants() const override { return _numTenants; }

  private:
    void produce();

    std::vector<TenantStream> _tenants;
    uint32_t _numTenants;
    trace::TurnCursor _turns;

    trace::PacketRecord _pkt;
    std::vector<trace::PageOp> _ops;
    bool _hasCur = false;
    bool _done = false;
};

/** Knobs of a tenant-churn storm. */
struct ChurnConfig
{
    Benchmark bench = Benchmark::Iperf3;
    /** Total virtual tenants presented over the run. */
    unsigned population = 1024;
    /** Concurrently attached SID slots (bounded, < SidSpace). */
    unsigned slots = 64;
    uint64_t seed = 42;
    /**
     * Per-tenant packet budgets: uniform in [minBudget, maxBudget],
     * except a tailProb fraction of heavy hitters drawing from
     * [tailMin, tailMax] — the long-tail SID distribution.
     */
    uint64_t minBudget = 64;
    uint64_t maxBudget = 192;
    double tailProb = 0.04;
    uint64_t tailMin = 1024;
    uint64_t tailMax = 3072;
    /** Consecutive packets per slot turn (round-robin burst). */
    unsigned burst = 1;
    /** Emit each tenant's init phase (the attach storm). */
    bool includeInit = true;
};

/**
 * Streaming arrival/departure-storm workload: `population` virtual
 * tenants multiplexed over `slots` SID slots. Each virtual tenant v
 * runs the benchmark's Fig. 8 pattern under its own derived seed, so
 * a recycled SID carries a genuinely different tenant. A slot whose
 * tenant finishes is parked (reported via drainDetached) until the
 * System confirms sidRetired; peek() returns null while every slot is
 * parked — the stream is stalled, not exhausted.
 */
class ChurnStream : public trace::PacketStream
{
  public:
    explicit ChurnStream(const ChurnConfig &config);

    const trace::PacketRecord *peek() override;
    const trace::PageOp *ops() const override { return _ops.data(); }
    void advance() override;
    bool exhausted() override;
    uint32_t numTenants() const override { return _cfg.population; }
    void drainDetached(std::vector<trace::SourceId> &out) override;
    void sidRetired(trace::SourceId sid) override;

    /** Effective SID-slot count (config slots clamped to pop.). */
    unsigned
    slots() const
    {
        return static_cast<unsigned>(_slots.size());
    }
    /** Tenants bound to a slot so far (attaches). */
    uint64_t attaches() const { return _attaches; }
    /** Detach notices queued so far. */
    uint64_t detaches() const { return _detaches; }
    /** Packets produced so far. */
    uint64_t produced() const { return _produced; }
    /** Per-tenant packet budget for virtual tenant v (long tail). */
    uint64_t budgetFor(uint64_t v) const;

  private:
    enum class SlotState
    {
        Live,   ///< bound tenant still has packets
        Parked, ///< tenant done; awaiting sidRetired
        Dead,   ///< population exhausted; slot closed
    };

    struct Slot
    {
        TenantStream stream;
        SlotState state = SlotState::Parked;
        uint64_t virtualId = 0;
    };

    void bind(unsigned slot, uint64_t virtual_id);
    void produce();
    void advanceCursor();

    ChurnConfig _cfg;
    TenantPattern _pattern;
    std::vector<Slot> _slots;
    uint64_t _nextVirtual = 0;
    unsigned _dead = 0;

    unsigned _cursor = 0;
    unsigned _burstPos = 0;
    /** Slot whose buffered packet is its tenant's last, or -1. */
    int _farewellSlot = -1;
    std::vector<trace::SourceId> _detached;

    trace::PacketRecord _pkt;
    std::vector<trace::PageOp> _ops;
    bool _hasCur = false;

    uint64_t _attaches = 0;
    uint64_t _detaches = 0;
    uint64_t _produced = 0;
};

} // namespace hypersio::workload

#endif // HYPERSIO_WORKLOAD_STREAMING_HH
