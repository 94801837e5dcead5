/**
 * @file
 * The assembled device–chipset–memory system and the trace runner
 * (HyperSIO's Performance Model, Section IV-C).
 *
 * The link model computes packet arrival times from the nominal
 * bandwidth and packet size; a packet that finds the PTB full is
 * dropped and retried at the next arrival slot. run() and
 * runStream() drive one arrival body: each link reads its packets
 * from a trace::PacketStream, a materialized view of the trace for
 * run(). An arrival that leaves the PTB full parks its next slot in
 * the event kernel instead of re-arming: the kernel bills each slot
 * it reaches as a drop, and the PTB release wakes the slot at its
 * reserved key (DESIGN.md §15) — the same drops, ticks and event
 * order as one event per slot. A streaming run retires a detached
 * tenant once its in-flight count (packets, prefetches and fills)
 * is zero. When the trace is exhausted
 * and all in-flight work drains, the achieved bandwidth is total
 * processed bytes divided by elapsed simulated time.
 */

#ifndef HYPERSIO_CORE_SYSTEM_HH
#define HYPERSIO_CORE_SYSTEM_HH

#include <array>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "cache/oracle_feed.hh"
#include "core/chipset.hh"
#include "core/config.hh"
#include "core/device.hh"
#include "core/run_results.hh"
#include "iommu/iommu.hh"
#include "mem/memory_model.hh"
#include "trace/record.hh"
#include "trace/stream.hh"
#include "util/json.hh"

namespace hypersio::core
{

class System;

/** Options of a streaming run (System::runStream). */
struct StreamRunOptions
{
    /**
     * Retire detached tenants: erase their page tables, history,
     * and predictor state once every in-flight access drains, then
     * confirm sidRetired() to the stream. Off, state grows with
     * every tenant ever seen, as in run(): a stream replaying a
     * trace's packets then produces run()'s results exactly.
     */
    bool evictDetached = true;

    /**
     * Interval-telemetry hook: onSnapshot(system, processed) fires
     * from the completion path each time another
     * `snapshotEveryPackets` packets have finished. The trigger is
     * simulated progress — never wall time — so capture points are
     * identical across runs, machines, and jobs counts. The callback
     * must treat the system as read-only (it runs between events of
     * the simulation it is observing); the snapshotting-vs-off
     * byte-identity test in tests/test_soak.cc holds runStream to
     * producing bit-identical results either way. 0 disables.
     */
    uint64_t snapshotEveryPackets = 0;
    std::function<void(const System &, uint64_t)> onSnapshot;

    /**
     * Invoked once at runStream() entry, on the thread that will run
     * the simulation — the hook for per-shard thread-local setup
     * (PanicContext repro lines, wall timers) when shards run on a
     * worker pool.
     */
    std::function<void(const System &)> onRunStart;
};

/**
 * One tenant retirement, stamped with the kernel's (tick, seq) key
 * at retirement time. Per-shard retirement logs are merged into a
 * deterministic global timeline by ShardedMultiSystem using
 * (tick, shard, seq, index) — the slab kernel's ordering rule.
 */
struct StreamRetirement
{
    Tick tick = 0;
    uint64_t seq = 0; ///< EventQueue::scheduledSeq() at retirement
    trace::SourceId sid = 0;

    bool operator==(const StreamRetirement &) const = default;
};

/**
 * One simulated system instance. Construct, then run() a trace.
 * run() may be called once per System (state is not reset between
 * traces; build a fresh System per experiment point).
 *
 * A System may hold several identical devices, one per host link, as
 * in the paper's Fig. 1 multi-host sharing scenario: every device
 * keeps its own link, PTB, DevTLB, Prefetch Unit and History Reader,
 * while the IOMMU, paging caches and memory are shared, so they see
 * the union of all devices' traffic. Tenant t drives device t % N.
 */
class System : private Device::CompletionSink,
               private sim::ParkedSlotSink,
               private ChipsetPort,
               private iommu::TranslationSink
{
  public:
    /**
     * @param devices device (and host link) count. With one, the
     *        device's stats sit under the root (`device`,
     *        `history_reader`); with more, under `dev0`, `dev1`, ...
     */
    explicit System(const SystemConfig &config, unsigned devices = 1);
    ~System();

    System(const System &) = delete;
    System &operator=(const System &) = delete;

    /**
     * Simulates the full trace and returns the results. With several
     * devices the results aggregate over them: bytes, packets and
     * hit counts are summed, and utilization is relative to N times
     * the link rate.
     * @param bypass_translation "native" mode: packets complete at
     *        link rate without any address translation (used by the
     *        Fig. 5 motivation experiment)
     */
    RunResults run(const trace::HyperTrace &trace,
                   bool bypass_translation = false);

    /**
     * Simulates a lazily produced packet stream through the same
     * arrival body as run(). With eviction on, tenants the stream
     * detaches are fully retired — page tables erased, cached
     * translations invalidated, history and predictor state dropped
     * — keeping total state O(active tenants) regardless of the
     * tenant population; snapshots and stall/restart are likewise
     * runStream-only.
     *
     * Not supported with Oracle DevTLB replacement (the Belady feed
     * needs the full trace up front), nor with several devices (one
     * stream head cannot feed N links without buffering).
     */
    RunResults runStream(trace::PacketStream &stream,
                         const StreamRunOptions &opts = {});

    /** Retirement log of the last runStream (merge rule input). */
    const std::vector<StreamRetirement> &streamRetirements() const
    {
        return _streamRetirements;
    }

    const SystemConfig &config() const { return _config; }

    /** Dumps the full statistics tree of the last run. */
    void dumpStats(std::ostream &os) const;

    /** Same tree as JSON; indent 0 writes one compact line. */
    void dumpStatsJson(std::ostream &os, unsigned indent = 2) const;

    /** The statistics tree (JSON capture, tests). */
    const stats::StatGroup &statsRoot() const { return _stats; }

    /** Direct access for tests (device 0 with several). */
    Device &device() { return *_links[0].device; }
    iommu::Iommu &iommuUnit() { return *_iommu; }
    sim::EventQueue &eventQueue() { return _queue; }
    /** Read-only queue access (snapshot callbacks read now()). */
    const sim::EventQueue &eventQueue() const { return _queue; }
    /** The run's functional page tables (shadow checking, tests). */
    const iommu::PageTableDirectory &tables() const { return _tables; }
    /** Device 0's history reader, if prefetching is on (tests). */
    const HistoryReader *historyReader() const
    {
        return _links[0].historyReader.get();
    }

  private:
    /** One device, its History Reader, and its host link. */
    struct Link
    {
        std::unique_ptr<HistoryReader> historyReader;
        std::unique_ptr<cache::OracleFeed> oracleFeed;
        std::unique_ptr<Device> device;
        /** Parent of the device's stats: the root, or `devN`. */
        stats::StatGroup *stats = nullptr;

        /** The link's packets during a run; null when it has none. */
        trace::PacketStream *stream = nullptr;
        /** Arrival process parked on a stalled stream. */
        bool stalled = false;
        /** Next arrival slot, parked behind a full PTB. */
        sim::ParkHandle parked;
    };

    /** The link tenant `sid` drives. */
    Link &linkOf(trace::SourceId sid)
    {
        return _links[sid % _links.size()];
    }

    /**
     * Device completion: bytes and SID come from the completed
     * packet itself, so accept() needs no per-packet closure.
     */
    void packetDone(const trace::PacketRecord &pkt) override;
    /** Parked arrival slots reached while the PTB stayed full. */
    void slotsRefused(uint64_t n) override;

    void applyOps(const trace::PacketRecord &pkt,
                  const trace::PageOp *ops);
    /**
     * Builds each link's Belady feed in one pass over the trace, then
     * its device.
     */
    void buildOracleDevices(const trace::HyperTrace &trace);
    // ---- The chipset side of every device's translation path ------
    /** Demand request, device → PCIe → History Reader + IOMMU. */
    void translate(const iommu::IommuRequest &req,
                   bool may_fuse) override;
    /** SID-predictor prefetch, device → PCIe → History Reader. */
    void prefetch(uint16_t device, mem::DomainId did) override;
    /** MMU-aware prefetch, device → PCIe → IOMMU. */
    void prefetchPage(const iommu::IommuRequest &req) override;
    /**
     * Every IOMMU answer, routed by its requester tag: a demand
     * answer crosses PCIe back to its device's PTB slot (fused when
     * `tail`), a prefetch answer becomes a prefetch fill of its
     * device and releases its MMU prefetch or, with its last page,
     * its History Reader burst.
     */
    void translated(const iommu::IommuRequest &req,
                    const iommu::IommuResponse &resp,
                    bool tail) override;
    /** A demand request reached the chipset: history + IOMMU. */
    void atChipset(const iommu::IommuRequest &req);
    /** This system as its devices' port and the IOMMU's sink (the
     *  bases are private, so the conversions happen here). */
    ChipsetPort &chipsetPort() { return *this; }
    iommu::TranslationSink &translationSink() { return *this; }
    /**
     * Sends a completed prefetch translation back to `link`'s device
     * over PCIe, held in its tenant's in-flight count and recorded
     * for squashing by the device — shared by the History-Reader
     * fill path and the MMU-prefetch completion path.
     */
    void dispatchPrefetchFill(Link &link, mem::DomainId did,
                              mem::Iova iova, mem::PageSize size,
                              mem::Addr host_addr);
    uint64_t wireBytesOf(const trace::PacketRecord &pkt) const;
    /** Ticks `pkt` occupies its arrival slot for. */
    Tick slotTicks(const trace::PacketRecord &pkt) const;
    /**
     * Runs every link's arrival process over its stream until the
     * queue drains (and, when retiring tenants, until every stalled
     * stream is finished), then collects the results.
     */
    RunResults runLinks(uint64_t first_wire_bytes);
    /**
     * The one arrival body: admits `link`'s head packet, or refuses
     * it on a full PTB (or completes it untranslated in native mode),
     * then re-arms one slot of the next head packet later — parked
     * while the PTB is full.
     */
    void arrive(Link &link);
    /** Results from the run counters. */
    RunResults collectResults(uint64_t first_wire_bytes);
    /** The oracle's end-of-run cross-check (single device only). */
    void shadowRunCompleted();

    // ---- Streaming-run eviction machinery ----------------------------
    /** Drains detach notices and retires every SID that can go. */
    void serviceRetirements();
    /**
     * Retires `sid` unless its in-flight count is nonzero.
     * @return true when retired
     */
    bool tryRetireSid(trace::SourceId sid);
    /** Tears down one domain through the regular unmap path. */
    void retireDomain(mem::DomainId did);
    /** One more piece of `sid`'s work is in flight. */
    void hold(trace::SourceId sid);
    /**
     * One piece of `sid`'s work ended. The last one, with a
     * retirement pending, wakes the parked arrival slot, where
     * serviceRetirements() runs.
     */
    void release(trace::SourceId sid);
    /**
     * Re-arms `link`'s arrival process after a stall, if unparked.
     * @return true when it re-armed
     */
    bool maybeRestartArrival(Link &link);

    SystemConfig _config;
    sim::EventQueue _queue;
    stats::StatGroup _stats;
    std::unique_ptr<mem::MemoryModel> _memory;
    iommu::PageTableDirectory _tables;
    std::unique_ptr<iommu::Iommu> _iommu;
    /** Sized once by the constructor: events capture Link addresses. */
    std::vector<Link> _links;

    // Run state, summed over the links.
    bool _ran = false;
    /** Native mode of the running run() (no translation). */
    bool _bypass = false;
    Tick _slotInterval = 0; ///< arrival slot of a default-size packet
    uint64_t _processed = 0;
    uint64_t _dropped = 0;
    uint64_t _bytesProcessed = 0;
    Tick _lastCompletion = 0;

    // Streaming-run state (runStream only; inert during run()).
    bool _evictStream = false;
    /** Snapshot cadence/hook of the active streaming run. */
    uint64_t _snapshotEvery = 0;
    std::function<void(const System &, uint64_t)> _onSnapshot;
    /** Detached SIDs awaiting retirement, in detach order. */
    std::vector<trace::SourceId> _pendingRetire;
    /**
     * Work in flight per SID, the one retirement gate: accepted
     * packets until completion, History Reader bursts until their
     * last translation, MMU prefetches until the IOMMU answers, and
     * prefetch fills until they reach the device. Counted in every
     * run; only runStream retires.
     */
    std::array<uint32_t, iommu::ContextCache::SidSpace> _inFlight{};
    std::vector<StreamRetirement> _streamRetirements;
    /**
     * Retirement scratch, cleared per call and kept at capacity: a
     * retiring SID's sorted domains (tryRetireSid) and a dying
     * table's sorted pages (retireDomain). Two vectors, not one,
     * because retireDomain runs inside tryRetireSid's loop over the
     * domains.
     */
    std::vector<mem::DomainId> _retireDids;
    std::vector<std::pair<mem::Iova, mem::PageSize>> _retirePages;
};

} // namespace hypersio::core

#endif // HYPERSIO_CORE_SYSTEM_HH
