/**
 * @file
 * Synthetic per-tenant I/O access-pattern model.
 *
 * Substitutes for the paper's QEMU-derived Log Collector. The model
 * is parameterised directly by the paper's single-tenant
 * characterisation (Section IV-D):
 *
 *  - Group 1: one hot 4 KB page holding the ring-buffer descriptors,
 *    translated for every arriving packet (~30x more frequent than
 *    any data page). A second fixed 4 KB page is the interrupt
 *    mailbox, also touched per packet.
 *  - Group 2: N (paper: 32) 2 MB data-buffer pages; each is accessed
 *    ~1500 times in a row before the driver unmaps it and moves to
 *    the next (a ring of buffers), producing the periodic pattern of
 *    Fig. 8b. Several concurrent streams (connections) interleave
 *    their own sequential walks, enlarging the active set.
 *  - Group 3: ~70 cold 4 KB initialisation pages, each accessed
 *    <100 times right after NIC init.
 *
 * All tenants use the *same* gIOVA values (same guest OS + driver
 * version), which is what makes translations from different tenants
 * conflict in shared caching structures.
 */

#ifndef HYPERSIO_WORKLOAD_TENANT_MODEL_HH
#define HYPERSIO_WORKLOAD_TENANT_MODEL_HH

#include <cstdint>
#include <string>
#include <vector>

#include "mem/addr.hh"
#include "trace/record.hh"
#include "util/rng.hh"

namespace hypersio::workload
{

/** Tunable knobs of the per-tenant access-pattern model. */
struct TenantPattern
{
    /**
     * Group 1: the NIC control page (hot). Ring descriptors occupy
     * its lower part and the completion/interrupt mailbox its upper
     * part, so both the ring-pointer and the notification request of
     * every packet translate inside this one page — matching the
     * single 30x-hotter group-1 page of Fig. 8a.
     */
    mem::Iova ringPage = 0x34800000;
    /** Group 1: interrupt mailbox page; defaults into the ring page. */
    mem::Iova mailboxPage = 0x34800000;

    /** Group 2: base of the data-buffer region. */
    mem::Iova dataBase = 0xbbe00000;
    /** Group 2: number of data-buffer pages in the ring. */
    unsigned numDataPages = 32;
    /** Group 2: use 2 MB huge pages for data buffers. */
    bool hugeDataPages = true;
    /** Group 2: sequential accesses to a page before moving on. */
    unsigned accessesPerDataPage = 1500;
    /** Concurrent streams (connections) walking the buffer ring. */
    unsigned streams = 1;
    /**
     * Probability that a packet's data access jumps to a random
     * in-flight page instead of the stream head (irregularity).
     */
    double jitterProb = 0.0;
    /** Pick the stream per packet at random instead of round-robin. */
    bool randomStreamOrder = false;

    /** Group 3: base of the initialisation-page region. */
    mem::Iova initBase = 0xf0000000;
    /** Group 3: number of 4 KB init pages. */
    unsigned numInitPages = 70;
    /** Group 3: accesses per init page (paper: < 100). */
    unsigned accessesPerInitPage = 60;

    /** Payload bytes consumed from a data buffer per packet. */
    unsigned bytesPerPacket = 1400;
    /**
     * Variable wire sizes: with probability smallPacketProb a packet
     * is smallPacketBytes on the wire instead of the link default
     * (models request/response traffic like key-value stores where
     * most packets are far below the MTU). 0 disables.
     */
    unsigned smallPacketBytes = 0;
    double smallPacketProb = 0.0;
    /** Ring descriptor size in bytes (descriptor stride). */
    unsigned descriptorBytes = 16;
    /**
     * Scalable-IOV processes per tenant: each stream belongs to
     * process (stream % processesPerTenant), whose requests carry
     * that PASID and translate in their own address space. 1 keeps
     * the whole VF in a single (VM) address space.
     */
    unsigned processesPerTenant = 1;
};

/**
 * The packet generator of one tenant, one packet per next() call.
 *
 * The generator is deterministic in (pattern, sid, seed). The first
 * packets constitute the initialisation phase (group 3); steady-state
 * packets then walk the data-buffer ring. Page map operations are
 * attached to the packet that first uses a page; unmap operations are
 * attached when the driver retires a page. Its state is O(pattern),
 * whatever the packet budget, so the streaming workloads hold one
 * per live tenant.
 */
class TenantStream
{
  public:
    TenantStream() = default;

    /**
     * @param num_packets packet budget
     * @param include_init emit the initialisation phase first
     */
    TenantStream(const TenantPattern &pattern, uint64_t seed,
                 trace::SourceId sid, uint64_t num_packets,
                 bool include_init = true);

    /**
     * Produces the next packet and its page ops (pkt.opBegin is 0 and
     * ops holds pkt.opCount entries). Returns false once the packet
     * budget is exhausted.
     */
    bool next(trace::PacketRecord &pkt,
              std::vector<trace::PageOp> &ops);

    /** The rest of the budget as a materialized log. */
    trace::TenantLog drain();

    bool exhausted() const { return _emitted >= _budget; }
    uint64_t emitted() const { return _emitted; }
    uint64_t budget() const { return _budget; }

  private:
    enum class Phase
    {
        Init,
        Steady,
    };

    /** State of one connection stream walking the data-buffer ring. */
    struct StreamState
    {
        unsigned currentPage = 0;  ///< index into the tenant's page ring
        unsigned accessesLeft = 0; ///< before advancing to the next page
        uint64_t offset = 0;       ///< byte offset within the page
    };

    void startInitPage();
    void setupSteady();
    void assignPage(StreamState &st);
    void emitPacket(trace::PacketRecord &pkt,
                    std::vector<trace::PageOp> &ops,
                    mem::Iova data_iova, bool huge);
    uint64_t dataPageBytes() const;
    mem::Iova dataPageIova(unsigned idx) const;

    TenantPattern _p;
    trace::SourceId _sid = 0;
    uint64_t _budget = 0;
    Rng _rng{0};

    /** Page ops to attach to the next emitted packet. */
    std::vector<trace::PageOp> _pending;
    uint64_t _ringCursor = 0;
    unsigned _pasid = 0;
    uint64_t _emitted = 0;

    Phase _phase = Phase::Steady;
    unsigned _initPage = 0;   ///< current init page index
    unsigned _initAccesses = 0; ///< accesses drawn for that page
    unsigned _initDone = 0;   ///< accesses already emitted on it

    bool _steadyReady = false;
    std::vector<StreamState> _streams;
    std::vector<bool> _pageMapped;
    unsigned _nextFreePage = 0;
    unsigned _rrStream = 0;
};

/**
 * Access-frequency summary used to validate the model against the
 * paper's Fig. 8a (three frequency groups).
 */
struct PageAccessStats
{
    struct PageCount
    {
        mem::Iova page = 0;
        mem::PageSize size = mem::PageSize::Size4K;
        uint64_t count = 0;
    };

    std::vector<PageCount> pages; ///< sorted by descending count

    /** Pages with at least `threshold` accesses. */
    size_t pagesAbove(uint64_t threshold) const;
};

/** Counts per-page translation-request frequencies of a log. */
PageAccessStats analyzeLog(const trace::TenantLog &log);

/**
 * Measures the empirical active-translation-set size of a log: the
 * minimum number of fully-associative entries (with LRU) needed to
 * reach a hit rate of at least `target_hit_rate` over the steady
 * state. This mirrors the paper's "active translation set" notion
 * (Section V-C).
 */
unsigned activeTranslationSet(const trace::TenantLog &log,
                              double target_hit_rate = 0.999,
                              unsigned max_entries = 128);

} // namespace hypersio::workload

#endif // HYPERSIO_WORKLOAD_TENANT_MODEL_HH
