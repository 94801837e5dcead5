/**
 * @file
 * The shadow checker: an untimed differential oracle that follows a
 * timed System run event by event and asserts agreement between the
 * microarchitectural model and the reference models in src/oracle.
 *
 * The timed model reports every observable event — packet accepts,
 * drops and completions, TLB lookups/fills/invalidations, walk
 * starts and completions, prefetch training and history activity —
 * through the HYPERSIO_SHADOW hooks (see oracle/hooks.hh). The
 * checker verifies, on every event:
 *
 *   - hPA results: each completed walk's host address against the
 *     functional page tables (the authoritative untimed translator),
 *   - hit/miss classification and hit values of the DevTLB, Prefetch
 *     Buffer, IOTLB, and (via walk-access counts) the L2/L3 paging
 *     caches, against exact event-driven mirrors,
 *   - PTag row legality of every partitioned-cache access,
 *   - PTB occupancy bounds and slot discipline (allocate / release /
 *     drop-only-when-full),
 *   - SID predictions against the definition-level reference
 *     predictor, and prefetched pages against the reference history,
 *   - walker-slot bounds and MSHR coalescing discipline,
 *   - unmap semantics: a driver unmap must leave no cached final
 *     translation of the page behind,
 *   - end-of-run accounting: three translations per processed
 *     packet, an empty PTB, and mirror/timed occupancy agreement.
 *
 * The reference state is flat (see DESIGN.md §17): the mirrors, the
 * MSHR set, the predictor, the history and the MMU streams keep it in
 * the oracle's own RefTable or in arrays sized by the geometry, never
 * in the model's containers. A passing check formats no string, and
 * only a violation leaves the inline record() for the cold
 * recordViolation().
 *
 * The checker is observation-only: it never feeds anything back into
 * the timed model, so a checked run's results are byte-identical to
 * an unchecked one. In fail-fast mode (the default for the
 * auto-installed checker) the first violation panics with a
 * diagnostic; in collecting mode (tests, fuzzing) violations
 * accumulate for inspection.
 *
 * The hooks are always compiled in; a run is checked exactly when a
 * checker is installed on its thread, by a ShadowScope or by
 * System's auto-install (see shadowAutoCheckEnabled).
 *
 * Scope: one checker mirrors one System (one Device + one Iommu).
 * Installation is per thread (ShadowScope), so parallel sweep
 * workers each check their own run independently.
 */

#ifndef HYPERSIO_ORACLE_SHADOW_HH
#define HYPERSIO_ORACLE_SHADOW_HH

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "mem/addr.hh"
#include "mem/page_table.hh"
#include "oracle/ref_cache.hh"
#include "oracle/ref_mmu_prefetch.hh"
#include "oracle/ref_predictor.hh"
#include "oracle/ref_ptb.hh"
#include "oracle/ref_table.hh"

namespace hypersio::iommu
{
class PageTableDirectory;
} // namespace hypersio::iommu

namespace hypersio::oracle
{

/**
 * Geometry the reference models need, decoupled from the core
 * configuration structs so the oracle library stays below core in
 * the layering (core converts via toShadowConfig()).
 */
struct ShadowConfig
{
    size_t devtlbEntries = 0;
    size_t devtlbWays = 0;
    size_t devtlbPartitions = 1;
    size_t iotlbEntries = 0;
    size_t iotlbWays = 0;
    size_t iotlbPartitions = 1;
    size_t l2Entries = 0;
    size_t l2Ways = 0;
    size_t l2Partitions = 1;
    size_t l3Entries = 0;
    size_t l3Ways = 0;
    size_t l3Partitions = 1;
    bool prefetchEnabled = false;
    unsigned pbEntries = 0;
    unsigned historyLength = 0;
    unsigned pagesPerPrefetch = 0;
    unsigned historyDepth = 0;
    unsigned ptbEntries = 0;
    unsigned walkers = 0;
    unsigned pagingLevels = 4;
    size_t devtlbSubEntries = 1;
    size_t l2SubEntries = 1;
    size_t l3SubEntries = 1;
    /** True when the device runs the MMU-aware DMA prefetcher. */
    bool mmuPrefetch = false;
};

/** The differential oracle for one System run. */
class ShadowChecker
{
  public:
    /**
     * @param tables the run's functional page tables (authoritative
     *        hPA source); may be null, which skips only the
     *        hPA-result check
     * @param fail_fast panic on the first violation instead of
     *        collecting
     */
    ShadowChecker(const ShadowConfig &config,
                  const iommu::PageTableDirectory *tables,
                  bool fail_fast = true);

    // ---- Device events -------------------------------------------------
    void devicePacketAccepted(uint32_t sid, unsigned idx,
                              unsigned in_use);
    void devicePacketCompleted(unsigned idx, unsigned in_use);
    void devicePacketDropped();
    /**
     * `n` drops at one unchanged full PTB (a parked arrival slot's
     * refusals): one legality check, `n` events. Same
     * eventCount() as `n` devicePacketDropped() calls with nothing in
     * between; an illegal drop is recorded once, not `n` times.
     */
    void devicePacketsDropped(uint64_t n);
    void deviceSidObserved(uint32_t sid);
    void deviceSidPredicted(uint32_t sid,
                            std::optional<uint32_t> predicted);
    void devicePbLookup(mem::DomainId did, mem::Iova iova,
                        mem::PageSize size, bool hit,
                        mem::Addr value);
    void devicePbFill(mem::DomainId did, mem::Iova iova,
                      mem::PageSize size, mem::Addr value,
                      std::optional<uint64_t> evicted);
    void devicePbInvalidated(mem::DomainId did, mem::Iova iova,
                             mem::PageSize size, bool removed);
    void deviceDevtlbLookup(uint32_t sid, mem::DomainId did,
                            mem::Iova iova, mem::PageSize size,
                            size_t set, bool hit, mem::Addr value);
    void deviceDevtlbFill(uint32_t sid, mem::DomainId did,
                          mem::Iova iova, mem::PageSize size,
                          size_t set, mem::Addr value,
                          std::optional<uint64_t> evicted);
    void deviceDevtlbInvalidated(uint32_t sid, mem::DomainId did,
                                 mem::Iova iova, mem::PageSize size,
                                 bool removed);
    void deviceMmuObserved(mem::DomainId did, unsigned cls,
                           mem::Iova iova, mem::PageSize size);
    void deviceMmuPrefetchIssued(mem::DomainId did, unsigned cls,
                                 unsigned slot, mem::Iova page,
                                 mem::PageSize size);
    void deviceMmuRetired(mem::DomainId did);

    // ---- IOMMU events --------------------------------------------------
    void iommuIotlbLookup(mem::DomainId domain, mem::Iova iova,
                          mem::PageSize size, size_t set, bool hit,
                          mem::Addr value);
    void iommuMshrAllocated(mem::DomainId domain, mem::Iova iova,
                            mem::PageSize size);
    void iommuCoalesced(mem::DomainId domain, mem::Iova iova,
                        mem::PageSize size);
    void iommuWalkStarted(mem::DomainId domain, mem::Iova iova,
                          mem::PageSize size, unsigned accesses,
                          unsigned active_walks);
    void iommuWalkCompleted(mem::DomainId domain, mem::Iova iova,
                            mem::PageSize req_size, bool valid,
                            mem::Addr host_addr);
    void iommuIotlbFilled(mem::DomainId domain, mem::Iova iova,
                          mem::PageSize mapped_size, size_t set,
                          mem::Addr value,
                          std::optional<uint64_t> evicted);
    void iommuPagingFilled(unsigned level, mem::DomainId domain,
                           mem::Iova iova, size_t set,
                           std::optional<uint64_t> evicted);
    void iommuIotlbInvalidated(mem::DomainId domain, mem::Iova iova,
                               mem::PageSize size, bool removed);
    void iommuFlushed();

    // ---- Chipset (History Reader) events -------------------------------
    void historyObserved(mem::DomainId did, mem::Iova iova,
                         mem::PageSize size);
    void historyPrefetchIssued(mem::DomainId did, unsigned slot,
                               mem::Addr page_base,
                               mem::PageSize size);
    void historyRetired(mem::DomainId did);

    // ---- Tenant-retirement events --------------------------------------
    void deviceSidRetired(uint32_t sid);

    // ---- System events -------------------------------------------------
    void systemUnmapped(mem::DomainId did, mem::Iova page_base,
                        mem::PageSize size);
    void systemRunCompleted(bool bypass, uint64_t processed,
                            uint64_t translations,
                            size_t devtlb_occupancy,
                            size_t pb_occupancy,
                            size_t iotlb_occupancy,
                            size_t l2_occupancy, size_t l3_occupancy,
                            unsigned ptb_in_use);

    // ---- Results -------------------------------------------------------
    /** All recorded violations (capped; see violationCount()). */
    const std::vector<std::string> &violations() const
    {
        return _violations;
    }
    /** Total violations, including any beyond the stored cap. */
    uint64_t violationCount() const { return _violationCount; }
    /** Events observed (a zero here means the hooks never fired). */
    uint64_t eventCount() const { return _events; }
    /** DevTLB lookups checked (one per translation request). */
    uint64_t translationChecks() const { return _translationChecks; }
    bool failFast() const { return _failFast; }

  private:
    /** Records `violation` when set; a passing check costs one test. */
    void
    record(std::optional<std::string> violation)
    {
        if (violation) [[unlikely]]
            recordViolation(std::move(*violation));
    }
    /** The failure path: panics in fail-fast mode, else stores. */
    [[gnu::cold, gnu::noinline]] void
    recordViolation(std::string violation);
    /** Fill-freshness rule: see the definition in shadow.cc. */
    void checkFillFresh(const char *what, mem::DomainId did,
                        mem::Iova iova, mem::Addr value);

    ShadowConfig _config;
    const iommu::PageTableDirectory *_tables;
    bool _failFast;

    CacheMirror _devtlb;
    CacheMirror _pb;
    CacheMirror _iotlb;
    CacheMirror _l2;
    CacheMirror _l3;
    RefPtb _ptb;
    RefSidPredictor _predictor;
    RefHistory _history;
    RefMmuPrefetcher _mmu;
    /** Translation keys with a walk in flight (the value is unused). */
    RefTable<bool> _mshr;

    uint64_t _events = 0;
    uint64_t _translationChecks = 0;
    uint64_t _violationCount = 0;
    std::vector<std::string> _violations;
};

/**
 * Installs `checker` as the current thread's shadow for its scope;
 * restores the previous checker (if any) on destruction.
 */
class ShadowScope
{
  public:
    explicit ShadowScope(ShadowChecker &checker) : _previous(_current)
    {
        _current = &checker;
    }
    ~ShadowScope() { _current = _previous; }
    ShadowScope(const ShadowScope &) = delete;
    ShadowScope &operator=(const ShadowScope &) = delete;

  private:
    friend ShadowChecker *shadowChecker();
    static inline thread_local ShadowChecker *_current = nullptr;
    ShadowChecker *_previous;
};

/**
 * The current thread's shadow checker, or nullptr. Inline so that a
 * hook site with no checker installed costs one thread-local load.
 */
inline ShadowChecker *
shadowChecker()
{
    return ShadowScope::_current;
}

/**
 * Whether System::run() may auto-install a fail-fast checker when
 * none is active. Seeded on first use from the HYPERSIO_SHADOW
 * environment variable (see parseShadowSwitch); setShadowAutoCheck()
 * overrides it, e.g. to time a run without the mirrors.
 */
bool shadowAutoCheckEnabled();
void setShadowAutoCheck(bool enabled);

/**
 * Parses a HYPERSIO_SHADOW value: unset (nullptr), "on" and "1" mean
 * on, "off" and "0" off; anything else fatal()s naming the value.
 */
bool parseShadowSwitch(const char *value);

} // namespace hypersio::oracle

#endif // HYPERSIO_ORACLE_SHADOW_HH
