#include "oracle/shadow.hh"

#include <atomic>
#include <cstdlib>
#include <cstring>

#include "iommu/iommu.hh"
#include "iommu/keys.hh"
#include "oracle/ref_walk.hh"
#include "util/logging.hh"

namespace hypersio::oracle
{

namespace
{

/** Violations stored per checker; the count keeps going past this. */
constexpr size_t MaxStoredViolations = 100;

/** The auto-check switch, seeded from HYPERSIO_SHADOW on first use. */
std::atomic<bool> &
autoCheck()
{
    static std::atomic<bool> enabled{
        parseShadowSwitch(std::getenv("HYPERSIO_SHADOW"))};
    return enabled;
}

long long
optionalSid(const std::optional<uint32_t> &sid)
{
    return sid ? static_cast<long long>(*sid) : -1;
}

} // namespace

// Collects the failure message of any check that does not hold.
#define SHADOW_CHECK(cond, ...)                                       \
    do {                                                              \
        if (!(cond)) [[unlikely]]                                     \
            recordViolation(strprintf(__VA_ARGS__));                  \
    } while (0)

ShadowChecker::ShadowChecker(const ShadowConfig &config,
                             const iommu::PageTableDirectory *tables,
                             bool fail_fast)
    : _config(config), _tables(tables), _failFast(fail_fast)
{
    _devtlb.configure("DevTLB", config.devtlbEntries,
                      config.devtlbWays, config.devtlbPartitions,
                      /*check_values=*/true,
                      config.devtlbSubEntries);
    const size_t pb = config.pbEntries ? config.pbEntries : 1;
    _pb.configure("PB", pb, pb, 1); // fully associative
    _iotlb.configure("IOTLB", config.iotlbEntries, config.iotlbWays,
                     config.iotlbPartitions);
    _l2.configure("L2TLB", config.l2Entries, config.l2Ways,
                  config.l2Partitions, /*check_values=*/false,
                  config.l2SubEntries);
    _l3.configure("L3TLB", config.l3Entries, config.l3Ways,
                  config.l3Partitions, /*check_values=*/false,
                  config.l3SubEntries);
    _ptb.configure(config.ptbEntries);
    _predictor.configure(config.historyLength);
    _history.configure(config.historyDepth);
}

void
ShadowChecker::recordViolation(std::string violation)
{
    ++_violationCount;
    if (_failFast)
        panic("shadow oracle: %s", violation.c_str());
    if (_violations.size() < MaxStoredViolations)
        _violations.push_back(std::move(violation));
}

void
ShadowChecker::checkFillFresh(const char *what, mem::DomainId did,
                              mem::Iova iova, mem::Addr value)
{
    // Freshness: a fill that installs into a device-side translation
    // cache must agree with the functional tables *at install time*.
    // An unmap between the walk and the fill's arrival must squash
    // the fill (never install), so a surviving fill implies the page
    // is still mapped and its frame unchanged. The comparison is
    // frame-granular: a cached IOTLB response carries the offset of
    // the iova that originally filled it, so only the page frame of
    // the value is authoritative.
    if (!_tables)
        return;
    const mem::PageTable *table = _tables->find(did);
    mem::Translation ref;
    if (table)
        ref = table->translate(iova);
    SHADOW_CHECK(ref.valid,
                 "%s fill of did=%u iova=%#llx, but the functional "
                 "tables say the page is unmapped (stale fill not "
                 "squashed)",
                 what, did, (unsigned long long)iova);
    if (ref.valid) {
        SHADOW_CHECK(mem::pageBase(value, ref.pageSize) ==
                         mem::pageBase(ref.hostAddr, ref.pageSize),
                     "%s fill of did=%u iova=%#llx installs hPA "
                     "frame %#llx, functional tables say %#llx "
                     "(stale fill not squashed)",
                     what, did, (unsigned long long)iova,
                     (unsigned long long)mem::pageBase(value,
                                                       ref.pageSize),
                     (unsigned long long)mem::pageBase(ref.hostAddr,
                                                       ref.pageSize));
    }
}

// ---- Device events -----------------------------------------------------

void
ShadowChecker::devicePacketAccepted(uint32_t sid, unsigned idx,
                                    unsigned in_use)
{
    (void)sid;
    ++_events;
    record(_ptb.allocated(idx, in_use));
}

void
ShadowChecker::devicePacketCompleted(unsigned idx, unsigned in_use)
{
    ++_events;
    record(_ptb.released(idx, in_use));
}

void
ShadowChecker::devicePacketDropped()
{
    ++_events;
    record(_ptb.dropped());
}

void
ShadowChecker::devicePacketsDropped(uint64_t n)
{
    _events += n;
    record(_ptb.dropped());
}

void
ShadowChecker::deviceSidObserved(uint32_t sid)
{
    ++_events;
    SHADOW_CHECK(!_config.mmuPrefetch,
                 "SID-predictor trained with sid %u while the MMU "
                 "prefetcher is the configured mechanism",
                 sid);
    _predictor.observe(sid);
}

void
ShadowChecker::deviceSidPredicted(uint32_t sid,
                                  std::optional<uint32_t> predicted)
{
    ++_events;
    const auto expected = _predictor.predict(sid);
    SHADOW_CHECK(predicted == expected,
                 "SID-predictor: sid %u predicted %lld, reference "
                 "expects %lld (after %llu arrivals)",
                 sid, optionalSid(predicted), optionalSid(expected),
                 (unsigned long long)_predictor.observed());
}

void
ShadowChecker::devicePbLookup(mem::DomainId did, mem::Iova iova,
                              mem::PageSize size, bool hit,
                              mem::Addr value)
{
    ++_events;
    // A PB hit consumes the entry.
    record(_pb.lookupAndConsume(iommu::translationKey(did, iova, size),
                                0, 0, hit, value));
}

void
ShadowChecker::devicePbFill(mem::DomainId did, mem::Iova iova,
                            mem::PageSize size, mem::Addr value,
                            std::optional<uint64_t> evicted)
{
    ++_events;
    checkFillFresh("Prefetch Buffer", did, iova, value);
    record(_pb.fill(iommu::translationKey(did, iova, size), 0, 0,
                    value, evicted));
}

void
ShadowChecker::devicePbInvalidated(mem::DomainId did, mem::Iova iova,
                                   mem::PageSize size, bool removed)
{
    ++_events;
    record(_pb.invalidated(iommu::translationKey(did, iova, size),
                           removed));
}

void
ShadowChecker::deviceDevtlbLookup(uint32_t sid, mem::DomainId did,
                                  mem::Iova iova, mem::PageSize size,
                                  size_t set, bool hit,
                                  mem::Addr value)
{
    ++_events;
    ++_translationChecks;
    record(_devtlb.lookup(iommu::translationKey(did, iova, size),
                          set, sid, hit, value));
}

void
ShadowChecker::deviceDevtlbFill(uint32_t sid, mem::DomainId did,
                                mem::Iova iova, mem::PageSize size,
                                size_t set, mem::Addr value,
                                std::optional<uint64_t> evicted)
{
    ++_events;
    checkFillFresh("DevTLB", did, iova, value);
    record(_devtlb.fill(iommu::translationKey(did, iova, size), set,
                        sid, value, evicted));
}

void
ShadowChecker::deviceDevtlbInvalidated(uint32_t sid,
                                       mem::DomainId did,
                                       mem::Iova iova,
                                       mem::PageSize size,
                                       bool removed)
{
    (void)sid;
    ++_events;
    record(_devtlb.invalidated(
        iommu::translationKey(did, iova, size), removed));
}

void
ShadowChecker::deviceMmuObserved(mem::DomainId did, unsigned cls,
                                 mem::Iova iova, mem::PageSize size)
{
    ++_events;
    SHADOW_CHECK(_config.mmuPrefetch,
                 "MMU stride detector trained (did=%u cls=%u) but "
                 "the MMU prefetcher is not the configured mechanism",
                 did, cls);
    _mmu.observe(did, cls, iova, size);
}

void
ShadowChecker::deviceMmuPrefetchIssued(mem::DomainId did,
                                       unsigned cls, unsigned slot,
                                       mem::Iova page,
                                       mem::PageSize size)
{
    ++_events;
    SHADOW_CHECK(slot < _config.pagesPerPrefetch,
                 "MMU prefetcher issued slot %u, burst limit is %u "
                 "pages",
                 slot, _config.pagesPerPrefetch);
    const auto expected = _mmu.predicted(did, cls, slot);
    SHADOW_CHECK(expected && expected->first == page &&
                     expected->second == size,
                 "MMU prefetcher issued did=%u cls=%u slot %u page "
                 "%#llx, reference predicts %#llx",
                 did, cls, slot, (unsigned long long)page,
                 expected ? (unsigned long long)expected->first
                          : 0ULL);
}

void
ShadowChecker::deviceMmuRetired(mem::DomainId did)
{
    ++_events;
    _mmu.retire(did);
}

// ---- IOMMU events ------------------------------------------------------

void
ShadowChecker::iommuIotlbLookup(mem::DomainId domain, mem::Iova iova,
                                mem::PageSize size, size_t set,
                                bool hit, mem::Addr value)
{
    ++_events;
    record(_iotlb.lookup(iommu::translationKey(domain, iova, size),
                         set, domain, hit, value));
}

void
ShadowChecker::iommuMshrAllocated(mem::DomainId domain,
                                  mem::Iova iova, mem::PageSize size)
{
    ++_events;
    const uint64_t key = iommu::translationKey(domain, iova, size);
    SHADOW_CHECK(_mshr.tryEmplace(key).second,
                 "MSHR: second walk allocated for in-flight key "
                 "%#llx (did %u iova %#llx)",
                 (unsigned long long)key, domain,
                 (unsigned long long)iova);
}

void
ShadowChecker::iommuCoalesced(mem::DomainId domain, mem::Iova iova,
                              mem::PageSize size)
{
    ++_events;
    const uint64_t key = iommu::translationKey(domain, iova, size);
    SHADOW_CHECK(_mshr.contains(key),
                 "MSHR: request coalesced onto key %#llx with no "
                 "walk in flight",
                 (unsigned long long)key);
}

void
ShadowChecker::iommuWalkStarted(mem::DomainId domain, mem::Iova iova,
                                mem::PageSize size, unsigned accesses,
                                unsigned active_walks)
{
    ++_events;
    const bool huge = size == mem::PageSize::Size2M;
    const bool l2_hit =
        _l2.contains(iommu::pagingKey(domain, iova, 2));
    const bool l3_hit =
        _l3.contains(iommu::pagingKey(domain, iova, 3));
    const unsigned expected = refWalkAccesses(
        l2_hit, l3_hit, _config.pagingLevels, huge);
    SHADOW_CHECK(accesses == expected,
                 "walk did=%u iova=%#llx charged %u accesses, "
                 "reference expects %u (L2 %d, L3 %d, %s)",
                 domain, (unsigned long long)iova, accesses,
                 expected, l2_hit ? 1 : 0, l3_hit ? 1 : 0,
                 huge ? "2M" : "4K");
    SHADOW_CHECK(_config.walkers == 0 ||
                     active_walks <= _config.walkers,
                 "walker bound: %u active walks exceed the %u "
                 "walker slots",
                 active_walks, _config.walkers);
    SHADOW_CHECK(_mshr.contains(
                     iommu::translationKey(domain, iova, size)),
                 "walk did=%u iova=%#llx started without an MSHR "
                 "entry",
                 domain, (unsigned long long)iova);
}

void
ShadowChecker::iommuWalkCompleted(mem::DomainId domain,
                                  mem::Iova iova,
                                  mem::PageSize req_size, bool valid,
                                  mem::Addr host_addr)
{
    ++_events;
    const uint64_t key =
        iommu::translationKey(domain, iova, req_size);
    SHADOW_CHECK(_mshr.erase(key),
                 "walk did=%u iova=%#llx completed without an MSHR "
                 "entry",
                 domain, (unsigned long long)iova);

    if (!_tables)
        return;
    // The authoritative untimed translation, sampled at the same
    // instant the timed walk samples the page table.
    const mem::PageTable *table = _tables->find(domain);
    mem::Translation ref;
    if (table)
        ref = table->translate(iova);
    SHADOW_CHECK(valid == ref.valid,
                 "walk did=%u iova=%#llx %s but the functional "
                 "tables say %s",
                 domain, (unsigned long long)iova,
                 valid ? "succeeded" : "faulted",
                 ref.valid ? "mapped" : "unmapped");
    if (valid && ref.valid) {
        SHADOW_CHECK(host_addr == ref.hostAddr,
                     "hPA mismatch: did=%u iova=%#llx timed %#llx, "
                     "functional %#llx",
                     domain, (unsigned long long)iova,
                     (unsigned long long)host_addr,
                     (unsigned long long)ref.hostAddr);
    }
}

void
ShadowChecker::iommuIotlbFilled(mem::DomainId domain, mem::Iova iova,
                                mem::PageSize mapped_size, size_t set,
                                mem::Addr value,
                                std::optional<uint64_t> evicted)
{
    ++_events;
    record(_iotlb.fill(
        iommu::translationKey(domain, iova, mapped_size), set,
        domain, value, evicted));
}

void
ShadowChecker::iommuPagingFilled(unsigned level, mem::DomainId domain,
                                 mem::Iova iova, size_t set,
                                 std::optional<uint64_t> evicted)
{
    ++_events;
    SHADOW_CHECK(level == 2 || level == 3,
                 "paging-structure fill at unexpected level %u",
                 level);
    CacheMirror &mirror = level == 2 ? _l2 : _l3;
    record(mirror.fill(iommu::pagingKey(domain, iova, level), set,
                       domain, 0, evicted));
}

void
ShadowChecker::iommuIotlbInvalidated(mem::DomainId domain,
                                     mem::Iova iova,
                                     mem::PageSize size, bool removed)
{
    ++_events;
    record(_iotlb.invalidated(
        iommu::translationKey(domain, iova, size), removed));
}

void
ShadowChecker::iommuFlushed()
{
    ++_events;
    _iotlb.flush();
    _l2.flush();
    _l3.flush();
}

// ---- Chipset events ----------------------------------------------------

void
ShadowChecker::historyObserved(mem::DomainId did, mem::Iova iova,
                               mem::PageSize size)
{
    ++_events;
    _history.observe(did, mem::pageBase(iova, size),
                     mem::pageShift(size));
}

void
ShadowChecker::historyPrefetchIssued(mem::DomainId did, unsigned slot,
                                     mem::Addr page_base,
                                     mem::PageSize size)
{
    ++_events;
    SHADOW_CHECK(slot < _config.pagesPerPrefetch,
                 "history reader issued prefetch slot %u, burst "
                 "limit is %u pages",
                 slot, _config.pagesPerPrefetch);
    const auto expected = _history.recent(did, slot);
    const RefHistoryPage issued{page_base, mem::pageShift(size)};
    SHADOW_CHECK(expected && *expected == issued,
                 "history reader prefetched did=%u page %#llx (slot "
                 "%u), reference history holds %#llx there",
                 did, (unsigned long long)page_base, slot,
                 expected
                     ? (unsigned long long)expected->pageBase
                     : 0ULL);
}

void
ShadowChecker::historyRetired(mem::DomainId did)
{
    ++_events;
    _history.retire(did);
}

// ---- Tenant-retirement events ------------------------------------------

void
ShadowChecker::deviceSidRetired(uint32_t sid)
{
    ++_events;
    _predictor.retire(sid);
}

// ---- System events -----------------------------------------------------

void
ShadowChecker::systemUnmapped(mem::DomainId did, mem::Iova page_base,
                              mem::PageSize size)
{
    ++_events;
    // Both size keys must be gone: a size-flip remap (2M→4K or back)
    // re-keys the translation, and functional unmap probes the
    // covering 2M base before the declared size, so either flavor may
    // have been cached regardless of what size the op declared.
    (void)size;
    for (const mem::PageSize sz :
         {mem::PageSize::Size4K, mem::PageSize::Size2M}) {
        const uint64_t key =
            iommu::translationKey(did, page_base, sz);
        SHADOW_CHECK(!_devtlb.contains(key),
                     "unmap of did=%u page %#llx left the %s "
                     "translation in the DevTLB",
                     did, (unsigned long long)page_base,
                     sz == mem::PageSize::Size2M ? "2M" : "4K");
        SHADOW_CHECK(!_pb.contains(key),
                     "unmap of did=%u page %#llx left the %s "
                     "translation in the Prefetch Buffer",
                     did, (unsigned long long)page_base,
                     sz == mem::PageSize::Size2M ? "2M" : "4K");
        SHADOW_CHECK(!_iotlb.contains(key),
                     "unmap of did=%u page %#llx left the %s "
                     "translation in the IOTLB",
                     did, (unsigned long long)page_base,
                     sz == mem::PageSize::Size2M ? "2M" : "4K");
    }
}

void
ShadowChecker::systemRunCompleted(bool bypass, uint64_t processed,
                                  uint64_t translations,
                                  size_t devtlb_occupancy,
                                  size_t pb_occupancy,
                                  size_t iotlb_occupancy,
                                  size_t l2_occupancy,
                                  size_t l3_occupancy,
                                  unsigned ptb_in_use)
{
    ++_events;
    if (!bypass) {
        SHADOW_CHECK(translations == 3 * processed,
                     "run issued %llu translations for %llu "
                     "processed packets (expected 3 per packet)",
                     (unsigned long long)translations,
                     (unsigned long long)processed);
    }
    SHADOW_CHECK(ptb_in_use == 0 && _ptb.inUse() == 0,
                 "PTB not empty at end of run (timed %u, reference "
                 "%zu)",
                 ptb_in_use, _ptb.inUse());
    SHADOW_CHECK(_mshr.empty(),
                 "%zu walks still in the MSHR at end of run",
                 _mshr.size());
    SHADOW_CHECK(devtlb_occupancy == _devtlb.size(),
                 "DevTLB occupancy %zu at end of run, reference "
                 "holds %zu",
                 devtlb_occupancy, _devtlb.size());
    SHADOW_CHECK(pb_occupancy == _pb.size(),
                 "PB occupancy %zu at end of run, reference holds "
                 "%zu",
                 pb_occupancy, _pb.size());
    SHADOW_CHECK(iotlb_occupancy == _iotlb.size(),
                 "IOTLB occupancy %zu at end of run, reference "
                 "holds %zu",
                 iotlb_occupancy, _iotlb.size());
    SHADOW_CHECK(l2_occupancy == _l2.size(),
                 "L2TLB occupancy %zu at end of run, reference "
                 "holds %zu",
                 l2_occupancy, _l2.size());
    SHADOW_CHECK(l3_occupancy == _l3.size(),
                 "L3TLB occupancy %zu at end of run, reference "
                 "holds %zu",
                 l3_occupancy, _l3.size());
}

// ---- Installation ------------------------------------------------------

bool
shadowAutoCheckEnabled()
{
    return autoCheck().load(std::memory_order_relaxed);
}

void
setShadowAutoCheck(bool enabled)
{
    autoCheck().store(enabled, std::memory_order_relaxed);
}

bool
parseShadowSwitch(const char *value)
{
    if (!value || !std::strcmp(value, "on") || !std::strcmp(value, "1"))
        return true;
    if (!std::strcmp(value, "off") || !std::strcmp(value, "0"))
        return false;
    fatal("HYPERSIO_SHADOW='%s' is not one of on, 1, off, 0", value);
}

} // namespace hypersio::oracle
