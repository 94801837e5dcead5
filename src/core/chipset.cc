#include "core/chipset.hh"

#include <algorithm>

#include "oracle/hooks.hh"
#include "util/logging.hh"

namespace hypersio::core
{

HistoryReader::HistoryReader(const PrefetchConfig &config,
                             sim::EventQueue &queue,
                             stats::StatGroup &parent,
                             iommu::Iommu &iommu,
                             mem::MemoryModel &memory,
                             uint16_t device)
    : SimObject("history_reader", queue, parent), _config(config),
      _iommu(iommu), _memory(memory), _device(device),
      _started(statGroup().makeCounter("started",
                                       "prefetches started")),
      _deduped(statGroup().makeCounter(
          "deduped", "prefetch requests dropped (already running)")),
      _issued(statGroup().makeCounter(
          "issued", "prefetch translations issued to the IOMMU"))
{
    // A burst ends with its last translation, so it must have one.
    if (_config.pagesPerPrefetch == 0)
        fatal("the IOVA History Reader needs prefetch.pages >= 1");
}

void
HistoryReader::observe(mem::DomainId did, mem::Iova iova,
                       mem::PageSize size)
{
    // The history write happens off the critical path and costs no
    // simulated time; only reads (on prefetch) are charged.
    HYPERSIO_SHADOW(historyObserved(did, iova, size));
    TenantHistory &hist = _history[did];
    const mem::Addr base = mem::pageBase(iova, size);
    auto it = std::find_if(hist.recent.begin(), hist.recent.end(),
                           [&](const HistoryPage &p) {
                               return p.pageBase == base;
                           });
    if (it != hist.recent.end()) {
        // Move to front (most recent).
        std::rotate(hist.recent.begin(), it, it + 1);
        return;
    }
    hist.recent.insert(hist.recent.begin(), {base, size});
    if (hist.recent.size() > _config.historyDepth)
        hist.recent.pop_back();
}

bool
HistoryReader::prefetch(mem::DomainId did)
{
    // find() rather than operator[]: a predicted-but-never-observed
    // (or retired) DID must not grow the history map back.
    TenantHistory *hist = _history.find(did);
    if (!hist)
        return false; // nothing known about this tenant yet
    if (hist->burst != 0) {
        ++_deduped;
        return false;
    }
    if (hist->recent.empty())
        return false;
    hist->burst = 1;
    ++_started;

    // Fetch the tenant's history from main memory, then translate.
    _memory.access(_config.historyReadAccesses, *this, did);
    return true;
}

void
HistoryReader::chainDone(uint64_t tag)
{
    // The burst pins the entry until it ends (retire() refuses
    // in-flight DIDs).
    const auto did = static_cast<mem::DomainId>(tag);
    TenantHistory *hist = _history.find(did);
    HYPERSIO_ASSERT(hist && hist->burst == 1,
                    "history burst issued without in-flight state");
    const unsigned count = std::min<unsigned>(
        _config.pagesPerPrefetch,
        static_cast<unsigned>(hist->recent.size()));

    // The burst ends when the last translation lands, so a tenant
    // has at most one prefetch burst outstanding.
    hist->burst = count;
    for (unsigned i = 0; i < count; ++i) {
        const HistoryPage page = hist->recent[i];
        ++_issued;
        HYPERSIO_SHADOW(
            historyPrefetchIssued(did, i, page.pageBase, page.size));
        iommu::IommuRequest req;
        req.domain = did;
        req.iova = page.pageBase;
        req.size = page.size;
        req.tag = {iommu::Requester::HistoryPrefetch, _device, 0};
        // may_fuse stays false: the loop keeps issuing after each
        // translate returns, so this is not a tail position — a
        // fused IOTLB hit would deliver (and advance time) before
        // the burst's remaining pages were even issued.
        _iommu.translate(req, /*may_fuse=*/false);
    }
}

bool
HistoryReader::prefetchTranslated(mem::DomainId did)
{
    TenantHistory *hist = _history.find(did);
    HYPERSIO_ASSERT(hist && hist->burst > 0,
                    "history entry vanished under an in-flight burst");
    return --hist->burst == 0;
}

void
HistoryReader::retire(mem::DomainId did)
{
    TenantHistory *hist = _history.find(did);
    if (!hist)
        return;
    HYPERSIO_ASSERT(hist->burst == 0,
                    "retiring a DID with a prefetch burst in flight");
    HYPERSIO_SHADOW(historyRetired(did));
    _history.erase(did);
}

} // namespace hypersio::core
