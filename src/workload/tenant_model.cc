#include "workload/tenant_model.hh"

#include <algorithm>
#include <list>
#include <unordered_map>

#include "util/logging.hh"

namespace hypersio::workload
{

TenantStream::TenantStream(const TenantPattern &pattern, uint64_t seed,
                           trace::SourceId sid, uint64_t num_packets,
                           bool include_init)
    : _p(pattern), _sid(sid), _budget(num_packets),
      // All randomness is tenant-local and deterministic.
      _rng(hashCombine(seed, hashCombine(0x7e4a37, sid)))
{
    HYPERSIO_ASSERT(sid < trace::SidSpace,
                    "tenant SID %u is outside the %u-SID space", sid,
                    trace::SidSpace);
    HYPERSIO_ASSERT(_p.streams >= 1, "need at least one stream");
    HYPERSIO_ASSERT(_p.numDataPages >= _p.streams,
                    "fewer data pages than streams");
    if (_budget == 0)
        return;

    // Fixed hot pages are mapped up front by the driver.
    _pending.push_back({_p.ringPage, mem::PageSize::Size4K, true});
    _pending.push_back({_p.mailboxPage, mem::PageSize::Size4K, true});

    if (include_init && _p.numInitPages > 0) {
        _phase = Phase::Init;
        startInitPage();
    }
}

uint64_t
TenantStream::dataPageBytes() const
{
    return mem::pageBytes(_p.hugeDataPages ? mem::PageSize::Size2M
                                           : mem::PageSize::Size4K);
}

mem::Iova
TenantStream::dataPageIova(unsigned idx) const
{
    return _p.dataBase +
           static_cast<uint64_t>(idx) * dataPageBytes();
}

void
TenantStream::startInitPage()
{
    const mem::Iova base =
        _p.initBase +
        static_cast<uint64_t>(_initPage) * mem::PageSize4K;
    _pending.push_back({base, mem::PageSize::Size4K, true});
    // Slightly varied access count, always < 100.
    _initAccesses =
        _p.accessesPerInitPage == 0
            ? 0
            : static_cast<unsigned>(
                  _rng.range(_p.accessesPerInitPage / 2,
                             _p.accessesPerInitPage));
    _initDone = 0;
}

void
TenantStream::assignPage(StreamState &st)
{
    st.currentPage = _nextFreePage;
    _nextFreePage = (_nextFreePage + 1) % _p.numDataPages;
    st.accessesLeft = _p.accessesPerDataPage;
    st.offset = 0;
    const mem::Iova iova = dataPageIova(st.currentPage);
    const mem::PageSize size = _p.hugeDataPages
                                   ? mem::PageSize::Size2M
                                   : mem::PageSize::Size4K;
    if (_pageMapped[st.currentPage])
        _pending.push_back({iova, size, false}); // recycle: invalidate
    _pending.push_back({iova, size, true});
    _pageMapped[st.currentPage] = true;
}

void
TenantStream::setupSteady()
{
    // Buffer pages stay mapped until the ring wraps around and the
    // driver recycles them: the unmap/remap pair lands just before
    // reuse, which invalidates stale cached translations exactly
    // once per ring cycle (~accessesPerDataPage accesses, Fig. 8b).
    _streams.assign(_p.streams, StreamState{});
    _pageMapped.assign(_p.numDataPages, false);
    _nextFreePage = 0;
    _rrStream = 0;
    for (auto &st : _streams)
        assignPage(st);
    _steadyReady = true;
}

void
TenantStream::emitPacket(trace::PacketRecord &pkt,
                         std::vector<trace::PageOp> &ops,
                         mem::Iova data_iova, bool huge)
{
    pkt = trace::PacketRecord{};
    pkt.sid = static_cast<uint16_t>(_sid); // checked by the constructor
    pkt.pasid = static_cast<uint16_t>(_pasid);
    if (_p.smallPacketBytes > 0 && _rng.chance(_p.smallPacketProb))
        pkt.wireBytes = _p.smallPacketBytes;
    pkt.opBegin = 0;
    pkt.opCount = static_cast<uint16_t>(_pending.size());
    ops.clear();
    ops.swap(_pending);
    pkt.dataHuge = huge;
    // Ring descriptors cycle through the lower half of the control
    // page; the mailbox sits in its upper 256 bytes.
    pkt.ringIova = _p.ringPage + (_ringCursor * _p.descriptorBytes) %
                                     (mem::PageSize4K / 2);
    pkt.dataIova = data_iova;
    pkt.notifyIova = _p.mailboxPage + mem::PageSize4K - 256 +
                     (_sid % 64) * 4;
    ++_ringCursor;
}

bool
TenantStream::next(trace::PacketRecord &pkt,
                   std::vector<trace::PageOp> &ops)
{
    if (_emitted >= _budget)
        return false;

    for (;;) {
        // --- Initialisation phase (group 3) -----------------------
        if (_phase == Phase::Init) {
            if (_initDone < _initAccesses) {
                const mem::Iova base =
                    _p.initBase + static_cast<uint64_t>(_initPage) *
                                      mem::PageSize4K;
                emitPacket(pkt, ops,
                           base + (_initDone * 64) % mem::PageSize4K,
                           false);
                ++_initDone;
                break;
            }
            ++_initPage;
            if (_initPage >= _p.numInitPages) {
                _phase = Phase::Steady;
                continue;
            }
            startInitPage();
            continue;
        }

        // --- Steady state (groups 1 + 2) --------------------------
        if (!_steadyReady)
            setupSteady();

        // Pick the stream for this packet.
        unsigned s;
        if (_p.randomStreamOrder) {
            s = static_cast<unsigned>(_rng.below(_p.streams));
        } else {
            s = _rrStream;
            _rrStream = (_rrStream + 1) % _p.streams;
        }
        StreamState &st = _streams[s];
        _pasid = _p.processesPerTenant > 1
                     ? s % _p.processesPerTenant
                     : 0;

        mem::Iova data_iova;
        if (_p.jitterProb > 0.0 && _rng.chance(_p.jitterProb)) {
            // Irregular access: revisit a random still-mapped buffer
            // page at a random offset (e.g. a retransmission or an
            // out-of-order completion).
            unsigned page = static_cast<unsigned>(
                _rng.below(_p.numDataPages));
            while (!_pageMapped[page])
                page = (page + 1) % _p.numDataPages;
            data_iova = dataPageIova(page) +
                        _rng.below(dataPageBytes() / 64) * 64;
        } else {
            data_iova = dataPageIova(st.currentPage) + st.offset;
            st.offset += _p.bytesPerPacket;
            if (st.offset + _p.bytesPerPacket > dataPageBytes())
                st.offset = 0;
            if (--st.accessesLeft == 0)
                assignPage(st); // advance to the next ring slot
        }
        emitPacket(pkt, ops, data_iova, _p.hugeDataPages);
        break;
    }

    ++_emitted;
    return true;
}

trace::TenantLog
TenantStream::drain()
{
    trace::TenantLog log;
    log.sid = _sid;
    log.packets.reserve(_budget - _emitted);
    trace::PacketRecord pkt;
    std::vector<trace::PageOp> ops;
    while (next(pkt, ops)) {
        pkt.opBegin = static_cast<uint32_t>(log.ops.size());
        log.ops.insert(log.ops.end(), ops.begin(), ops.end());
        log.packets.push_back(pkt);
    }
    return log;
}

size_t
PageAccessStats::pagesAbove(uint64_t threshold) const
{
    size_t n = 0;
    for (const auto &pc : pages)
        n += pc.count >= threshold ? 1 : 0;
    return n;
}

PageAccessStats
analyzeLog(const trace::TenantLog &log)
{
    struct Info
    {
        mem::PageSize size;
        uint64_t count;
    };
    std::unordered_map<mem::Iova, Info> counts;

    auto note = [&](mem::Iova iova, mem::PageSize size) {
        const mem::Addr base = mem::pageBase(iova, size);
        auto [it, inserted] = counts.try_emplace(base, Info{size, 0});
        ++it->second.count;
        (void)inserted;
    };

    for (const auto &pkt : log.packets) {
        note(pkt.ringIova, mem::PageSize::Size4K);
        note(pkt.dataIova, pkt.dataHuge ? mem::PageSize::Size2M
                                        : mem::PageSize::Size4K);
        note(pkt.notifyIova, mem::PageSize::Size4K);
    }

    PageAccessStats stats;
    stats.pages.reserve(counts.size());
    for (const auto &[page, info] : counts)
        stats.pages.push_back({page, info.size, info.count});
    std::sort(stats.pages.begin(), stats.pages.end(),
              [](const auto &a, const auto &b) {
                  return a.count > b.count;
              });
    return stats;
}

unsigned
activeTranslationSet(const trace::TenantLog &log,
                     double target_hit_rate, unsigned max_entries)
{
    // Simulate a fully-associative LRU TLB of growing size over the
    // steady-state portion (skip the init phase: first packets whose
    // data accesses fall in the init region are warmup).
    std::vector<mem::Iova> seq;
    seq.reserve(log.packets.size() * 3);
    for (const auto &pkt : log.packets) {
        seq.push_back(mem::pageBase(pkt.ringIova,
                                    mem::PageSize::Size4K));
        seq.push_back(mem::pageBase(
            pkt.dataIova, pkt.dataHuge ? mem::PageSize::Size2M
                                       : mem::PageSize::Size4K));
        seq.push_back(mem::pageBase(pkt.notifyIova,
                                    mem::PageSize::Size4K));
    }

    for (unsigned entries = 1; entries <= max_entries; ++entries) {
        std::list<mem::Iova> lru;
        std::unordered_map<mem::Iova,
                           std::list<mem::Iova>::iterator>
            where;
        uint64_t hits = 0;
        uint64_t lookups = 0;
        for (mem::Iova page : seq) {
            ++lookups;
            auto it = where.find(page);
            if (it != where.end()) {
                ++hits;
                lru.splice(lru.begin(), lru, it->second);
            } else {
                lru.push_front(page);
                where[page] = lru.begin();
                if (lru.size() > entries) {
                    where.erase(lru.back());
                    lru.pop_back();
                }
            }
        }
        // Ignore cold misses: compare against compulsory-only rate.
        const uint64_t compulsory = where.size();
        const double hit_rate =
            lookups == 0
                ? 1.0
                : static_cast<double>(hits) /
                      static_cast<double>(lookups - compulsory);
        if (hit_rate >= target_hit_rate)
            return entries;
    }
    return max_entries;
}

} // namespace hypersio::workload
