#include "workload/adversarial.hh"

#include <algorithm>
#include <array>
#include <unordered_set>
#include <vector>

#include "mem/addr.hh"
#include "mem/page_table.hh"
#include "util/logging.hh"
#include "util/rng.hh"

namespace hypersio::workload
{

namespace
{

/** Shared gIOVA layout (all tenants use the same guest addresses). */
constexpr mem::Iova RingPage = 0x34800000;
constexpr mem::Iova NotifyPage = 0x34801000;
constexpr mem::Iova HugeDataBase = 0xbbe00000;  // 2 MB aligned
constexpr mem::Iova SmallDataBase = 0x7f000000; // 4 KB pages

mem::Iova
dataPageBase(unsigned page, bool huge)
{
    return huge ? HugeDataBase + mem::Iova(page) * 0x200000
                : SmallDataBase + mem::Iova(page) * 0x1000;
}

/**
 * Accumulates packets while tracking which (domain, page) pairs are
 * currently mapped, so map ops are attached exactly to the packets
 * that need them and unmaps only target live mappings.
 */
class TraceBuilder
{
  public:
    explicit TraceBuilder(uint64_t seed) { _trace.seed = seed; }

    /** Queues a map op for the packet if the page is not mapped. */
    void
    touch(mem::DomainId did, mem::Iova page_base, mem::PageSize size)
    {
        if (!_mapped.insert(key(did, page_base)).second)
            return;
        _pending.push_back({page_base, size, /*isMap=*/true});
    }

    /** Queues an unmap op if the page is currently mapped. */
    void
    unmap(mem::DomainId did, mem::Iova page_base, mem::PageSize size)
    {
        if (_mapped.erase(key(did, page_base)) == 0)
            return;
        _pending.push_back({page_base, size, /*isMap=*/false});
    }

    bool
    mapped(mem::DomainId did, mem::Iova page_base) const
    {
        return _mapped.count(key(did, page_base)) != 0;
    }

    /** Appends the packet, attaching every op queued since the last. */
    void
    add(trace::PacketRecord pkt)
    {
        pkt.opBegin = static_cast<uint32_t>(_trace.ops.size());
        pkt.opCount = static_cast<uint16_t>(_pending.size());
        _trace.ops.insert(_trace.ops.end(), _pending.begin(),
                          _pending.end());
        _pending.clear();
        _trace.packets.push_back(pkt);
    }

    trace::HyperTrace
    finish(uint32_t num_tenants)
    {
        _trace.numTenants = num_tenants;
        return std::move(_trace);
    }

  private:
    static uint64_t
    key(mem::DomainId did, mem::Iova page_base)
    {
        return hashCombine(did, page_base);
    }

    trace::HyperTrace _trace;
    std::vector<trace::PageOp> _pending;
    std::unordered_set<uint64_t> _mapped;
};

} // namespace

const char *
adversarialPatternName(AdversarialPattern pattern)
{
    switch (pattern) {
      case AdversarialPattern::SidBursts:
        return "sid_bursts";
      case AdversarialPattern::SidPhaseShift:
        return "sid_phase_shift";
      case AdversarialPattern::InvalidateStorm:
        return "invalidate_storm";
      case AdversarialPattern::PbThrash:
        return "pb_thrash";
      case AdversarialPattern::PartitionConflict:
        return "partition_conflict";
      case AdversarialPattern::HugeMix:
        return "huge_mix";
      case AdversarialPattern::RemapChurn:
        return "remap_churn";
      case AdversarialPattern::SizeFlipRemap:
        return "size_flip_remap";
      case AdversarialPattern::UniformRandom:
        return "uniform_random";
    }
    return "unknown";
}

trace::HyperTrace
makeAdversarialTrace(AdversarialPattern pattern,
                     const AdversarialConfig &config)
{
    const unsigned tenants = config.tenants == 0 ? 1 : config.tenants;
    Rng rng(hashCombine(config.seed,
                        static_cast<uint64_t>(pattern) + 1));
    TraceBuilder builder(config.seed);

    // Per-tenant data-stream position (tenant index, not SID).
    std::vector<uint64_t> stream(tenants, 0);

    // SidBursts state.
    unsigned burst_tenant = 0;
    unsigned burst_left = 0;

    // SizeFlipRemap state: the current size flavor of each tenant's
    // flip pages (all 2M-aligned; a page alternates between one 2M
    // mapping and one 4K mapping at the same base).
    constexpr unsigned FlipPages = 4;
    std::vector<std::array<bool, FlipPages>> flip_huge(
        tenants, {true, true, true, true});

    uint32_t max_sid = 0;
    for (uint64_t n = 0; n < config.packets; ++n) {
        // ---- Pick the tenant and its SID. -----------------------------
        unsigned tenant;
        switch (pattern) {
          case AdversarialPattern::SidBursts:
            if (burst_left == 0) {
                burst_tenant =
                    static_cast<unsigned>(rng.below(tenants));
                burst_left =
                    static_cast<unsigned>(rng.range(4, 12));
            }
            tenant = burst_tenant;
            --burst_left;
            break;
          case AdversarialPattern::SidPhaseShift:
            // Round-robin that reverses direction halfway: every
            // "H packets later" pairing the predictor learned in the
            // first phase is wrong in the second.
            tenant = n < config.packets / 2
                         ? static_cast<unsigned>(n % tenants)
                         : tenants - 1 -
                               static_cast<unsigned>(n % tenants);
            break;
          case AdversarialPattern::UniformRandom:
            tenant = static_cast<unsigned>(rng.below(tenants));
            break;
          default:
            tenant = static_cast<unsigned>(n % tenants);
            break;
        }
        // PartitionConflict: SIDs 0, 8, 16, … all map to partition
        // row group 0 of an 8-partition DevTLB.
        const uint32_t sid =
            pattern == AdversarialPattern::PartitionConflict
                ? tenant * 8
                : tenant;
        HYPERSIO_ASSERT(sid < trace::SidSpace,
                        "adversarial SID %u is outside the %u-SID space",
                        sid, trace::SidSpace);
        max_sid = std::max(max_sid, sid);
        // pasid 0: DID == SID (whole-VM tenants).
        const mem::DomainId did = sid;

        // ---- Pick the data page. --------------------------------------
        bool huge = true;
        unsigned page;
        switch (pattern) {
          case AdversarialPattern::PbThrash:
            // 64 candidate pages per tenant: prefetched entries go
            // stale long before the tenant returns to them.
            page = static_cast<unsigned>(rng.below(64));
            break;
          case AdversarialPattern::HugeMix:
            huge = rng.chance(0.5);
            page = static_cast<unsigned>(stream[tenant] / 4 % 8);
            break;
          case AdversarialPattern::UniformRandom:
            huge = rng.chance(0.5);
            page = static_cast<unsigned>(rng.below(16));
            break;
          case AdversarialPattern::SizeFlipRemap: {
            page = static_cast<unsigned>(rng.below(FlipPages));
            const mem::Iova base =
                HugeDataBase + mem::Iova(page) * 0x200000;
            if (builder.mapped(did, base) && rng.chance(0.35)) {
                // Flip the page's size on remap. Declaring the
                // *wrong* size in the unmap op (25% of flips) is
                // legal — functional unmap probes the covering 2M
                // base first — and is exactly the case where an
                // invalidation keyed only by the declared size
                // leaves the other flavor's cached entry stale.
                const bool cur = flip_huge[tenant][page];
                const bool declared =
                    rng.chance(0.25) ? !cur : cur;
                builder.unmap(did, base,
                              declared ? mem::PageSize::Size2M
                                       : mem::PageSize::Size4K);
                flip_huge[tenant][page] = !cur;
            }
            huge = flip_huge[tenant][page];
            break;
          }
          default:
            // Dwell on each page of an 8-page ring for 4 packets.
            page = static_cast<unsigned>(stream[tenant] / 4 % 8);
            break;
        }
        ++stream[tenant];
        // SizeFlipRemap keeps the same 2M-aligned base across both
        // size flavors — that collision is the whole point — so its
        // 4K flavor must not use the 4K-stride layout.
        const mem::Iova data_base =
            pattern == AdversarialPattern::SizeFlipRemap
                ? HugeDataBase + mem::Iova(page) * 0x200000
                : dataPageBase(page, huge);
        const mem::PageSize data_size =
            huge ? mem::PageSize::Size2M : mem::PageSize::Size4K;

        // ---- Pattern-specific unmap mischief (ordered before the
        // maps the packet needs, so churned pages get remapped). ------
        switch (pattern) {
          case AdversarialPattern::InvalidateStorm:
            if (rng.chance(0.4)) {
                const bool h = rng.chance(0.5);
                builder.unmap(
                    did,
                    dataPageBase(
                        static_cast<unsigned>(rng.below(8)), h),
                    h ? mem::PageSize::Size2M
                      : mem::PageSize::Size4K);
            }
            // The nastiest case: invalidate the hot ring page.
            if (rng.chance(0.15))
                builder.unmap(did, RingPage,
                              mem::PageSize::Size4K);
            break;
          case AdversarialPattern::RemapChurn:
            // Drop the very page this packet is about to use; the
            // touch below remaps it, so the walk must miss every
            // cache and still resolve through the fresh mapping.
            if (rng.chance(0.3))
                builder.unmap(did, data_base, data_size);
            if (rng.chance(0.2))
                builder.unmap(did, NotifyPage,
                              mem::PageSize::Size4K);
            break;
          case AdversarialPattern::UniformRandom:
            if (rng.chance(0.2)) {
                const bool h = rng.chance(0.5);
                builder.unmap(
                    did,
                    dataPageBase(
                        static_cast<unsigned>(rng.below(16)), h),
                    h ? mem::PageSize::Size2M
                      : mem::PageSize::Size4K);
            }
            break;
          default:
            break;
        }

        // ---- Maps for the three pages this packet translates. --------
        builder.touch(did, RingPage, mem::PageSize::Size4K);
        builder.touch(did, data_base, data_size);
        builder.touch(did, NotifyPage, mem::PageSize::Size4K);

        trace::PacketRecord pkt;
        pkt.sid = static_cast<uint16_t>(sid);
        pkt.dataHuge = huge;
        pkt.ringIova = RingPage + rng.below(64) * 16;
        // SizeFlipRemap offsets stay below 4 KB so every request
        // lands inside the page under either size flavor.
        pkt.dataIova =
            data_base +
            (pattern == AdversarialPattern::SizeFlipRemap
                 ? rng.below(64) * 64
                 : rng.below(512) * 64);
        pkt.notifyIova = NotifyPage + rng.below(16) * 4;
        if (pattern == AdversarialPattern::UniformRandom &&
            rng.chance(0.3)) {
            pkt.wireBytes = 256; // bursty small-packet arrivals
        }
        builder.add(pkt);
    }

    return builder.finish(max_sid + 1);
}

} // namespace hypersio::workload
