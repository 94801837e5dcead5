/**
 * @file
 * Extending the library: plugging a custom replacement policy into
 * the Device-TLB.
 *
 * Implements a "class-pinning" policy on top of the public
 * ReplacementPolicy interface: translations of the hot control page
 * (the paper's frequency group 1) are preferred over data-buffer
 * entries when choosing a victim, an idea the paper's single-tenant
 * characterisation directly motivates ("this fact can be used to
 * decide which translation to evict in the case of a conflict").
 * The example compares it against LRU and LFU on the Base design.
 */

#include <cstdio>

#include "example_args.hh"
#include "hypersio/hypersio.hh"

using namespace hypersio;

namespace
{

/**
 * Evicts, in order of preference: invalid-ish (oldest) data-buffer
 * entries first, hot-page entries only as a last resort. Hotness is
 * derived from the translation key's page-size bit: 2 MB mappings
 * are data buffers, 4 KB mappings are control structures.
 */
class ClassPinningPolicy : public cache::ReplacementPolicy
{
  public:
    void
    init(size_t num_sets, size_t num_ways) override
    {
        _lastUse.assign(num_sets * num_ways, 0);
        _ways = num_ways;
        _seq = 0;
    }

    void
    touch(size_t set, size_t way, uint64_t) override
    {
        _lastUse[set * _ways + way] = ++_seq;
    }

    void
    insert(size_t set, size_t way, uint64_t) override
    {
        _lastUse[set * _ways + way] = ++_seq;
    }

    void invalidate(size_t set, size_t way) override
    {
        _lastUse[set * _ways + way] = 0;
    }

    size_t
    victim(size_t set, const uint64_t *keys) override
    {
        // Prefer the least-recent *data* (2 MB) entry; fall back to
        // plain LRU when the set holds only control pages.
        size_t best = 0;
        uint64_t best_use = UINT64_MAX;
        bool best_is_data = false;
        for (size_t w = 0; w < _ways; ++w) {
            const bool is_data = (keys[w] >> 39) & 1; // size bit
            const uint64_t use = _lastUse[set * _ways + w];
            const bool better =
                (is_data && !best_is_data) ||
                (is_data == best_is_data && use < best_use);
            if (better) {
                best = w;
                best_use = use;
                best_is_data = is_data;
            }
        }
        return best;
    }

    void reset() override
    {
        std::fill(_lastUse.begin(), _lastUse.end(), 0);
        _seq = 0;
    }

  private:
    std::vector<uint64_t> _lastUse;
    size_t _ways = 0;
    uint64_t _seq = 0;
};

/** Replays the DevTLB lookup stream of a trace through one cache. */
cache::CacheStats
replay(const trace::HyperTrace &tr,
       std::unique_ptr<cache::ReplacementPolicy> policy)
{
    cache::CacheConfig config{64, 8, 1, cache::ReplPolicyKind::LRU,
                              7};
    cache::SetAssocCache<int> tlb(config, std::move(policy));
    for (const auto &pkt : tr.packets) {
        for (unsigned c = 0; c < trace::NumReqClasses; ++c) {
            const auto cls = static_cast<trace::ReqClass>(c);
            const auto size = pkt.pageSize(cls);
            const uint64_t key = iommu::translationKey(
                pkt.sid, pkt.iova(cls), size);
            const uint64_t idx =
                iommu::translationIndex(pkt.iova(cls), size);
            if (!tlb.lookup(key, idx))
                tlb.insert(key, idx, 1);
        }
    }
    return tlb.stats();
}

} // namespace

int
main(int argc, char **argv)
{
    unsigned tenants = 6;
    if (argc > 1)
        tenants = examples::countArg("tenants", argv[1]);

    auto logs = workload::generateLogs(workload::Benchmark::Iperf3,
                                       tenants, 42, 0.05);
    const auto tr =
        trace::constructTrace(logs, trace::parseInterleaving("RR1"));
    std::printf("DevTLB replay, iperf3, %u tenants, %zu packets\n\n",
                tenants, tr.packets.size());

    std::printf("%-16s %12s %12s\n", "policy", "hit rate", "evictions");
    struct Row
    {
        const char *name;
        std::unique_ptr<cache::ReplacementPolicy> policy;
    };
    Row rows[] = {
        {"lru", cache::makePolicy(cache::ReplPolicyKind::LRU)},
        {"lfu", cache::makePolicy(cache::ReplPolicyKind::LFU)},
        {"class-pinning", std::make_unique<ClassPinningPolicy>()},
    };
    for (auto &row : rows) {
        const cache::CacheStats stats =
            replay(tr, std::move(row.policy));
        std::printf("%-16s %11.2f%% %12llu\n", row.name,
                    100.0 * (1.0 - stats.missRate()),
                    (unsigned long long)stats.evictions);
    }

    std::printf(
        "\nThe pinning heuristic protects control pages at the cost "
        "of extra data-buffer misses — and typically loses to LFU, "
        "whose frequency counters capture the same insight "
        "adaptively. That is the paper's own conclusion for "
        "motivating LFU, and the point of this example is the "
        "mechanics: any ReplacementPolicy subclass drops into the "
        "cache (and the DevTLB) unchanged.\n");
    return 0;
}
