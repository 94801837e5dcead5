/**
 * @file
 * Layer bench: times the simulator one layer at a time, in one binary.
 *
 *   kernel       the slab event kernel on synthetic schedule/fire
 *                and closure-size mixes (random delays: the fallback
 *                heap) and on hit_path's fixed delays (the lanes)
 *   probes       the 16-wide group-probe backends (util/simd.hh): the
 *                same FlatMap + SetAssocCache traffic through the
 *                build's vector backend and through the scalar
 *                reference, instantiated side by side
 *   translation  adversarial hyper-traces through the full System,
 *                through a functional replay of the translation
 *                structures without the event kernel, and through a
 *                TLB-less walk storm that lands every probe on the
 *                page-table maps
 *   fusion       hit/chipset/walk storms with hit-path event fusion
 *                on and off (SystemConfig::eventFusion)
 *   workload     trace generation, materialized (generateLogs +
 *                constructTrace) against the lazy SpliceStream
 *
 * Every A/B leg runs inside this binary and must produce identical
 * deterministic results before a ratio is reported: the probe
 * backends identical hit/miss counts, the fusion legs identical
 * RunResults, stat-tree bytes and sequence ledgers, the two trace
 * generators the identical packet stream. Rates are best-of-reps
 * (rate noise is one-sided: background load only slows a rep).
 *
 * Usage:
 *   layer_bench [--layer NAME]... [--reps N] [--smoke] [--json FILE]
 *
 * The JSON report (schema hypersio-bench-1) carries the deterministic
 * counts — identical on every machine — next to the wall-clock rates,
 * whose names end in _per_sec, _meps or _speedup.
 */

#include <array>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "bench_common.hh"
#include "workload/adversarial.hh"
#include "workload/streaming.hh"

namespace
{

using namespace hypersio;
using bench::bestWall;
using bench::wallOf;
using bench::JsonReport;

constexpr const char *LayerNames[] = {"kernel", "probes", "translation",
                                      "fusion", "workload"};

struct Options
{
    std::set<std::string> layers;
    unsigned reps = 3;
    bool smoke = false;
    std::string jsonPath;

    bool
    runs(const char *layer) const
    {
        return layers.empty() || layers.count(layer);
    }
};

[[noreturn]] void
usage(const char *argv0, int code)
{
    std::fprintf(
        code == 0 ? stdout : stderr,
        "usage: %s [--layer NAME]... [--reps N] [--smoke] "
        "[--json FILE]\n"
        "  --layer NAME  run only this layer (repeatable; default "
        "all):\n"
        "                kernel, probes, translation, fusion, "
        "workload\n"
        "  --reps N      timed repetitions, best wall counts "
        "(default 3)\n"
        "  --smoke       small inputs, one rep (ctest)\n"
        "  --json FILE   write a hypersio-bench-1 report\n",
        argv0);
    std::exit(code);
}

Options
parseArgs(int argc, char **argv)
{
    Options opts;
    for (core::ArgReader args(argc, argv); args.next();) {
        const std::string &arg = args.flag();
        if (arg == "--layer") {
            const std::string layer = args.value();
            bool known = false;
            for (const char *name : LayerNames)
                known = known || layer == name;
            if (!known) {
                std::fprintf(stderr, "unknown layer '%s'\n",
                             layer.c_str());
                usage(argv[0], 2);
            }
            opts.layers.insert(layer);
        } else if (arg == "--reps") {
            opts.reps = args.count();
        } else if (arg == "--smoke") {
            opts.smoke = true;
        } else if (arg == "--json") {
            opts.jsonPath = args.value();
        } else if (arg == "--help" || arg == "-h") {
            usage(argv[0], 0);
        } else {
            std::fprintf(stderr, "unknown flag '%s'\n", arg.c_str());
            usage(argv[0], 2);
        }
    }
    if (opts.smoke)
        opts.reps = 1;
    return opts;
}

double
count(uint64_t n)
{
    return static_cast<double>(n);
}

// ---------------------------------------------------------------
// kernel: the slab event kernel on synthetic mixes.
// ---------------------------------------------------------------

/** Deterministic xorshift64* stream. */
struct Rng
{
    uint64_t state;

    explicit Rng(uint64_t seed) : state(seed | 1) {}

    uint64_t
    next()
    {
        state ^= state >> 12;
        state ^= state << 25;
        state ^= state >> 27;
        return state * 0x2545f4914f6cdd1dULL;
    }
};

/** Callback capture payload of a chosen size. */
template <size_t Bytes>
struct Payload
{
    static_assert(Bytes % 8 == 0);
    std::array<uint64_t, Bytes / 8> words;
};

/**
 * Rounds of 256 events at pseudo-random offsets, drained after each
 * round. @return executed events
 */
template <size_t CaptureBytes>
uint64_t
scheduleFire(uint64_t events, uint64_t &sink)
{
    constexpr uint64_t Batch = 256;
    sim::EventQueue q;
    Rng rng(0x9e3779b97f4a7c15ULL);
    for (uint64_t done = 0; done < events; done += Batch) {
        for (uint64_t i = 0; i < Batch; ++i) {
            Payload<CaptureBytes> p;
            for (auto &w : p.words)
                w = rng.next();
            q.scheduleAfter(rng.next() % 1024, [&sink, p] {
                sink += p.words.front() ^ p.words.back();
            });
        }
        q.run();
    }
    return q.executed();
}

/**
 * One chain of hit_path's fixed Table II hops: each event re-arms its
 * chain after the 450 ns PCIe one-way (52%), the 2 ns DevTLB/IOTLB
 * hit (30%), the 100 ns two-access chain (9%) or the 61.68 ns arrival
 * slot (9%), the mix of hit_path's pushes, until `left` runs out.
 */
struct FixedHop
{
    sim::EventQueue *q;
    Rng *rng;
    uint64_t *left;
    uint64_t *sink;

    void
    operator()() const
    {
        *sink += q->now();
        if (*left == 0)
            return;
        --*left;
        const uint64_t pick = rng->next() % 100;
        const Tick delay = pick < 52   ? nsToTicks(450)
                           : pick < 82 ? nsToTicks(2)
                           : pick < 91 ? nsToTicks(100)
                                       : nsToTicks(61.68);
        q->scheduleAfter(delay, *this);
    }
};

/**
 * 48 chains of fixed hops in flight, as deep as hit_path's queue:
 * every push lands in a delay lane. @return executed events
 */
uint64_t
fixedDelays(uint64_t events, uint64_t &sink)
{
    constexpr uint64_t Chains = 48;
    sim::EventQueue q;
    Rng rng(0x9e3779b97f4a7c15ULL);
    uint64_t left = events - Chains;
    for (uint64_t c = 0; c < Chains; ++c)
        q.schedule(c, FixedHop{&q, &rng, &left, &sink});
    q.run();
    return q.executed();
}

void
runKernel(const Options &opts, JsonReport &report)
{
    const uint64_t events = opts.smoke ? 1u << 14 : 1u << 20;
    std::printf("\n[kernel] slab event kernel, %llu events per mix\n",
                (unsigned long long)events);
    std::printf("%-24s %12s %10s\n", "mix", "events", "Meps");

    uint64_t sink = 0;
    auto mix = [&](const char *name, auto fn) {
        uint64_t executed = 0;
        const double wall = bestWall(opts.reps, [&](unsigned rep) {
            uint64_t n = 0;
            const double w = wallOf([&] { n = fn(events, sink); });
            HYPERSIO_ASSERT(rep == 0 || n == executed,
                            "%s executed %llu events, then %llu", name,
                            (unsigned long long)executed,
                            (unsigned long long)n);
            executed = n;
            return w;
        });
        const double meps = bench::meps(executed, wall);
        std::printf("%-24s %12llu %10.2f\n", name,
                    (unsigned long long)executed, meps);
        report.addScalar(std::string(name) + "_events", count(executed));
        report.addScalar(std::string(name) + "_meps", meps);
    };
    // Warm the slab outside the timed regions.
    scheduleFire<32>(1u << 12, sink);
    // Each capture is the payload plus the 8-byte &sink. 40 B fills
    // the record's 48 inline bytes, the size of the translation
    // pipeline's largest closure (the IOTLB-hit delivery).
    mix("schedule_fire", scheduleFire<32>);
    mix("closure_8b", scheduleFire<8>);
    mix("closure_40b", scheduleFire<40>);
    mix("fixed_delays", fixedDelays);
    // Depends on every callback having run: no dead-code wins.
    std::printf("checksum: %016llx\n", (unsigned long long)sink);
}

// ---------------------------------------------------------------
// Shared by probes and translation: adversarial traces and the
// tenant-window visit schedule.
// ---------------------------------------------------------------

constexpr workload::AdversarialPattern Patterns[] = {
    workload::AdversarialPattern::UniformRandom,
    workload::AdversarialPattern::PbThrash,
    workload::AdversarialPattern::HugeMix,
};

trace::HyperTrace
adversarialTrace(const Options &opts, workload::AdversarialPattern p)
{
    workload::AdversarialConfig cfg;
    cfg.tenants = opts.smoke ? 32 : 2048;
    cfg.packets = opts.smoke ? 1200 : 24000;
    cfg.seed = 42;
    return workload::makeAdversarialTrace(p, cfg);
}

/**
 * A trace regrouped into tenant windows (in order of first
 * appearance): at most LiveWindow tenants are live at a time, their
 * packets are served in round-robin bursts of Burst (preserving each
 * tenant's own order), and once a window's packets are exhausted
 * every tenant in it detaches before the next window attaches —
 * hyper-tenancy's attach / map / walk / leave cycle at its worst.
 * Packets and ops are materialized in visit order, so a timed replay
 * streams sequentially instead of gathering from the trace.
 */
struct Window
{
    std::vector<trace::PacketRecord> packets;
    std::vector<trace::PageOp> ops; ///< re-based: opBegin indexes this
    std::vector<mem::DomainId> tenants;
};

std::vector<Window>
windowSchedule(const trace::HyperTrace &trace)
{
    constexpr size_t LiveWindow = 64; // fig10's top tenant count
    constexpr size_t Burst = 4;
    std::vector<mem::DomainId> order;
    std::vector<std::vector<uint32_t>> perTenant;
    util::FlatMap<mem::DomainId, uint32_t> indexOf;
    for (uint32_t i = 0; i < trace.packets.size(); ++i) {
        const mem::DomainId sid = trace.packets[i].sid;
        auto [idx, inserted] = indexOf.tryEmplace(sid);
        if (inserted) {
            *idx = static_cast<uint32_t>(order.size());
            order.push_back(sid);
            perTenant.emplace_back();
        }
        perTenant[*idx].push_back(i);
    }

    std::vector<Window> windows;
    for (size_t w0 = 0; w0 < order.size(); w0 += LiveWindow) {
        Window win;
        const size_t w1 = std::min(w0 + LiveWindow, order.size());
        win.tenants.assign(order.begin() + w0, order.begin() + w1);
        std::vector<size_t> cursor(w1 - w0, 0);
        for (bool more = true; more;) {
            more = false;
            for (size_t t = 0; t < cursor.size(); ++t) {
                const auto &list = perTenant[w0 + t];
                for (size_t b = 0; b < Burst && cursor[t] < list.size();
                     ++b) {
                    trace::PacketRecord pkt =
                        trace.packets[list[cursor[t]++]];
                    const auto *ops = trace.ops.data() + pkt.opBegin;
                    pkt.opBegin = static_cast<uint32_t>(win.ops.size());
                    win.ops.insert(win.ops.end(), ops,
                                   ops + pkt.opCount);
                    win.packets.push_back(pkt);
                }
                more = more || cursor[t] < list.size();
            }
        }
        windows.push_back(std::move(win));
    }
    return windows;
}

/** The three translations of a packet: ring, data, notify. */
template <typename Fn>
void
forEachRequest(const trace::PacketRecord &pkt, Fn &&fn)
{
    fn(pkt.ringIova, mem::PageSize::Size4K);
    fn(pkt.dataIova, pkt.dataHuge ? mem::PageSize::Size2M
                                  : mem::PageSize::Size4K);
    fn(pkt.notifyIova, mem::PageSize::Size4K);
}

// ---------------------------------------------------------------
// probes: one FlatMap + SetAssocCache replay per group-probe backend.
// ---------------------------------------------------------------

/**
 * The window schedule's map and cache traffic, with the probe
 * backend a template parameter: a per-tenant page map (page base +
 * size bit -> host address) inside a tenant directory, a per-tenant
 * history map, and a partitioned DevTLB in front of the page maps.
 * Every decision depends only on hit/miss outcomes, which the
 * backends must reproduce bit for bit; the counters prove they did.
 */
template <typename Ops>
class ProbeReplay
{
  public:
    explicit ProbeReplay(const cache::CacheConfig &devtlb)
        : _devtlb(devtlb),
          _partitions(static_cast<uint32_t>(devtlb.partitions))
    {}

    void
    replay(const std::vector<Window> &schedule)
    {
        for (const Window &win : schedule) {
            for (const trace::PacketRecord &pkt : win.packets) {
                const mem::DomainId did = pkt.sid;
                const uint32_t part = did % _partitions;
                PageMap &pages = _tables[did];
                for (uint16_t o = 0; o < pkt.opCount; ++o) {
                    const trace::PageOp &op = win.ops[pkt.opBegin + o];
                    const uint64_t page = pageKey(op.pageBase, op.size);
                    if (op.isMap) {
                        pages.insert(page, hostOf(did, page));
                    } else {
                        pages.erase(page);
                        _devtlb.invalidate(
                            iommu::translationKey(did, op.pageBase,
                                                  op.size),
                            iommu::translationIndex(op.pageBase,
                                                    op.size),
                            part);
                    }
                }
                _history[did] += 1;
                forEachRequest(pkt, [&](mem::Iova iova,
                                        mem::PageSize size) {
                    translate(pages, did, part, iova, size);
                });
            }
            for (const mem::DomainId did : win.tenants) {
                _detaches += _tables.erase(did);
                _history.erase(did);
            }
        }
    }

    uint64_t translations() const { return _translations; }
    uint64_t devtlbHits() const { return _devtlb.stats().hits; }
    uint64_t tableHits() const { return _tableHits; }
    uint64_t detaches() const { return _detaches; }

  private:
    using PageMap = util::FlatMap<uint64_t, uint64_t, Ops>;

    static uint64_t
    pageKey(mem::Addr base, mem::PageSize size)
    {
        return base | (size == mem::PageSize::Size2M ? 1 : 0);
    }

    static uint64_t
    hostOf(mem::DomainId did, uint64_t page)
    {
        return (page ^ (uint64_t{did} << 44)) * 0x9E3779B97F4A7C15ull;
    }

    void
    translate(PageMap &pages, mem::DomainId did, uint32_t part,
              mem::Iova iova, mem::PageSize size)
    {
        ++_translations;
        const uint64_t key = iommu::translationKey(did, iova, size);
        const uint64_t index = iommu::translationIndex(iova, size);
        if (_devtlb.lookup(key, index, part))
            return;
        const uint64_t page = pageKey(mem::pageBase(iova, size), size);
        const uint64_t *host = pages.find(page);
        _tableHits += host != nullptr;
        const uint64_t value = host ? *host : hostOf(did, page);
        if (!host)
            pages.insert(page, value); // map on demand, like a walk
        _devtlb.insert(key, index, value, part);
    }

    util::FlatMap<mem::DomainId, PageMap, Ops> _tables;
    util::FlatMap<mem::DomainId, uint64_t, Ops> _history;
    cache::SetAssocCache<uint64_t, Ops> _devtlb;
    uint32_t _partitions;
    uint64_t _translations = 0;
    uint64_t _tableHits = 0;
    uint64_t _detaches = 0;
};

/** One backend's replay of `schedule`: best wall + the counters. */
template <typename Ops>
std::pair<double, std::array<uint64_t, 4>>
timeProbeReplay(const Options &opts, const std::vector<Window> &schedule)
{
    const cache::CacheConfig devtlb =
        core::SystemConfig::hypertrio().device.devtlb;
    std::array<uint64_t, 4> counts{};
    const double wall = bestWall(opts.reps, [&](unsigned rep) {
        ProbeReplay<Ops> replay(devtlb);
        const double w = wallOf([&] { replay.replay(schedule); });
        const std::array<uint64_t, 4> c{
            replay.translations(), replay.devtlbHits(),
            replay.tableHits(), replay.detaches()};
        HYPERSIO_ASSERT(rep == 0 || c == counts,
                        "probe replay drifted across reps");
        counts = c;
        return w;
    });
    return {wall, counts};
}

void
runProbes(const Options &opts, JsonReport &report)
{
    using Vector = util::simd::DefaultGroupOps;
    using Scalar = util::simd::ScalarGroupOps;
    std::printf("\n[probes] %s vs %s group-probe backend "
                "(FlatMap + SetAssocCache replay)\n",
                Vector::name, Scalar::name);
    std::printf("%-16s %12s %12s %9s %10s %10s\n", "pattern",
                "vector pkt/s", "scalar pkt/s", "speedup",
                "devtlb hit", "table hit");

    uint64_t packets = 0;
    double vector_wall = 0.0;
    double scalar_wall = 0.0;
    for (const auto pattern : Patterns) {
        const trace::HyperTrace trace = adversarialTrace(opts, pattern);
        const std::vector<Window> schedule = windowSchedule(trace);
        const auto [vwall, vcounts] =
            timeProbeReplay<Vector>(opts, schedule);
        const auto [swall, scounts] =
            timeProbeReplay<Scalar>(opts, schedule);
        // Identical layouts and decisions are the backends' contract.
        HYPERSIO_ASSERT(vcounts == scounts,
                        "%s and %s backends diverged", Vector::name,
                        Scalar::name);
        HYPERSIO_ASSERT(vcounts[0] == trace.packets.size() * 3,
                        "probe replay translated %llu of %zu requests",
                        (unsigned long long)vcounts[0],
                        trace.packets.size() * 3);

        const uint64_t n = trace.packets.size();
        const double vpps = bench::perSecond(n, vwall);
        const double spps = bench::perSecond(n, swall);
        const std::string name =
            workload::adversarialPatternName(pattern);
        std::printf("%-16s %12.0f %12.0f %8.2fx %10llu %10llu\n",
                    name.c_str(), vpps, spps,
                    bench::speedupRatio(vpps, spps),
                    (unsigned long long)vcounts[1],
                    (unsigned long long)vcounts[2]);
        const std::string prefix = name + "_probe_";
        report.addScalar(prefix + "translations", count(vcounts[0]));
        report.addScalar(prefix + "devtlb_hits", count(vcounts[1]));
        report.addScalar(prefix + "table_hits", count(vcounts[2]));
        report.addScalar(prefix + "detaches", count(vcounts[3]));
        report.addScalar(prefix + "vector_packets_per_sec", vpps);
        report.addScalar(prefix + "scalar_packets_per_sec", spps);
        packets += n;
        vector_wall += vwall;
        scalar_wall += swall;
    }
    const double vpps = bench::perSecond(packets, vector_wall);
    const double spps = bench::perSecond(packets, scalar_wall);
    const double speedup = bench::speedupRatio(vpps, spps);
    std::printf("probe total: %.0f vs %.0f packets/s = %.2fx\n", vpps,
                spps, speedup);
    // Width is the layout contract (16 lanes even for the scalar
    // backend); simd_probes records whether a vector unit backs the
    // default backend on this target.
    report.addScalar("probe_group_width",
                     count(util::simd::GroupWidth));
    report.addScalar("simd_probes",
                     std::strcmp(Vector::name, Scalar::name) ? 1.0 : 0.0);
    report.addScalar("probe_vector_packets_per_sec", vpps);
    report.addScalar("probe_scalar_packets_per_sec", spps);
    report.addScalar("probe_speedup", speedup);
}

// ---------------------------------------------------------------
// translation: full System, functional replay, walk storm.
// ---------------------------------------------------------------

/**
 * Functional replay: the translation path's structure traffic with
 * the event kernel stripped away. It drives the real structures
 * (SetAssocCache DevTLB/IOTLB/L2/L3, the PrefetchUnit with its SID
 * predictor, the PageTableDirectory) through the trace synchronously:
 * per packet, apply the page ops, train the predictor, run one
 * predictor-driven prefetch fill, and translate ring + data + notify
 * through DevTLB -> PB -> IOTLB -> L2/L3 -> walk, filling on miss.
 */
class FunctionalPath
{
  public:
    explicit FunctionalPath(const core::SystemConfig &cfg)
        : _devtlb(cfg.device.devtlb),
          _devtlbPartitions(
              static_cast<uint32_t>(cfg.device.devtlb.partitions)),
          _iotlb(cfg.iommu.iotlb), _l2(cfg.iommu.l2tlb),
          _l3(cfg.iommu.l3tlb), _prefetch(cfg.device.prefetch),
          _tables(cfg.seed)
    {}

    void
    replay(const trace::HyperTrace &trace)
    {
        for (const auto &pkt : trace.packets) {
            applyOps(trace, pkt);
            _prefetch.observePacket(pkt.sid);
            prefetchFor(pkt.sid);
            forEachRequest(pkt, [&](mem::Iova iova,
                                    mem::PageSize size) {
                translate(pkt.sid, iova, size);
            });
        }
    }

    uint64_t translations() const { return _translations; }
    uint64_t walks() const { return _walks; }

    uint64_t
    lookups() const
    {
        return _devtlb.stats().lookups +
               _prefetch.bufferStats().lookups +
               _iotlb.stats().lookups + _l2.stats().lookups +
               _l3.stats().lookups;
    }

  private:
    uint32_t
    partitionOf(trace::SourceId sid) const
    {
        return static_cast<uint32_t>(sid) % _devtlbPartitions;
    }

    void
    applyOps(const trace::HyperTrace &trace,
             const trace::PacketRecord &pkt)
    {
        for (uint16_t i = 0; i < pkt.opCount; ++i) {
            const trace::PageOp &op = trace.ops[pkt.opBegin + i];
            mem::PageTable &table = _tables.get(pkt.sid);
            if (op.isMap) {
                table.map(op.pageBase, op.size);
                continue;
            }
            table.unmap(op.pageBase);
            const uint64_t key =
                iommu::translationKey(pkt.sid, op.pageBase, op.size);
            const uint64_t index =
                iommu::translationIndex(op.pageBase, op.size);
            _devtlb.invalidate(key, index, partitionOf(pkt.sid));
            _iotlb.invalidate(key, index);
            _prefetch.invalidate(pkt.sid, op.pageBase, op.size);
        }
    }

    /** One Prefetch Buffer fill for the predicted next tenant. */
    void
    prefetchFor(trace::SourceId sid)
    {
        const auto predicted = _prefetch.predict(sid);
        if (!predicted)
            return;
        const uint64_t *last = _lastIova.find(*predicted);
        if (!last)
            return;
        const mem::Iova iova = *last & ~uint64_t{1};
        const mem::PageSize size = (*last & 1) ? mem::PageSize::Size2M
                                               : mem::PageSize::Size4K;
        const mem::Translation tr =
            _tables.get(*predicted).translate(iova);
        if (tr.valid)
            _prefetch.fill(*predicted, iova, size, tr.hostAddr);
    }

    void
    translate(trace::SourceId sid, mem::Iova iova, mem::PageSize size)
    {
        const mem::DomainId did = sid;
        ++_translations;
        _lastIova[did] = iova | (size == mem::PageSize::Size2M ? 1 : 0);
        const uint64_t key = iommu::translationKey(did, iova, size);
        const uint64_t index = iommu::translationIndex(iova, size);
        const uint32_t part = partitionOf(sid);
        if (_devtlb.lookup(key, index, part))
            return;
        mem::Addr host = 0;
        if (_prefetch.lookup(did, iova, size, host)) {
            _devtlb.insert(key, index, host, part);
            return;
        }
        if (const mem::Addr *h = _iotlb.lookup(key, index)) {
            _devtlb.insert(key, index, *h, part);
            return;
        }
        // Paging-structure caches cover the upper walk levels; key
        // on the page-directory range of the gIOVA.
        const uint64_t l2_key = iommu::translationKey(did, iova >> 9, size);
        const uint64_t l2_index = iommu::translationIndex(iova >> 9, size);
        const bool l2_hit = _l2.lookup(l2_key, l2_index) != nullptr;
        const uint64_t l3_key =
            iommu::translationKey(did, iova >> 18, size);
        const uint64_t l3_index =
            iommu::translationIndex(iova >> 18, size);
        const bool l3_hit =
            l2_hit || _l3.lookup(l3_key, l3_index) != nullptr;
        ++_walks;
        mem::PageTable &table = _tables.get(did);
        mem::Translation tr = table.translate(iova);
        if (!tr.valid) {
            // A replayed unmap can race a later packet; map on demand
            // like the timed model's walk path does.
            table.map(iova, size);
            tr = table.translate(iova);
        }
        if (!l3_hit)
            _l3.insert(l3_key, l3_index, tr.hostAddr);
        if (!l2_hit)
            _l2.insert(l2_key, l2_index, tr.hostAddr);
        _iotlb.insert(key, index, tr.hostAddr);
        _devtlb.insert(key, index, tr.hostAddr, part);
    }

    cache::SetAssocCache<mem::Addr> _devtlb;
    uint32_t _devtlbPartitions;
    cache::SetAssocCache<mem::Addr> _iotlb;
    cache::SetAssocCache<mem::Addr> _l2;
    cache::SetAssocCache<mem::Addr> _l3;
    core::PrefetchUnit _prefetch;
    iommu::PageTableDirectory _tables;
    util::FlatMap<mem::DomainId, uint64_t> _lastIova;
    uint64_t _translations = 0;
    uint64_t _walks = 0;
};

/**
 * Walk storm: the window schedule with no TLBs at all, so every
 * probe lands on the page-table directory, the per-domain page
 * tables (churned by the trace's map/unmap ops), the SID-predictor
 * table, and a per-tenant history map.
 */
class WalkStorm
{
  public:
    explicit WalkStorm(const core::SystemConfig &cfg)
        : _predictor(cfg.device.prefetch.historyLength),
          _tables(cfg.seed)
    {}

    void
    replay(const std::vector<Window> &schedule)
    {
        for (const Window &win : schedule) {
            for (const trace::PacketRecord &pkt : win.packets) {
                const mem::DomainId did = pkt.sid;
                for (uint16_t o = 0; o < pkt.opCount; ++o) {
                    const trace::PageOp &op = win.ops[pkt.opBegin + o];
                    mem::PageTable &table = _tables.get(did);
                    if (op.isMap)
                        table.map(op.pageBase, op.size);
                    else
                        table.unmap(op.pageBase);
                }
                _predictor.train(pkt.sid);
                if (const auto next = _predictor.predict(pkt.sid))
                    _history[*next] ^= pkt.ringIova;
                _history[did] += 1;
                forEachRequest(pkt, [&](mem::Iova iova,
                                        mem::PageSize size) {
                    walk(did, iova, size);
                });
            }
            for (const mem::DomainId did : win.tenants) {
                _detaches += _tables.erase(did);
                _history.erase(did);
            }
        }
    }

    uint64_t walks() const { return _walks; }
    uint64_t mapped() const { return _mapped; }
    uint64_t detaches() const { return _detaches; }

  private:
    void
    walk(mem::DomainId did, mem::Iova iova, mem::PageSize size)
    {
        ++_walks;
        mem::PageTable &table = _tables.get(did);
        mem::Translation tr = table.translate(iova);
        if (!tr.valid) {
            table.map(iova, size);
            tr = table.translate(iova);
        }
        _mapped += tr.valid;
    }

    core::SidPredictor _predictor;
    iommu::PageTableDirectory _tables;
    util::FlatMap<mem::DomainId, uint64_t> _history;
    uint64_t _walks = 0;
    uint64_t _mapped = 0;
    uint64_t _detaches = 0;
};

/** A timed System::run: best wall, results, structure lookups. */
struct SystemRun
{
    double wall = 0.0;
    core::RunResults results;
    uint64_t devtlb = 0, pb = 0, context = 0, iotlb = 0, l2 = 0, l3 = 0;
};

/** One System::run per rep; results must not drift across reps. */
SystemRun
timeSystemRun(unsigned reps, const core::SystemConfig &cfg,
              const trace::HyperTrace &trace)
{
    SystemRun run;
    run.wall = bestWall(reps, [&](unsigned rep) {
        core::System system(cfg);
        core::RunResults r;
        const double w = wallOf([&] { r = system.run(trace); });
        HYPERSIO_ASSERT(r.packetsProcessed == trace.packets.size(),
                        "run processed %llu of %zu packets",
                        (unsigned long long)r.packetsProcessed,
                        trace.packets.size());
        HYPERSIO_ASSERT(rep == 0 || r == run.results,
                        "run results drifted across reps");
        run.results = r;
        const cache::CacheStats *pb =
            system.device().prefetchBufferStats();
        run.devtlb = system.device().devtlbStats().lookups;
        run.pb = pb ? pb->lookups : 0;
        run.context = system.device().contextStats().lookups;
        run.iotlb = system.iommuUnit().iotlbStats().lookups;
        run.l2 = system.iommuUnit().l2Stats().lookups;
        run.l3 = system.iommuUnit().l3Stats().lookups;
        return w;
    });
    return run;
}

void
runTranslation(const Options &opts, JsonReport &report)
{
    std::printf("\n[translation] HyperTRIO over adversarial "
                "hyper-traces\n");
    std::printf("%-16s %12s %12s %12s %10s %10s %10s\n", "pattern",
                "system pkt/s", "struct pkt/s", "walk pkt/s", "walks",
                "iotlb", "drops");

    uint64_t packets = 0;
    double sys_wall = 0.0;
    double fn_wall = 0.0;
    double ws_wall = 0.0;
    for (const auto pattern : Patterns) {
        const trace::HyperTrace trace = adversarialTrace(opts, pattern);
        const uint64_t n = trace.packets.size();
        const core::SystemConfig cfg = core::SystemConfig::hypertrio();

        // Full system: every layer, event kernel included.
        const SystemRun sys = timeSystemRun(opts.reps, cfg, trace);

        // Functional replay: the structures without the kernel.
        uint64_t fn_walks = 0;
        uint64_t fn_lookups = 0;
        const double fwall = bestWall(opts.reps, [&](unsigned rep) {
            FunctionalPath path(cfg);
            const double w = wallOf([&] { path.replay(trace); });
            HYPERSIO_ASSERT(path.translations() == n * 3,
                            "functional replay translated %llu of "
                            "%llu requests",
                            (unsigned long long)path.translations(),
                            (unsigned long long)(n * 3));
            HYPERSIO_ASSERT(rep == 0 || path.walks() == fn_walks,
                            "functional replay drifted across reps");
            fn_walks = path.walks();
            fn_lookups = path.lookups();
            return w;
        });

        // Walk storm: the page-table maps alone, under tenant churn.
        const std::vector<Window> schedule = windowSchedule(trace);
        uint64_t ws_mapped = 0;
        uint64_t ws_detaches = 0;
        const double wwall = bestWall(opts.reps, [&](unsigned rep) {
            WalkStorm storm(cfg);
            const double w = wallOf([&] { storm.replay(schedule); });
            HYPERSIO_ASSERT(storm.walks() == n * 3,
                            "walk storm performed %llu of %llu walks",
                            (unsigned long long)storm.walks(),
                            (unsigned long long)(n * 3));
            HYPERSIO_ASSERT(rep == 0 || (storm.mapped() == ws_mapped &&
                                         storm.detaches() == ws_detaches),
                            "walk storm drifted across reps");
            ws_mapped = storm.mapped();
            ws_detaches = storm.detaches();
            return w;
        });

        const std::string name =
            workload::adversarialPatternName(pattern);
        const double pps = bench::perSecond(n, sys.wall);
        const double fn_pps = bench::perSecond(n, fwall);
        const double ws_pps = bench::perSecond(n, wwall);
        std::printf("%-16s %12.0f %12.0f %12.0f %10llu %10llu %10llu\n",
                    name.c_str(), pps, fn_pps, ws_pps,
                    (unsigned long long)sys.results.walks,
                    (unsigned long long)sys.iotlb,
                    (unsigned long long)sys.results.packetsDropped);

        const std::string p = name + "_";
        report.addScalar(p + "packets", count(n));
        report.addScalar(p + "packets_per_sec", pps);
        report.addScalar(p + "translations",
                         count(sys.results.translations));
        report.addScalar(p + "devtlb_lookups", count(sys.devtlb));
        report.addScalar(p + "pb_lookups", count(sys.pb));
        report.addScalar(p + "context_lookups", count(sys.context));
        report.addScalar(p + "iotlb_lookups", count(sys.iotlb));
        report.addScalar(p + "l2_lookups", count(sys.l2));
        report.addScalar(p + "l3_lookups", count(sys.l3));
        report.addScalar(p + "walks", count(sys.results.walks));
        report.addScalar(p + "drop_events",
                         count(sys.results.packetsDropped));
        report.addScalar(p + "iommu_requests",
                         count(sys.results.iommuRequests));
        report.addScalar(p + "functional_packets_per_sec", fn_pps);
        report.addScalar(p + "functional_translations", count(n * 3));
        report.addScalar(p + "functional_walks", count(fn_walks));
        report.addScalar(p + "functional_probe_lookups",
                         count(fn_lookups));
        report.addScalar(p + "walkstorm_packets_per_sec", ws_pps);
        report.addScalar(p + "walkstorm_walks", count(n * 3));
        report.addScalar(p + "walkstorm_mapped_walks", count(ws_mapped));
        report.addScalar(p + "walkstorm_detaches", count(ws_detaches));
        packets += n;
        sys_wall += sys.wall;
        fn_wall += fwall;
        ws_wall += wwall;
    }

    const double pps = bench::perSecond(packets, sys_wall);
    const double fn_pps = bench::perSecond(packets, fn_wall);
    const double ws_pps = bench::perSecond(packets, ws_wall);
    std::printf("translation total: %.0f (system) %.0f (structures) "
                "%.0f (walk storm) packets/s\n",
                pps, fn_pps, ws_pps);
    report.addScalar("total_packets", count(packets));
    report.addScalar("total_packets_per_sec", pps);
    report.addScalar("total_functional_packets_per_sec", fn_pps);
    report.addScalar("total_walkstorm_packets_per_sec", ws_pps);
}

// ---------------------------------------------------------------
// fusion: fused vs per-hop storms.
// ---------------------------------------------------------------

/**
 * Trace builder that attaches the map op for each page to the first
 * packet that touches it (the device applies a packet's ops at
 * accept, so the functional tables stay consistent).
 */
class StormTrace
{
  public:
    explicit StormTrace(unsigned tenants)
    {
        _trace.numTenants = tenants;
        _trace.seed = 42;
    }

    void
    addPacket(trace::SourceId sid, mem::Iova ring, mem::Iova data,
              bool data_huge, mem::Iova notify)
    {
        HYPERSIO_ASSERT(sid < trace::SidSpace,
                        "storm SID %u is outside the SID space", sid);
        trace::PacketRecord pkt;
        pkt.sid = static_cast<uint16_t>(sid);
        pkt.ringIova = ring;
        pkt.dataIova = data;
        pkt.dataHuge = data_huge;
        pkt.notifyIova = notify;
        pkt.opBegin = static_cast<uint32_t>(_trace.ops.size());
        forEachRequest(pkt, [&](mem::Iova iova, mem::PageSize size) {
            const mem::Addr base = mem::pageBase(iova, size);
            if (_mapped.insert((uint64_t{sid} << 40) ^ base).second)
                _trace.ops.push_back({base, size, /*isMap=*/true});
        });
        pkt.opCount =
            static_cast<uint16_t>(_trace.ops.size() - pkt.opBegin);
        _trace.packets.push_back(pkt);
    }

    trace::HyperTrace take() { return std::move(_trace); }

  private:
    trace::HyperTrace _trace;
    std::set<uint64_t> _mapped;
};

/**
 * hit_storm: line-rate arrivals into a three-page per-tenant working
 * set; after warmup every request is a DevTLB hit, so a packet's
 * translation chain is pure 2 ns hops (3 events -> 1 with fusion).
 */
trace::HyperTrace
makeHitStorm(unsigned tenants, uint64_t packets)
{
    StormTrace storm(tenants);
    for (uint64_t i = 0; i < packets; ++i) {
        const auto sid = static_cast<trace::SourceId>(i % tenants);
        // Per-tenant pages spread across DevTLB sets (the device TLB
        // indexes raw iova bits, so same-iova tenants would conflict
        // — Section IV-D; this storm wants the opposite).
        storm.addPacket(sid, (0x100 + sid * 3) * 0x1000ULL,
                        0x40000000ULL + sid * 0x200000ULL,
                        /*data_huge=*/true,
                        (0x101 + sid * 3) * 0x1000ULL);
    }
    return storm.take();
}

/**
 * chipset_storm: sparse arrivals whose working set (8 tenants x 288
 * pages) misses the 64-entry DevTLB but fits the 4096-entry IOTLB, so
 * every request is the full deterministic device -> PCIe -> IOMMU ->
 * PCIe -> device round trip, which fuses end to end.
 */
trace::HyperTrace
makeChipsetStorm(unsigned tenants, uint64_t packets)
{
    constexpr uint64_t DataPages = 192;
    constexpr uint64_t RingPages = 48;
    StormTrace storm(tenants);
    for (uint64_t i = 0; i < packets; ++i) {
        const auto sid = static_cast<trace::SourceId>(i % tenants);
        const uint64_t turn = i / tenants;
        storm.addPacket(
            sid, 0x10000000ULL + (turn % RingPages) * 0x1000,
            0x80000000ULL + (turn % DataPages) * 0x1000,
            /*data_huge=*/false,
            0x20000000ULL + ((turn * 7) % RingPages) * 0x1000);
    }
    return storm.take();
}

/**
 * walk_storm: sparse arrivals, every data page fresh, so each data
 * translation walks through the memory model — never fusible —
 * bounding the win on walk-bound workloads.
 */
trace::HyperTrace
makeWalkStorm(unsigned tenants, uint64_t packets)
{
    StormTrace storm(tenants);
    for (uint64_t i = 0; i < packets; ++i) {
        const auto sid = static_cast<trace::SourceId>(i % tenants);
        storm.addPacket(sid, 0x10000, 0x100000000ULL + i * 0x1000,
                        /*data_huge=*/false, 0x20000);
    }
    return storm.take();
}

/** One measured leg of one storm. */
struct StormRun
{
    core::RunResults results;
    std::string statsBytes;
    uint64_t fusedHops = 0;
    uint64_t dispatched = 0;
    uint64_t scheduledSeq = 0;
    double wall = 0.0;
};

StormRun
runStorm(unsigned reps, const core::SystemConfig &config,
         const trace::HyperTrace &trace)
{
    StormRun run;
    run.wall = bestWall(reps, [&](unsigned rep) {
        core::System system(config);
        core::RunResults results;
        const double w = wallOf([&] { results = system.run(trace); });
        std::ostringstream stats;
        system.dumpStats(stats);
        HYPERSIO_ASSERT(rep == 0 || (results == run.results &&
                                     stats.str() == run.statsBytes),
                        "storm results drifted across reps");
        run.results = results;
        run.statsBytes = stats.str();
        run.fusedHops = system.eventQueue().fusedHops();
        run.dispatched = system.eventQueue().executed();
        run.scheduledSeq = system.eventQueue().scheduledSeq();
        return w;
    });
    return run;
}

void
runFusion(const Options &opts, JsonReport &report)
{
    struct StormSpec
    {
        const char *name;
        trace::HyperTrace (*make)(unsigned, uint64_t);
        double gbps;   ///< line rate for the hit storm, sparse otherwise
        uint64_t div;  ///< packets relative to the hit storm
    };
    constexpr StormSpec Storms[] = {
        {"hit_storm", &makeHitStorm, 200.0, 1},
        {"chipset_storm", &makeChipsetStorm, 2.0, 2},
        {"walk_storm", &makeWalkStorm, 2.0, 16},
    };
    constexpr unsigned Tenants = 8;
    const uint64_t hit_packets = opts.smoke ? 4000 : 240000;

    std::printf("\n[fusion] fused vs per-hop storms, %u tenants\n",
                Tenants);
    std::printf("%-16s %12s %12s %9s %12s %12s\n", "storm",
                "fused pkt/s", "per-hop", "speedup", "fused hops",
                "dispatched");

    uint64_t packets = 0;
    double fused_wall = 0.0;
    double perhop_wall = 0.0;
    for (const auto &spec : Storms) {
        const uint64_t n = hit_packets / spec.div;
        const trace::HyperTrace trace = spec.make(Tenants, n);

        core::SystemConfig config = core::SystemConfig::base();
        config.name = spec.name;
        // Deep PTB so the pipeline keeps packets in flight instead of
        // measuring drop bookkeeping.
        config.device.ptbEntries = 32;
        config.link.gbps = spec.gbps;
        config.eventFusion = true;
        const StormRun fused = runStorm(opts.reps, config, trace);
        config.eventFusion = false;
        const StormRun perhop = runStorm(opts.reps, config, trace);

        HYPERSIO_ASSERT(fused.results.packetsProcessed == n,
                        "storm processed %llu of %llu packets",
                        (unsigned long long)fused.results.packetsProcessed,
                        (unsigned long long)n);
        // Identical simulation, fewer dispatches: any observable
        // difference is a bug.
        HYPERSIO_ASSERT(perhop.results == fused.results,
                        "fused and per-hop results differ");
        HYPERSIO_ASSERT(perhop.statsBytes == fused.statsBytes,
                        "fused and per-hop stat trees differ");
        HYPERSIO_ASSERT(perhop.fusedHops == 0,
                        "per-hop leg fused %llu hops",
                        (unsigned long long)perhop.fusedHops);
        HYPERSIO_ASSERT(perhop.scheduledSeq == fused.scheduledSeq,
                        "seq ledger mismatch: %llu != %llu",
                        (unsigned long long)perhop.scheduledSeq,
                        (unsigned long long)fused.scheduledSeq);
        // Refused arrival slots are parked in both legs alike
        // (DESIGN.md §15), so every elided hop is one dispatch less.
        HYPERSIO_ASSERT(perhop.dispatched ==
                            fused.dispatched + fused.fusedHops,
                        "event ledger mismatch: %llu != %llu + %llu",
                        (unsigned long long)perhop.dispatched,
                        (unsigned long long)fused.dispatched,
                        (unsigned long long)fused.fusedHops);

        const double pps = bench::perSecond(n, fused.wall);
        const double perhop_pps = bench::perSecond(n, perhop.wall);
        std::printf("%-16s %12.0f %12.0f %8.2fx %12llu %12llu\n",
                    spec.name, pps, perhop_pps,
                    bench::speedupRatio(pps, perhop_pps),
                    (unsigned long long)fused.fusedHops,
                    (unsigned long long)fused.dispatched);
        const std::string p = std::string(spec.name) + "_";
        report.addScalar(p + "packets", count(n));
        report.addScalar(p + "translations",
                         count(fused.results.translations));
        report.addScalar(p + "walks", count(fused.results.walks));
        report.addScalar(p + "iommu_requests",
                         count(fused.results.iommuRequests));
        report.addScalar(p + "fused_hops", count(fused.fusedHops));
        report.addScalar(p + "packets_per_sec", pps);
        report.addScalar(p + "perhop_packets_per_sec", perhop_pps);
        packets += n;
        fused_wall += fused.wall;
        perhop_wall += perhop.wall;
    }
    const double pps = bench::perSecond(packets, fused_wall);
    const double perhop_pps = bench::perSecond(packets, perhop_wall);
    const double speedup = bench::speedupRatio(pps, perhop_pps);
    std::printf("fusion total: %.0f vs %.0f packets/s = %.2fx\n", pps,
                perhop_pps, speedup);
    report.addScalar("fusion_packets", count(packets));
    report.addScalar("fusion_packets_per_sec", pps);
    report.addScalar("fusion_perhop_packets_per_sec", perhop_pps);
    report.addScalar("fusion_speedup", speedup);
}

// ---------------------------------------------------------------
// workload: materialized vs streamed trace generation.
// ---------------------------------------------------------------

/** Order-sensitive digest of a packet and its page ops. */
uint64_t
mixPacket(uint64_t h, const trace::PacketRecord &pkt,
          const trace::PageOp *ops)
{
    auto mix = [&h](uint64_t v) {
        h = (h ^ v) * 0x100000001b3ULL;
    };
    mix(pkt.sid);
    mix(pkt.ringIova);
    mix(pkt.dataIova);
    mix(pkt.notifyIova);
    mix(pkt.dataHuge);
    for (uint16_t i = 0; i < pkt.opCount; ++i)
        mix(ops[i].pageBase ^ (uint64_t(ops[i].isMap) << 63));
    return h;
}

void
runWorkload(const Options &opts, JsonReport &report)
{
    constexpr auto Bench = workload::Benchmark::Iperf3;
    const unsigned tenants = opts.smoke ? 16 : 256;
    const double scale = opts.smoke ? 0.001 : 0.005;
    const trace::Interleaving rr1 = trace::parseInterleaving("RR1");
    std::printf("\n[workload] %s trace generation, %u tenants, "
                "scale %g\n",
                workload::benchmarkName(Bench), tenants, scale);

    uint64_t packets = 0;
    uint64_t ops = 0;
    uint64_t digest = 0;
    // Both legs digest every packet they produce, so the digest's
    // cost is common to both rates.
    const double mwall = bestWall(opts.reps, [&](unsigned) {
        return wallOf([&] {
            const trace::HyperTrace trace = trace::constructTrace(
                workload::generateLogs(Bench, tenants, 42, scale), rr1);
            uint64_t h = 0xcbf29ce484222325ULL;
            for (const auto &pkt : trace.packets)
                h = mixPacket(h, pkt, trace.ops.data() + pkt.opBegin);
            packets = trace.packets.size();
            ops = trace.ops.size();
            digest = h;
        });
    });
    const double swall = bestWall(opts.reps, [&](unsigned) {
        uint64_t h = 0xcbf29ce484222325ULL;
        uint64_t n = 0;
        const double w = wallOf([&] {
            workload::SpliceStream stream(Bench, tenants, 42, rr1,
                                          scale);
            for (const trace::PacketRecord *pkt; (pkt = stream.peek());
                 stream.advance(), ++n)
                h = mixPacket(h, *pkt, stream.ops());
        });
        // The lazy generator must replay the materialized trace
        // packet for packet.
        HYPERSIO_ASSERT(n == packets && h == digest,
                        "SpliceStream diverged from constructTrace");
        return w;
    });
    const double mpps = bench::perSecond(packets, mwall);
    const double spps = bench::perSecond(packets, swall);
    std::printf("%llu packets, %llu page ops: materialized %.0f, "
                "streamed %.0f packets/s\n",
                (unsigned long long)packets, (unsigned long long)ops,
                mpps, spps);
    report.addScalar("workload_packets", count(packets));
    report.addScalar("workload_page_ops", count(ops));
    report.addScalar("workload_materialized_packets_per_sec", mpps);
    report.addScalar("workload_stream_packets_per_sec", spps);
}

} // namespace

int
main(int argc, char **argv)
{
    const Options opts = parseArgs(argc, argv);
    const bench::WallTimer timer;

    core::BenchOptions ropts;
    ropts.jsonPath = opts.jsonPath;
    JsonReport report("layer_bench", ropts);

    std::printf("layer bench: %u rep(s)%s\n", opts.reps,
                opts.smoke ? ", smoke sizes" : "");
    if (opts.runs("kernel"))
        runKernel(opts, report);
    if (opts.runs("probes"))
        runProbes(opts, report);
    if (opts.runs("translation"))
        runTranslation(opts, report);
    if (opts.runs("fusion"))
        runFusion(opts, report);
    if (opts.runs("workload"))
        runWorkload(opts, report);
    report.write(timer.seconds());
    return 0;
}
