/**
 * @file
 * Fig. 8 analogue: single-tenant I/O virtual page characterisation.
 *
 * (a) Page-access frequencies split into three groups: one hot 4 KB
 *     control page, 32 x 2 MB data-buffer pages of roughly equal
 *     frequency, and ~70 cold 4 KB init pages (< 100 accesses each).
 * (b) The data-buffer access pattern is periodic: each 2 MB page is
 *     accessed ~1500 times in a row before the driver unmaps it and
 *     moves to the next page in the ring.
 */

#include <algorithm>
#include <unordered_map>

#include "bench_common.hh"

using namespace hypersio;

int
main(int argc, char **argv)
{
    const auto opts = core::BenchOptions::parse(argc, argv);
    bench::banner("Fig. 8",
                  "single-tenant page-access characterisation "
                  "(mediastream)",
                  opts);

    const bench::WallTimer timer;
    bench::JsonReport report("fig08_characterization", opts);

    // Single tenant, long log, paper-like pattern.
    const auto profile =
        workload::benchmarkProfile(workload::Benchmark::Mediastream);
    const uint64_t packets = 200000;
    const trace::TenantLog log =
        workload::TenantStream(profile.pattern, opts.seed, 0, packets)
            .drain();

    // ---- (a) frequency groups --------------------------------------
    const workload::PageAccessStats stats = workload::analyzeLog(log);
    std::printf("(a) page access frequencies — %zu distinct pages, "
                "%llu translation requests\n",
                stats.pages.size(),
                (unsigned long long)log.translations());
    std::printf("%-14s %6s %12s\n", "page", "size", "accesses");
    size_t shown = 0;
    uint64_t data_total = 0;
    uint64_t data_pages = 0;
    uint64_t init_pages = 0;
    uint64_t init_max = 0;
    for (const auto &pc : stats.pages) {
        if (pc.size == mem::PageSize::Size2M) {
            ++data_pages;
            data_total += pc.count;
        }
        if (pc.page >= 0xf0000000) {
            ++init_pages;
            init_max = std::max(init_max, pc.count);
        }
        if (shown < 8) {
            std::printf("%#-14llx %6s %12llu\n",
                        (unsigned long long)pc.page,
                        pc.size == mem::PageSize::Size2M ? "2M"
                                                         : "4K",
                        (unsigned long long)pc.count);
            ++shown;
        }
    }
    const double gap =
        data_pages == 0
            ? 0.0
            : static_cast<double>(stats.pages.front().count) /
                  (static_cast<double>(data_total) /
                   static_cast<double>(data_pages));
    std::printf("  ...\n");
    std::printf("group 1: control page %#llx, %llu accesses\n",
                (unsigned long long)stats.pages.front().page,
                (unsigned long long)stats.pages.front().count);
    std::printf("group 2: %llu x 2MB data pages, ~%llu accesses "
                "each (hot/data gap %.0fx; paper ~30x per control "
                "access, ours counts ring+notify)\n",
                (unsigned long long)data_pages,
                (unsigned long long)(data_total /
                                     std::max<uint64_t>(1,
                                                        data_pages)),
                gap);
    std::printf("group 3: %llu init pages, max %llu accesses "
                "(paper: <100)\n",
                (unsigned long long)init_pages,
                (unsigned long long)init_max);
    report.addScalar("distinct_pages",
                     static_cast<double>(stats.pages.size()));
    report.addScalar("translations",
                     static_cast<double>(log.translations()));
    report.addScalar("data_pages", static_cast<double>(data_pages));
    report.addScalar("hot_data_gap", gap);

    // ---- (b) periodic pattern --------------------------------------
    // Count the accesses every 2 MB page receives between being
    // mapped and being recycled (its mapping epoch) — the paper's
    // "each page is accessed ~1500 times in a row until the driver
    // unmaps it and starts using buffers in the next page".
    std::printf("\n(b) data-buffer access pattern (accesses per "
                "page mapping epoch)\n");
    std::unordered_map<mem::Addr, uint64_t> epoch_count;
    std::vector<uint64_t> epochs;
    for (const auto &pkt : log.packets) {
        for (uint16_t i = 0; i < pkt.opCount; ++i) {
            const trace::PageOp &op = log.ops[pkt.opBegin + i];
            if (!op.isMap &&
                op.size == mem::PageSize::Size2M) {
                auto it = epoch_count.find(op.pageBase);
                if (it != epoch_count.end()) {
                    epochs.push_back(it->second);
                    it->second = 0;
                }
            }
        }
        if (pkt.dataHuge && pkt.dataIova < 0xf0000000) {
            ++epoch_count[mem::pageBase(pkt.dataIova,
                                        mem::PageSize::Size2M)];
        }
    }
    if (!epochs.empty()) {
        uint64_t sum = 0;
        for (uint64_t e : epochs)
            sum += e;
        std::printf("observed %zu completed mapping epochs; mean "
                    "%.0f accesses per page per epoch (paper: "
                    "~1500, sequential within each of %u streams)\n",
                    epochs.size(),
                    static_cast<double>(sum) /
                        static_cast<double>(epochs.size()),
                    profile.pattern.streams);
        report.addScalar("mean_epoch_accesses",
                         static_cast<double>(sum) /
                             static_cast<double>(epochs.size()));
    }

    // Active translation set (used by Fig. 11c).
    for (workload::Benchmark b : workload::AllBenchmarks) {
        const unsigned active = bench::activeSet(b, opts.seed);
        std::printf("active translation set, %-12s: %u "
                    "(paper: iperf3 8, mediastream 32, websearch "
                    "36)\n",
                    workload::benchmarkName(b), active);
        report.addScalar(std::string("active_set.") +
                             workload::benchmarkName(b),
                         active);
    }
    report.write(timer.seconds());
    bench::wallClockLine(timer, opts);
    return 0;
}
