/**
 * @file
 * Interval-delta telemetry over a statistics tree.
 *
 * The stat tree (stats.hh) carries cumulative values: counters only
 * grow, histograms only accumulate. A long-haul run cares about the
 * *trajectory* — did this interval's throughput, hit rate, or memory
 * differ from the last one? — so the Snapshotter walks the tree
 * through the StatVisitor double dispatch, flattens every stat to a
 * dotted path, and diffs each cumulative value against the previous
 * capture. One capture is a Snapshot; a run emits a stream of them
 * (one JSON object per line, schema "hypersio-soak-1"), which
 * scripts/soak_report.py turns into trend slopes and a drift/leak
 * gate.
 *
 * Delta semantics:
 *  - First capture: the implicit previous snapshot is the zero state,
 *    so every delta equals the cumulative value.
 *  - Counters and histogram sample counts are monotonic; a cumulative
 *    value *below* the previous capture means the stat was reset (or
 *    wrapped), and the delta is the new cumulative value — the
 *    accumulation since the reset — never a negative number.
 *  - Callbacks may legitimately fall (occupancy, miss rates), so
 *    their deltas are plain differences.
 *  - Stats first seen mid-run (a lazily created child group) get
 *    first-capture semantics on their first appearance.
 *
 * Everything in a Snapshot except the `wall` block is a pure function
 * of the simulation state, so same-seed runs produce byte-identical
 * snapshot streams when the wall block is excluded — the determinism
 * contract tests/test_soak.cc enforces.
 */

#ifndef HYPERSIO_STATS_SNAPSHOT_HH
#define HYPERSIO_STATS_SNAPSHOT_HH

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "stats/stats.hh"
#include "util/json.hh"

namespace hypersio::stats
{

/** One flattened stat in a snapshot: cumulative value plus delta. */
struct SnapshotEntry
{
    std::string path; ///< dotted path from the tree root
    const char *kind = "";
    double value = 0.0; ///< cumulative value at capture time
    double delta = 0.0; ///< change since the previous capture

    // Histogram extras. Sample counts delta like counters; the
    // percentile estimates are cumulative (the binned distribution
    // cannot be un-merged per interval).
    bool isHistogram = false;
    uint64_t samples = 0;
    uint64_t deltaSamples = 0;
    double p50 = 0.0;
    double p90 = 0.0;
    double p99 = 0.0;
};

/** One interval capture of a stat tree. */
struct Snapshot
{
    uint64_t interval = 0; ///< 0-based capture index
    uint64_t simTicks = 0;
    uint64_t deltaSimTicks = 0;
    std::vector<SnapshotEntry> entries;

    // Wall-clock / process telemetry. Nondeterministic by nature;
    // serialized under the single "wall" member so tools (and the
    // byte-identity tests) can exclude exactly one sub-object.
    double wallSeconds = 0.0;
    double deltaWallSeconds = 0.0;
    bool rssKnown = false;
    uint64_t vmRssKib = 0;
    uint64_t vmHwmKib = 0;
};

/**
 * Walks a stat tree and produces interval-delta Snapshots. The tree
 * must outlive the Snapshotter; capture() is observation-only (it
 * never mutates a stat), which is what lets the soak harness call it
 * from inside a running simulation without perturbing results.
 */
class Snapshotter
{
  public:
    explicit Snapshotter(const StatGroup &root) : _root(&root) {}

    /**
     * Captures the tree's current state and diffs it against the
     * previous capture. @param sim_ticks the simulated clock at
     * capture time; @param wall_seconds wall clock since run start
     * (0 when the caller doesn't track one).
     */
    Snapshot capture(uint64_t sim_ticks, double wall_seconds = 0.0);

    /** Captures taken so far (== the next snapshot's interval). */
    uint64_t captures() const { return _captures; }

    /**
     * Fills snap's VmRSS/VmHWM fields from /proc/self/status.
     * rssKnown stays false when procfs or the fields are unavailable
     * — consumers must treat that as "no measurement", never 0.
     */
    static void sampleProcessRss(Snapshot &snap);

  private:
    struct PrevEntry
    {
        double value = 0.0;
        uint64_t samples = 0;
    };

    const StatGroup *_root;
    uint64_t _captures = 0;
    uint64_t _prevTicks = 0;
    double _prevWall = 0.0;
    std::unordered_map<std::string, PrevEntry> _prev;
};

/**
 * Writes one snapshot as a "hypersio-soak-1" JSON object: shard and
 * seed identify the emitting simulation, `stats` carries the
 * flattened entries, and the nondeterministic process telemetry goes
 * under `wall` (omitted entirely when include_wall is false — the
 * byte-identity form).
 */
void writeSnapshotJson(json::Writer &w, const Snapshot &snap,
                       unsigned shard, uint64_t seed,
                       bool include_wall = true);

/** writeSnapshotJson as one compact line (JSONL form). */
std::string snapshotToJsonLine(const Snapshot &snap, unsigned shard,
                               uint64_t seed,
                               bool include_wall = true);

} // namespace hypersio::stats

#endif // HYPERSIO_STATS_SNAPSHOT_HH
