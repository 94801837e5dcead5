#include "stats/snapshot.hh"

#include <fstream>
#include <sstream>
#include <string_view>
#include <utility>

#include "util/str.hh"

namespace hypersio::stats
{

namespace
{

/**
 * Flattens one group's stats into SnapshotEntry records. Kind tags
 * match JsonWriter's so the two serializations agree on vocabulary.
 */
class FlattenVisitor : public StatVisitor
{
  public:
    FlattenVisitor(std::vector<SnapshotEntry> &out, std::string &path)
        : _out(out), _path(path)
    {}

    void
    visit(const Counter &c) override
    {
        leaf(c, "counter");
    }

    void
    visit(const Histogram &h) override
    {
        SnapshotEntry &e = leaf(h, "histogram");
        e.isHistogram = true;
        e.samples = h.samples();
        e.p50 = h.percentile(50.0);
        e.p90 = h.percentile(90.0);
        e.p99 = h.percentile(99.0);
    }

    void
    visit(const Callback &cb) override
    {
        leaf(cb, "callback");
    }

  private:
    SnapshotEntry &
    leaf(const StatBase &stat, const char *kind)
    {
        SnapshotEntry entry;
        entry.path = _path + "." + stat.name();
        entry.kind = kind;
        entry.value = stat.value();
        _out.push_back(std::move(entry));
        return _out.back();
    }

    std::vector<SnapshotEntry> &_out;
    std::string &_path;
};

void
flattenGroup(const StatGroup &group, std::string &path,
             std::vector<SnapshotEntry> &out)
{
    const size_t prefix_len = path.size();
    if (!path.empty())
        path += '.';
    path += group.name();

    FlattenVisitor visitor(out, path);
    group.forEachStat(
        [&](const StatBase &stat) { stat.accept(visitor); });
    group.forEachChild([&](const StatGroup &child) {
        flattenGroup(child, path, out);
    });

    path.resize(prefix_len);
}

/** Monotonic delta with the counter wrap/reset rule. */
uint64_t
monotonicDelta(uint64_t current, uint64_t previous)
{
    return current >= previous ? current - previous : current;
}

} // namespace

Snapshot
Snapshotter::capture(uint64_t sim_ticks, double wall_seconds)
{
    Snapshot snap;
    snap.interval = _captures;
    snap.simTicks = sim_ticks;
    snap.deltaSimTicks = monotonicDelta(sim_ticks, _prevTicks);
    snap.wallSeconds = wall_seconds;
    snap.deltaWallSeconds = wall_seconds >= _prevWall
                                ? wall_seconds - _prevWall
                                : wall_seconds;

    std::string path;
    flattenGroup(*_root, path, snap.entries);

    for (SnapshotEntry &entry : snap.entries) {
        // Unseen paths (first capture, or a lazily created child
        // group) diff against the zero state.
        const PrevEntry prev = [&] {
            auto it = _prev.find(entry.path);
            return it == _prev.end() ? PrevEntry{} : it->second;
        }();

        // Only counters are monotonic in `value`; a histogram's
        // value is its mean, which may fall (its *sample count* is
        // the monotonic quantity, handled below).
        const bool monotonic =
            std::string_view(entry.kind) == "counter";
        if (monotonic && entry.value < prev.value) {
            // Reset/wrap: credit the accumulation since the reset.
            entry.delta = entry.value;
        } else {
            entry.delta = entry.value - prev.value;
        }
        if (entry.isHistogram) {
            entry.deltaSamples =
                monotonicDelta(entry.samples, prev.samples);
        }
        _prev[entry.path] = {entry.value, entry.samples};
    }

    _prevTicks = sim_ticks;
    _prevWall = wall_seconds;
    ++_captures;
    return snap;
}

void
Snapshotter::sampleProcessRss(Snapshot &snap)
{
    std::ifstream status("/proc/self/status");
    if (!status)
        return;
    std::ostringstream text;
    text << status.rdbuf();
    const std::string blob = text.str();
    uint64_t rss = 0;
    uint64_t hwm = 0;
    if (!parseVmRssKib(blob, rss) || !parseVmHwmKib(blob, hwm))
        return;
    snap.rssKnown = true;
    snap.vmRssKib = rss;
    snap.vmHwmKib = hwm;
}

void
writeSnapshotJson(json::Writer &w, const Snapshot &snap,
                  unsigned shard, uint64_t seed, bool include_wall)
{
    w.beginObject();
    w.key("schema");
    w.value("hypersio-soak-1");
    w.key("shard");
    w.value(shard);
    w.key("seed");
    w.value(seed);
    w.key("interval");
    w.value(snap.interval);
    w.key("sim_ticks");
    w.value(snap.simTicks);
    w.key("delta_sim_ticks");
    w.value(snap.deltaSimTicks);
    w.key("stats");
    w.beginArray();
    for (const SnapshotEntry &entry : snap.entries) {
        w.beginObject();
        w.key("path");
        w.value(entry.path);
        w.key("kind");
        w.value(entry.kind);
        w.key("value");
        w.value(entry.value);
        w.key("delta");
        w.value(entry.delta);
        if (entry.isHistogram) {
            w.key("samples");
            w.value(entry.samples);
            w.key("delta_samples");
            w.value(entry.deltaSamples);
            w.key("p50");
            w.value(entry.p50);
            w.key("p90");
            w.value(entry.p90);
            w.key("p99");
            w.value(entry.p99);
        }
        w.endObject();
    }
    w.endArray();
    if (include_wall) {
        w.key("wall");
        w.beginObject();
        w.key("seconds");
        w.value(snap.wallSeconds);
        w.key("delta_seconds");
        w.value(snap.deltaWallSeconds);
        if (snap.rssKnown) {
            w.key("vm_rss_kib");
            w.value(snap.vmRssKib);
            w.key("vm_hwm_kib");
            w.value(snap.vmHwmKib);
        }
        w.endObject();
    }
    w.endObject();
}

std::string
snapshotToJsonLine(const Snapshot &snap, unsigned shard,
                   uint64_t seed, bool include_wall)
{
    std::ostringstream os;
    json::Writer w(os, 0);
    writeSnapshotJson(w, snap, shard, seed, include_wall);
    return os.str();
}

} // namespace hypersio::stats
