/**
 * @file
 * Machine-readable bench output: every bench binary accepts
 * `--json <file>` and, when given, writes one JSON document with
 *
 *   {
 *     "schema": "hypersio-bench-1",
 *     "bench": "<binary id>",
 *     "config": {"scale", "max_tenants", "seed", "jobs"},
 *     "points": [{"label", "benchmark", "tenants", "interleave",
 *                 "results": {...RunResults fields...},
 *                 "stats": {...full stat tree...}}, ...],
 *     "scalars": {"<name>": <value>, ...},
 *     "wall_seconds": <float>
 *   }
 *
 * Sweep benches get their "points" filled automatically by
 * PointBatch; table-style benches record headline numbers through
 * addScalar(). scripts/bench_compare.py diffs two such files and
 * gates on throughput/hit-rate drift.
 */

#ifndef HYPERSIO_BENCH_JSON_REPORT_HH
#define HYPERSIO_BENCH_JSON_REPORT_HH

#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "core/bench_options.hh"
#include "core/run_results.hh"
#include "util/json.hh"
#include "util/logging.hh"
#include "workload/benchmarks.hh"

namespace hypersio::bench
{

/** Collects one bench run's results and writes the JSON report. */
class JsonReport
{
  public:
    JsonReport(std::string bench_id, const core::BenchOptions &opts)
        : _benchId(std::move(bench_id)), _opts(opts)
    {}

    /** False when the bench ran without `--json`. */
    bool enabled() const { return !_opts.jsonPath.empty(); }

    /**
     * Records one sweep point (label + workload + results). A key
     * (label, benchmark, tenants, interleave) recorded twice is fatal:
     * scripts/bench_compare.py matches points by that key, so a
     * repeated one would hide a point from every comparison.
     */
    void
    addPoint(const std::string &label, const std::string &benchmark,
             unsigned tenants, const std::string &interleave,
             const core::RunResults &results,
             std::string stats_json = "")
    {
        if (!enabled())
            return;
        if (!_keys.emplace(label, benchmark, tenants, interleave)
                 .second) {
            fatal("%s: point (%s, %s, %u tenants, %s) is recorded "
                  "twice; give each series its own config name",
                  _benchId.c_str(), label.c_str(), benchmark.c_str(),
                  tenants, interleave.c_str());
        }
        _points.push_back({label, benchmark, tenants, interleave,
                           results, std::move(stats_json)});
    }

    /**
     * Records an ExperimentRow as produced by the runner. Templated
     * (rather than taking core::ExperimentPoint/Row directly) so
     * benches that never touch the experiment harness don't pull
     * core/runner.hh — and the whole simulator behind it — into
     * their translation unit just for the report type.
     */
    template <typename ExperimentPointT, typename ExperimentRowT>
    void
    addRow(const ExperimentPointT &point, const ExperimentRowT &row)
    {
        addPoint(point.label, workload::benchmarkName(point.bench),
                 point.tenants, point.interleave.name(), row.results,
                 row.statsJson);
    }

    /** Records one named headline value (table-style benches). */
    void
    addScalar(const std::string &name, double value)
    {
        if (enabled())
            _scalars.emplace_back(name, value);
    }

    /** Writes the report file; no-op without `--json`. */
    void
    write(double wall_seconds) const
    {
        if (!enabled())
            return;
        std::ofstream out(_opts.jsonPath, std::ios::trunc);
        if (!out)
            fatal("cannot open '%s' for writing",
                  _opts.jsonPath.c_str());
        json::Writer w(out);
        w.beginObject();
        w.key("schema");
        w.value("hypersio-bench-1");
        w.key("bench");
        w.value(_benchId);
        w.key("config");
        w.beginObject();
        w.key("scale");
        w.value(_opts.scale);
        w.key("max_tenants");
        w.value(_opts.maxTenants);
        w.key("seed");
        w.value(_opts.seed);
        w.key("jobs");
        w.value(_opts.jobs);
        w.endObject();
        w.key("points");
        w.beginArray();
        for (const auto &p : _points) {
            w.beginObject();
            w.key("label");
            w.value(p.label);
            w.key("benchmark");
            w.value(p.benchmark);
            w.key("tenants");
            w.value(p.tenants);
            w.key("interleave");
            w.value(p.interleave);
            w.key("results");
            core::writeRunResultsJson(w, p.results);
            if (!p.statsJson.empty()) {
                w.key("stats");
                w.raw(p.statsJson);
            }
            w.endObject();
        }
        w.endArray();
        w.key("scalars");
        w.beginObject();
        for (const auto &[name, value] : _scalars) {
            w.key(name);
            w.value(value);
        }
        w.endObject();
        w.key("wall_seconds");
        w.value(wall_seconds);
        w.endObject();
        out << '\n';
        if (!out)
            fatal("write error on '%s'", _opts.jsonPath.c_str());
    }

  private:
    struct Point
    {
        std::string label;
        std::string benchmark;
        unsigned tenants;
        std::string interleave;
        core::RunResults results;
        std::string statsJson;
    };

    std::string _benchId;
    core::BenchOptions _opts;
    std::vector<Point> _points;
    std::set<std::tuple<std::string, std::string, unsigned, std::string>>
        _keys;
    std::vector<std::pair<std::string, double>> _scalars;
};

/**
 * Compact stat-tree capture for benches that run a System inline.
 * Templated for the same reason addRow is: callers already include
 * core/system.hh; this header doesn't need to.
 */
template <typename SystemT>
std::string
captureStatsJson(const SystemT &system)
{
    std::ostringstream os;
    system.dumpStatsJson(os, 0);
    return os.str();
}

} // namespace hypersio::bench

#endif // HYPERSIO_BENCH_JSON_REPORT_HH
