#include "core/runner.hh"

#include <cmath>
#include <cstdio>
#include <iomanip>
#include <iostream>
#include <limits>
#include <sstream>
#include <thread>

#include "core/worker_pool.hh"
#include "util/logging.hh"
#include "util/str.hh"

namespace hypersio::core
{

namespace
{

/** One "running <label> (...)" progress line, emitted as a unit. */
void
progressLine(std::ostream &os, const ExperimentPoint &point)
{
    os << "  running " << point.label << " ("
       << point.workloadName() << ", "
       << point.tenants << " tenants, " << point.interleave.name()
       << ")..." << std::endl;
}

} // namespace

ExperimentRunner::ExperimentRunner(double scale, uint64_t seed,
                                   unsigned jobs,
                                   bool capture_stats_json)
    : _scale(scale), _seed(seed), _jobs(jobs ? jobs : 1),
      _captureStatsJson(capture_stats_json)
{
    if (scale <= 0.0)
        fatal("experiment scale must be positive");
}

unsigned
defaultBenchJobs()
{
    const unsigned hw = std::thread::hardware_concurrency();
    return hw ? hw : 1;
}

std::string
ExperimentPoint::workloadName() const
{
    return variant ? variant->name : workload::benchmarkName(bench);
}

const trace::HyperTrace &
ExperimentRunner::cachedTrace(
    const std::string &workload, unsigned tenants,
    const trace::Interleaving &il,
    const std::function<std::vector<trace::TenantLog>()> &logs)
{
    TraceEntry *entry = nullptr;
    {
        std::lock_guard<std::mutex> lock(_traceMutex);
        auto &slot = _traces[TraceKey{workload, tenants, il.name()}];
        if (!slot)
            slot = std::make_unique<TraceEntry>();
        entry = slot.get();
    }
    // Per-key construction lock: the first requester builds the
    // trace, concurrent requesters for the same key block until it
    // is ready, and other keys proceed independently.
    std::call_once(entry->built, [&]() {
        entry->trace = trace::constructTrace(logs(), il);
        entry->trace.seed = _seed;
        _constructions.fetch_add(1, std::memory_order_relaxed);
    });
    return entry->trace;
}

const trace::HyperTrace &
ExperimentRunner::getTrace(workload::Benchmark bench,
                           unsigned tenants,
                           const trace::Interleaving &il)
{
    return cachedTrace(workload::benchmarkName(bench), tenants, il,
                       [&]() {
                           return workload::generateLogs(
                               bench, tenants, _seed, _scale);
                       });
}

const trace::HyperTrace &
ExperimentRunner::getTrace(const ExperimentPoint &point)
{
    if (!point.variant)
        return getTrace(point.bench, point.tenants, point.interleave);
    const WorkloadVariant &variant = *point.variant;
    return cachedTrace(
        variant.name, point.tenants, point.interleave, [&]() {
            workload::TenantPattern pattern = variant.pattern;
            workload::scaleInitPhase(pattern, variant.packets);
            const workload::TenantLogGenerator gen(pattern, _seed);
            std::vector<trace::TenantLog> logs;
            for (unsigned t = 0; t < point.tenants; ++t)
                logs.push_back(gen.generate(t, variant.packets));
            return logs;
        });
}

ExperimentRow
ExperimentRunner::run(const ExperimentPoint &point)
{
    const trace::HyperTrace &tr = getTrace(point);
    SystemConfig config = point.config;
    config.seed = _seed;
    System system(config, point.devices);
    ExperimentRow row;
    row.point = point;
    row.results = system.run(tr, point.bypassTranslation);
    if (_captureStatsJson) {
        std::ostringstream os;
        system.dumpStatsJson(os, 0);
        row.statsJson = os.str();
    }
    return row;
}

std::vector<ExperimentRow>
ExperimentRunner::runAll(const std::vector<ExperimentPoint> &points,
                         std::ostream *progress)
{
    // rows[i] is written by exactly one worker, so results land in
    // input order without any reordering pass.
    std::vector<ExperimentRow> rows(points.size());
    std::mutex progress_mutex;
    forEachIndex(points.size(), _jobs, [&](size_t i) {
        if (progress) {
            std::lock_guard<std::mutex> lock(progress_mutex);
            progressLine(*progress, points[i]);
        }
        rows[i] = run(points[i]);
    });
    return rows;
}

std::vector<unsigned>
paperTenantSweep(unsigned max_tenants)
{
    std::vector<unsigned> sweep;
    for (unsigned t = 4; t <= max_tenants; t *= 2)
        sweep.push_back(t);
    return sweep;
}

void
printBandwidthTable(
    std::ostream &os, const std::string &title,
    const std::vector<unsigned> &tenants,
    const std::vector<std::pair<std::string, std::vector<double>>>
        &series)
{
    os << "\n" << title << "\n";
    os << std::left << std::setw(10) << "tenants";
    for (const auto &[label, values] : series)
        os << std::right << std::setw(14) << label;
    os << "\n";
    for (size_t i = 0; i < tenants.size(); ++i) {
        os << std::left << std::setw(10) << tenants[i];
        for (const auto &[label, values] : series) {
            if (i < values.size())
                os << std::right << std::setw(14) << std::fixed
                   << std::setprecision(1) << values[i];
            else
                os << std::right << std::setw(14) << "-";
        }
        os << "\n";
    }
    os.unsetf(std::ios::fixed);
}

namespace
{

constexpr const char *UsageText =
    "options:\n"
    "  --quick         small traces (scale 0.05), up to 256 "
    "tenants\n"
    "  --full          paper-sized traces (scale 1), up to 1024 "
    "tenants\n"
    "  --scale <f>     trace scale factor (1 = paper-sized; "
    "default 0.05)\n"
    "  --tenants <n>   max tenant count in sweeps (default 1024)\n"
    "  --seed <n>      workload seed (default 42)\n"
    "  --jobs, -j <n>  worker threads for sweeps "
    "(default: all cores; 1 = serial)\n"
    "  --json <file>   write a machine-readable JSON "
    "report (config,\n"
    "                  per-point stats, wall clock; see "
    "EXPERIMENTS.md)\n"
    "  --verbose       per-point progress output";

} // namespace

std::string
ArgReader::value()
{
    if (_i + 1 >= _argc)
        fatal("%s needs a value", _flag.c_str());
    return _argv[++_i];
}

uint64_t
ArgReader::u64()
{
    uint64_t value = 0;
    if (!parseU64(this->value(), value))
        fatal("%s needs an integer", _flag.c_str());
    return value;
}

uint64_t
ArgReader::positive(uint64_t max)
{
    uint64_t value = 0;
    if (!parseU64(this->value(), value) || value == 0)
        fatal("%s needs a positive integer", _flag.c_str());
    if (value > max) {
        fatal("%s value %llu does not fit: it needs a positive "
              "integer up to %llu",
              _flag.c_str(), (unsigned long long)value,
              (unsigned long long)max);
    }
    return value;
}

unsigned
ArgReader::count()
{
    return static_cast<unsigned>(
        positive(std::numeric_limits<unsigned>::max()));
}

double
ArgReader::real()
{
    double value = 0.0;
    if (!parseDouble(this->value(), value) || !std::isfinite(value) ||
        value <= 0.0)
        fatal("%s needs a finite positive number", _flag.c_str());
    return value;
}

BenchOptions
BenchOptions::parse(int argc, char **argv)
{
    return parse(argc, argv, BenchOptions{});
}

BenchOptions
BenchOptions::parse(int argc, char **argv, BenchOptions defaults)
{
    BenchOptions opts = std::move(defaults);
    for (ArgReader args(argc, argv); args.next();) {
        const std::string &arg = args.flag();
        if (arg == "--quick") {
            opts.scale = 0.05;
            opts.maxTenants = 256;
        } else if (arg == "--full") {
            opts.scale = 1.0;
            opts.maxTenants = 1024;
        } else if (arg == "--scale") {
            opts.scale = args.real();
        } else if (arg == "--tenants") {
            opts.maxTenants = args.count();
        } else if (arg == "--seed") {
            opts.seed = args.u64();
        } else if (arg == "--jobs" || arg == "-j") {
            opts.jobs = args.count();
        } else if (arg == "--json" || arg == "--stats-json") {
            opts.jsonPath = args.value();
            if (opts.jsonPath.empty())
                fatal("%s needs a file path", arg.c_str());
        } else if (arg == "--verbose" || arg == "-v") {
            opts.verbose = true;
        } else if (arg == "--help" || arg == "-h") {
            std::puts(UsageText);
            std::exit(0);
        } else {
            // Usage goes to stderr so a typo'd flag never corrupts
            // piped experiment output.
            std::fputs(UsageText, stderr);
            std::fputc('\n', stderr);
            fatal("unknown option '%s' (try --help)", arg.c_str());
        }
    }
    return opts;
}

} // namespace hypersio::core
