#include "stats/stats.hh"

#include <algorithm>
#include <cmath>
#include <iomanip>
#include <sstream>

#include "util/logging.hh"

namespace hypersio::stats
{

void
StatBase::dump(std::ostream &os, const std::string &prefix) const
{
    os << std::left << std::setw(48) << (prefix + _name) << " "
       << std::right << std::setw(16) << value() << "  # " << _desc
       << "\n";
}

Histogram::Histogram(std::string name, std::string desc, double lo,
                     double hi, size_t nbins)
    : StatBase(std::move(name), std::move(desc)), _lo(lo), _hi(hi),
      _bins(nbins, 0)
{
    HYPERSIO_ASSERT(hi > lo && nbins > 0, "bad histogram bounds");
}

void
Histogram::sample(double v, uint64_t count)
{
    if (_samples == 0) {
        _min = v;
        _max = v;
    } else {
        if (v < _min)
            _min = v;
        if (v > _max)
            _max = v;
    }
    _samples += count;
    _sum += v * static_cast<double>(count);
    _sumSq += v * v * static_cast<double>(count);

    if (v < _lo) {
        _underflow += count;
    } else if (v >= _hi) {
        _overflow += count;
    } else {
        double width = (_hi - _lo) / static_cast<double>(_bins.size());
        auto idx = static_cast<size_t>((v - _lo) / width);
        if (idx >= _bins.size())
            idx = _bins.size() - 1;
        _bins[idx] += count;
    }
}

double
Histogram::mean() const
{
    return _samples == 0 ? 0.0
                         : _sum / static_cast<double>(_samples);
}

double
Histogram::stddev() const
{
    if (_samples < 2)
        return 0.0;
    double n = static_cast<double>(_samples);
    double var = (_sumSq - _sum * _sum / n) / (n - 1);
    return var > 0.0 ? std::sqrt(var) : 0.0;
}

double
Histogram::percentile(double p) const
{
    if (_samples == 0)
        return 0.0;
    p = std::clamp(p, 0.0, 100.0);
    // Rank of the requested sample, 1-based over all buckets in
    // value order: underflow, the linear bins, overflow.
    const double rank =
        p / 100.0 * static_cast<double>(_samples - 1) + 1.0;
    double cum = static_cast<double>(_underflow);
    if (rank <= cum)
        return _min;
    const double width =
        (_hi - _lo) / static_cast<double>(_bins.size());
    for (size_t i = 0; i < _bins.size(); ++i) {
        if (_bins[i] == 0)
            continue;
        const double in_bin = static_cast<double>(_bins[i]);
        if (rank <= cum + in_bin) {
            const double frac = (rank - cum) / in_bin;
            const double v = _lo + width * (static_cast<double>(i) +
                                            frac);
            return std::clamp(v, _min, _max);
        }
        cum += in_bin;
    }
    return _max; // rank lands in the overflow bucket
}

void
Histogram::reset()
{
    std::fill(_bins.begin(), _bins.end(), 0);
    _underflow = 0;
    _overflow = 0;
    _samples = 0;
    _sum = 0.0;
    _sumSq = 0.0;
    _min = 0.0;
    _max = 0.0;
}

void
Histogram::dump(std::ostream &os, const std::string &prefix) const
{
    os << std::left << std::setw(48) << (prefix + name() + ".mean")
       << " " << std::right << std::setw(16) << mean() << "  # "
       << desc() << " (mean)\n";
    os << std::left << std::setw(48) << (prefix + name() + ".samples")
       << " " << std::right << std::setw(16) << _samples << "  # "
       << desc() << " (samples)\n";
    if (_samples == 0)
        return;
    os << std::left << std::setw(48) << (prefix + name() + ".min") << " "
       << std::right << std::setw(16) << _min << "\n";
    os << std::left << std::setw(48) << (prefix + name() + ".max") << " "
       << std::right << std::setw(16) << _max << "\n";
    double width = (_hi - _lo) / static_cast<double>(_bins.size());
    for (size_t i = 0; i < _bins.size(); ++i) {
        if (_bins[i] == 0)
            continue;
        std::ostringstream label;
        label << prefix << name() << ".bin[" << (_lo + width * i) << ","
              << (_lo + width * (i + 1)) << ")";
        os << std::left << std::setw(48) << label.str() << " "
           << std::right << std::setw(16) << _bins[i] << "\n";
    }
    if (_underflow)
        os << std::left << std::setw(48)
           << (prefix + name() + ".underflow") << " " << std::right
           << std::setw(16) << _underflow << "\n";
    if (_overflow)
        os << std::left << std::setw(48)
           << (prefix + name() + ".overflow") << " " << std::right
           << std::setw(16) << _overflow << "\n";
}

Counter &
StatGroup::makeCounter(const std::string &name, const std::string &desc)
{
    auto stat = std::make_unique<Counter>(name, desc);
    Counter &ref = *stat;
    _stats.push_back(std::move(stat));
    return ref;
}

Histogram &
StatGroup::makeHistogram(const std::string &name,
                         const std::string &desc, double lo, double hi,
                         size_t nbins)
{
    auto stat = std::make_unique<Histogram>(name, desc, lo, hi, nbins);
    Histogram &ref = *stat;
    _stats.push_back(std::move(stat));
    return ref;
}

Callback &
StatGroup::makeCallback(const std::string &name,
                        const std::string &desc,
                        Callback::Source source)
{
    HYPERSIO_ASSERT(source != nullptr,
                    "callback stat '%s' needs a source",
                    name.c_str());
    auto stat =
        std::make_unique<Callback>(name, desc, std::move(source));
    Callback &ref = *stat;
    _stats.push_back(std::move(stat));
    return ref;
}

StatGroup &
StatGroup::child(const std::string &name)
{
    for (auto &c : _children) {
        if (c->name() == name)
            return *c;
    }
    _children.push_back(std::make_unique<StatGroup>(name));
    return *_children.back();
}

const StatBase *
StatGroup::find(const std::string &name) const
{
    for (const auto &s : _stats) {
        if (s->name() == name)
            return s.get();
    }
    return nullptr;
}

void
StatGroup::resetAll()
{
    for (auto &s : _stats)
        s->reset();
    for (auto &c : _children)
        c->resetAll();
}

void
StatGroup::dump(std::ostream &os, const std::string &prefix) const
{
    std::string full = prefix.empty() ? _name : prefix + "." + _name;
    for (const auto &s : _stats)
        s->dump(os, full + ".");
    for (const auto &c : _children)
        c->dump(os, full);
}

void
JsonWriter::leaf(const StatBase &stat, const char *kind)
{
    _out.beginObject();
    _out.key("name");
    _out.value(stat.name());
    _out.key("kind");
    _out.value(kind);
    _out.key("value");
    _out.value(stat.value());
    if (!stat.desc().empty()) {
        _out.key("desc");
        _out.value(stat.desc());
    }
}

void
JsonWriter::visit(const Counter &c)
{
    leaf(c, "counter");
    _out.key("count");
    _out.value(c.count());
    _out.endObject();
}

void
JsonWriter::visit(const Callback &cb)
{
    leaf(cb, "callback");
    _out.endObject();
}

void
JsonWriter::visit(const Histogram &h)
{
    leaf(h, "histogram");
    _out.key("samples");
    _out.value(h.samples());
    _out.key("mean");
    _out.value(h.mean());
    _out.key("stddev");
    _out.value(h.stddev());
    _out.key("min");
    _out.value(h.min());
    _out.key("max");
    _out.value(h.max());
    _out.key("lo");
    _out.value(h.lo());
    _out.key("hi");
    _out.value(h.hi());
    _out.key("underflow");
    _out.value(h.underflow());
    _out.key("overflow");
    _out.value(h.overflow());
    _out.key("bins");
    _out.beginArray();
    for (size_t i = 0; i < h.numBins(); ++i)
        _out.value(h.binCount(i));
    _out.endArray();
    _out.key("percentiles");
    _out.beginObject();
    for (const auto &[label, p] :
         {std::pair<const char *, double>{"p50", 50.0},
          {"p90", 90.0},
          {"p99", 99.0}}) {
        _out.key(label);
        _out.value(h.percentile(p));
    }
    _out.endObject();
    _out.endObject();
}

void
JsonWriter::write(const StatGroup &group)
{
    _out.beginObject();
    _out.key("name");
    _out.value(group.name());
    _out.key("stats");
    _out.beginArray();
    group.forEachStat(
        [this](const StatBase &stat) { stat.accept(*this); });
    _out.endArray();
    _out.key("children");
    _out.beginArray();
    group.forEachChild(
        [this](const StatGroup &child) { write(child); });
    _out.endArray();
    _out.endObject();
}

void
writeJson(const StatGroup &group, std::ostream &os, unsigned indent)
{
    json::Writer out(os, indent);
    JsonWriter writer(out);
    writer.write(group);
}

std::string
toJsonString(const StatGroup &group)
{
    std::ostringstream os;
    writeJson(group, os, 0);
    return os.str();
}

} // namespace hypersio::stats
