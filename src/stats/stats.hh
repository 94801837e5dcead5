/**
 * @file
 * Lightweight statistics package for the performance model.
 *
 * Components own a StatGroup and register named statistics in it.
 * Supported kinds: Counter (monotonic count), Histogram (fixed
 * linear bins plus underflow/overflow), and Callback (a value read
 * from its owner at dump time). Groups nest, and a whole tree can be
 * dumped as an aligned text table.
 */

#ifndef HYPERSIO_STATS_STATS_HH
#define HYPERSIO_STATS_STATS_HH

#include <cstdint>
#include <functional>
#include <memory>
#include <ostream>
#include <string>
#include <vector>

#include "util/json.hh"

namespace hypersio::stats
{

class Counter;
class Histogram;
class Callback;

/** Double-dispatch interface over the concrete stat kinds. */
class StatVisitor
{
  public:
    virtual ~StatVisitor() = default;

    virtual void visit(const Counter &c) = 0;
    virtual void visit(const Histogram &h) = 0;
    virtual void visit(const Callback &cb) = 0;
};

/** Base class for all named statistics. */
class StatBase
{
  public:
    StatBase(std::string name, std::string desc)
        : _name(std::move(name)), _desc(std::move(desc))
    {}
    virtual ~StatBase() = default;

    const std::string &name() const { return _name; }
    const std::string &desc() const { return _desc; }

    /** Current value as a double, for dumping and formulas. */
    virtual double value() const = 0;

    /** Resets the statistic to its initial state. */
    virtual void reset() = 0;

    /** Dispatches to the visitor overload for the concrete kind. */
    virtual void accept(StatVisitor &v) const = 0;

    /** Writes one or more table rows describing this stat. */
    virtual void dump(std::ostream &os, const std::string &prefix) const;

  private:
    std::string _name;
    std::string _desc;
};

/** Monotonically increasing event count. */
class Counter : public StatBase
{
  public:
    using StatBase::StatBase;

    Counter &operator++() { ++_count; return *this; }
    Counter &operator+=(uint64_t n) { _count += n; return *this; }

    uint64_t count() const { return _count; }
    double value() const override
    {
        return static_cast<double>(_count);
    }
    void reset() override { _count = 0; }
    void accept(StatVisitor &v) const override { v.visit(*this); }

  private:
    uint64_t _count = 0;
};

/**
 * Lazily evaluated statistic: value() calls back into the owning
 * component at dump time. Lets components that keep their counters
 * in plain structs (e.g. cache::CacheStats) appear in the stat tree
 * without double bookkeeping — the exported value can never drift
 * from the component's own copy. The source must outlive the group.
 */
class Callback : public StatBase
{
  public:
    using Source = std::function<double()>;

    Callback(std::string name, std::string desc, Source source)
        : StatBase(std::move(name), std::move(desc)),
          _source(std::move(source))
    {}

    double value() const override { return _source(); }
    /** The owning component resets its own state. */
    void reset() override {}
    void accept(StatVisitor &v) const override { v.visit(*this); }

  private:
    Source _source;
};

/** Linear-binned histogram with underflow/overflow buckets. */
class Histogram : public StatBase
{
  public:
    /**
     * @param lo lower bound of the first bin
     * @param hi upper bound of the last bin (exclusive)
     * @param nbins number of equal-width bins between lo and hi
     */
    Histogram(std::string name, std::string desc, double lo, double hi,
              size_t nbins);

    /** Records one sample. */
    void sample(double v, uint64_t count = 1);

    uint64_t samples() const { return _samples; }
    double sum() const { return _sum; }
    double mean() const;
    double stddev() const;
    double min() const { return _min; }
    double max() const { return _max; }
    uint64_t binCount(size_t idx) const { return _bins.at(idx); }
    uint64_t underflow() const { return _underflow; }
    uint64_t overflow() const { return _overflow; }
    size_t numBins() const { return _bins.size(); }
    double lo() const { return _lo; }
    double hi() const { return _hi; }

    /**
     * Estimates the p-th percentile (p in [0, 100]) from the binned
     * distribution: the rank is located in the cumulative counts and
     * interpolated linearly inside its bin. Ranks that land in the
     * underflow (overflow) bucket report min() (max()), and the
     * result is clamped to the observed [min, max] range. 0 with no
     * samples.
     */
    double percentile(double p) const;

    /** Mean; dumps the full distribution. */
    double value() const override { return mean(); }
    void reset() override;
    void accept(StatVisitor &v) const override { v.visit(*this); }
    void dump(std::ostream &os, const std::string &prefix) const override;

  private:
    double _lo;
    double _hi;
    std::vector<uint64_t> _bins;
    uint64_t _underflow = 0;
    uint64_t _overflow = 0;
    uint64_t _samples = 0;
    double _sum = 0.0;
    double _sumSq = 0.0;
    double _min = 0.0;
    double _max = 0.0;
};

/**
 * A named collection of statistics and child groups. Components create
 * stats through the make* factories; the group owns them.
 */
class StatGroup
{
  public:
    explicit StatGroup(std::string name) : _name(std::move(name)) {}

    StatGroup(const StatGroup &) = delete;
    StatGroup &operator=(const StatGroup &) = delete;

    const std::string &name() const { return _name; }

    Counter &makeCounter(const std::string &name,
                         const std::string &desc);
    Histogram &makeHistogram(const std::string &name,
                             const std::string &desc, double lo,
                             double hi, size_t nbins);
    Callback &makeCallback(const std::string &name,
                           const std::string &desc,
                           Callback::Source source);

    /** Creates (or returns an existing) nested child group. */
    StatGroup &child(const std::string &name);

    /** Finds a stat by name in this group only; nullptr if missing. */
    const StatBase *find(const std::string &name) const;

    /** Applies `fn` to every stat in this group (not children). */
    template <typename Fn>
    void
    forEachStat(Fn &&fn) const
    {
        for (const auto &s : _stats)
            fn(*s);
    }

    /** Applies `fn` to every direct child group. */
    template <typename Fn>
    void
    forEachChild(Fn &&fn) const
    {
        for (const auto &c : _children)
            fn(*c);
    }

    /** Resets all stats in this group and all children. */
    void resetAll();

    /** Dumps this group and children as "prefix.name value # desc". */
    void dump(std::ostream &os, const std::string &prefix = "") const;

  private:
    std::string _name;
    std::vector<std::unique_ptr<StatBase>> _stats;
    std::vector<std::unique_ptr<StatGroup>> _children;
};

/**
 * StatVisitor that renders a stat tree as JSON through a
 * json::Writer. Each group becomes
 *   {"name": ..., "stats": [...], "children": [...]}
 * and each stat an object tagged with its "kind". Histograms carry
 * the full distribution (bounds, bins, moments) plus p50/p90/p99
 * percentile estimates.
 */
class JsonWriter : public StatVisitor
{
  public:
    explicit JsonWriter(json::Writer &out) : _out(out) {}

    /** Writes `group` and its subtree as one JSON object. */
    void write(const StatGroup &group);

    void visit(const Counter &c) override;
    void visit(const Histogram &h) override;
    void visit(const Callback &cb) override;

  private:
    void leaf(const StatBase &stat, const char *kind);

    json::Writer &_out;
};

/** Dumps a stat tree as JSON; compact single line when indent is 0. */
void writeJson(const StatGroup &group, std::ostream &os,
               unsigned indent = 2);

/** writeJson into a string (always compact). */
std::string toJsonString(const StatGroup &group);

} // namespace hypersio::stats

#endif // HYPERSIO_STATS_STATS_HH
