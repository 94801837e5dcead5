/**
 * @file
 * Main-memory timing model.
 *
 * Page-table reads and history-buffer reads go through this model. It
 * charges a fixed DRAM access latency (Table II: 50 ns) and can bound
 * the number of outstanding accesses to model finite memory-subsystem
 * parallelism (banks/channels). With unlimited slots it degenerates
 * to a pure latency model, which is what the paper's simulator uses.
 */

#ifndef HYPERSIO_MEM_MEMORY_MODEL_HH
#define HYPERSIO_MEM_MEMORY_MODEL_HH

#include <deque>
#include <functional>

#include "sim/sim_object.hh"
#include "util/units.hh"

namespace hypersio::mem
{

/** Configuration for MemoryModel. */
struct MemoryConfig
{
    /** Latency of one access. */
    Tick accessLatency = 50 * TicksPerNs;
    /** Max concurrent accesses; 0 means unlimited. */
    unsigned maxOutstanding = 0;
};

/**
 * Fixed-latency memory with optional bounded concurrency. Callers
 * issue `access(n_reads, done)`; the model invokes `done` when all n
 * serialized reads of a dependent chain complete (a page-table walk
 * is a dependent chain, so its reads serialize: n * latency).
 */
class MemoryModel : public sim::SimObject
{
  public:
    MemoryModel(const MemoryConfig &config, sim::EventQueue &queue,
                stats::StatGroup &parent)
        : SimObject("memory", queue, parent), _config(config),
          _reads(statGroup().makeCounter("reads",
                                         "memory words read")),
          _chains(statGroup().makeCounter(
              "chains", "dependent access chains issued")),
          _queued(statGroup().makeCounter(
              "queued", "chains that waited for a free slot"))
    {}

    const MemoryConfig &config() const { return _config; }

    /**
     * Issues a dependent chain of `n_accesses` reads; `done` runs
     * after n * accessLatency (plus any queueing for a free slot).
     * With `may_fuse` (the caller is in tail position of an event
     * callback) and unbounded slots, the completion may run
     * synchronously at the identical (tick, priority, seq) its event
     * would have had (EventQueue::tryFuseAdvance). Bounded chains
     * always complete as events: a chain's finish starts the next
     * queued one.
     */
    void
    access(unsigned n_accesses, std::function<void()> done,
           bool may_fuse = false)
    {
        ++_chains;
        _reads += n_accesses;
        const Tick service =
            static_cast<Tick>(n_accesses) * _config.accessLatency;
        if (_config.maxOutstanding == 0) {
            if (may_fuse && eventQueue().tryFuseAdvance(service)) {
                done();
                return;
            }
            eventQueue().scheduleAfter(service, std::move(done));
            return;
        }
        if (_busy < _config.maxOutstanding) {
            ++_busy;
            startChain(service, std::move(done));
        } else {
            ++_queued;
            _waiting.push_back({service, std::move(done)});
        }
    }

    /** Currently active chains (bounded mode only). */
    unsigned busy() const { return _busy; }

  private:
    struct Pending
    {
        Tick service;
        std::function<void()> done;
    };

    void
    startChain(Tick service, std::function<void()> done)
    {
        eventQueue().scheduleAfter(
            service, [this, done = std::move(done)]() {
                done();
                finishChain();
            });
    }

    void
    finishChain()
    {
        if (!_waiting.empty()) {
            Pending next = std::move(_waiting.front());
            _waiting.pop_front();
            startChain(next.service, std::move(next.done));
        } else {
            --_busy;
        }
    }

    MemoryConfig _config;
    unsigned _busy = 0;
    std::deque<Pending> _waiting;

    stats::Counter &_reads;
    stats::Counter &_chains;
    stats::Counter &_queued;
};

} // namespace hypersio::mem

#endif // HYPERSIO_MEM_MEMORY_MODEL_HH
