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
 * Whoever issues dependent chains: the IOMMU's walker (tag: the
 * walk's MSHR key) and the History Reader (tag: the DID whose
 * history it reads).
 */
class MemoryClient
{
  public:
    /** The chain issued with `tag` completed. */
    virtual void chainDone(uint64_t tag) = 0;

  protected:
    ~MemoryClient() = default;
};

/**
 * Fixed-latency memory with optional bounded concurrency. Callers
 * issue `access(n_reads, client, tag)`; the model calls
 * `client.chainDone(tag)` when all n serialized reads of a dependent
 * chain complete (a page-table walk is a dependent chain, so its
 * reads serialize: n * latency).
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
     * Issues a dependent chain of `n_accesses` reads;
     * `client.chainDone(tag)` runs after n * accessLatency (plus any
     * queueing for a free slot). With `may_fuse` (the caller is in
     * tail position of an event callback) and unbounded slots, the
     * completion may run synchronously at the identical (tick, seq)
     * its event would have had
     * (EventQueue::tryFuseAdvance). Bounded chains always complete
     * as events: a chain's finish starts the next queued one.
     */
    void
    access(unsigned n_accesses, MemoryClient &client, uint64_t tag,
           bool may_fuse = false)
    {
        ++_chains;
        _reads += n_accesses;
        const Chain chain{
            static_cast<Tick>(n_accesses) * _config.accessLatency,
            &client, tag};
        if (_config.maxOutstanding == 0) {
            if (may_fuse && eventQueue().tryFuseAdvance(chain.service)) {
                client.chainDone(tag);
                return;
            }
            eventQueue().scheduleAfter(
                chain.service, [&client, tag] { client.chainDone(tag); });
            return;
        }
        if (_busy < _config.maxOutstanding) {
            ++_busy;
            startChain(chain);
        } else {
            ++_queued;
            _waiting.push_back(chain);
        }
    }

    /** Currently active chains (bounded mode only). */
    unsigned busy() const { return _busy; }

  private:
    struct Chain
    {
        Tick service;
        MemoryClient *client;
        uint64_t tag;
    };

    void
    startChain(const Chain &chain)
    {
        eventQueue().scheduleAfter(chain.service, [this, chain] {
            chain.client->chainDone(chain.tag);
            finishChain();
        });
    }

    void
    finishChain()
    {
        if (!_waiting.empty()) {
            const Chain next = _waiting.front();
            _waiting.pop_front();
            startChain(next);
        } else {
            --_busy;
        }
    }

    MemoryConfig _config;
    unsigned _busy = 0;
    std::deque<Chain> _waiting;

    stats::Counter &_reads;
    stats::Counter &_chains;
    stats::Counter &_queued;
};

} // namespace hypersio::mem

#endif // HYPERSIO_MEM_MEMORY_MODEL_HH
