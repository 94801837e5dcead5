/**
 * @file
 * The HyperSIO Trace Constructor.
 *
 * Takes many per-tenant logs and splices them into a single
 * hyper-tenant trace. The paper's constructor (Section IV-B) supports
 * round-robin (RR) interleaving — modelling steady long-lived streams
 * behind a hardware arbiter — and random (RAND) interleaving —
 * modelling tenants issuing separate requests. The number after the
 * name is the burst size: consecutive packets taken from one tenant
 * per turn (RR4 models burstier traffic than RR1).
 *
 * Construction stops as soon as any tenant runs out of packets, which
 * avoids the "edge effect" of a tail where only a subset of tenants
 * is active.
 */

#ifndef HYPERSIO_TRACE_CONSTRUCTOR_HH
#define HYPERSIO_TRACE_CONSTRUCTOR_HH

#include <string>
#include <vector>

#include "trace/record.hh"
#include "util/rng.hh"

namespace hypersio::trace
{

/** Inter-tenant interleaving mode. */
enum class InterleaveKind
{
    RoundRobin,
    Random,
};

/** Interleaving specification: mode + burst size. */
struct Interleaving
{
    InterleaveKind kind = InterleaveKind::RoundRobin;
    /** Consecutive packets taken from a tenant per turn (>= 1). */
    unsigned burst = 1;
    /** Seed for the Random mode. */
    uint64_t seed = 1;

    /** Short name like "RR1", "RR4", "RAND1". */
    std::string name() const;
};

/**
 * The interleaving's turn-taking, one packet at a time: next() names
 * the tenant the next packet comes from. A turn takes `burst`
 * packets from one tenant; RR moves to the following tenant, RAND
 * draws the turn's tenant from an RNG seeded with `mode.seed`. A
 * caller stops at the first tenant it finds exhausted, so the cursor
 * never looks at the logs.
 */
class TurnCursor
{
  public:
    TurnCursor(const Interleaving &mode, uint32_t tenants)
        : _kind(mode.kind), _burst(mode.burst), _tenants(tenants),
          _turn(tenants - 1), _rng(mode.seed)
    {}

    uint32_t
    next()
    {
        if (_left == 0)
            startTurn();
        --_left;
        return _turn;
    }

  private:
    void
    startTurn()
    {
        _left = _burst;
        if (_kind == InterleaveKind::Random)
            _turn = static_cast<uint32_t>(_rng.below(_tenants));
        else
            _turn = _turn + 1 == _tenants ? 0 : _turn + 1;
    }

    InterleaveKind _kind;
    unsigned _burst;
    uint32_t _tenants;
    /** Tenant of the current turn; starts on the last, so RR's first
     *  turn is tenant 0. */
    uint32_t _turn;
    unsigned _left = 0; ///< packets left in the current turn
    Rng _rng;
};

/** Parses "RR1"/"rr4"/"RAND1" etc.; fatal() on malformed input. */
Interleaving parseInterleaving(const std::string &text);

/**
 * Builds a hyper-trace from per-tenant logs. The resulting trace
 * contains each tenant's packets in their original per-tenant order,
 * interleaved according to `mode`, and is truncated when the
 * shortest log is exhausted. SIDs are renumbered to the log's index
 * so the hyper-trace always has dense SIDs [0, logs.size()).
 */
HyperTrace constructTrace(const std::vector<TenantLog> &logs,
                          const Interleaving &mode);

} // namespace hypersio::trace

#endif // HYPERSIO_TRACE_CONSTRUCTOR_HH
