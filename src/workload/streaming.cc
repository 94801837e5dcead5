#include "workload/streaming.hh"

#include <algorithm>

#include "iommu/context_cache.hh"
#include "util/logging.hh"

namespace hypersio::workload
{

// --- SpliceStream ---------------------------------------------------

SpliceStream::SpliceStream(Benchmark bench, unsigned num_tenants,
                           uint64_t seed,
                           const trace::Interleaving &mode,
                           double scale)
    : _tenants(tenantStreams(bench, num_tenants, seed, scale)),
      _numTenants(num_tenants), _turns(mode, num_tenants)
{
    HYPERSIO_ASSERT(mode.burst >= 1, "burst must be positive");
}

void
SpliceStream::produce()
{
    if (_done)
        return;
    // One step of constructTrace's turn-taking: it stops at the
    // first tenant found exhausted, and so does the splice.
    TenantStream &tenant = _tenants[_turns.next()];
    if (tenant.exhausted()) {
        _done = true;
        return;
    }
    _ops.clear();
    tenant.next(_pkt, _ops);
    _hasCur = true;
}

const trace::PacketRecord *
SpliceStream::peek()
{
    if (!_hasCur)
        produce();
    return _hasCur ? &_pkt : nullptr;
}

bool
SpliceStream::exhausted()
{
    // A splice never stalls: no packet now means no packet ever.
    return peek() == nullptr;
}

// --- ChurnStream ----------------------------------------------------

ChurnStream::ChurnStream(const ChurnConfig &config) : _cfg(config)
{
    HYPERSIO_ASSERT(_cfg.population >= 1, "need at least one tenant");
    HYPERSIO_ASSERT(_cfg.slots >= 1, "need at least one slot");
    HYPERSIO_ASSERT(_cfg.burst >= 1, "burst must be positive");
    HYPERSIO_ASSERT(_cfg.minBudget >= 1 &&
                        _cfg.minBudget <= _cfg.maxBudget,
                    "bad budget range");
    HYPERSIO_ASSERT(_cfg.tailMin <= _cfg.tailMax, "bad tail range");
    // Slots are SIDs; they must fit the context cache's SID space.
    HYPERSIO_ASSERT(_cfg.slots <= iommu::ContextCache::SidSpace,
                    "more slots than SIDs");
    if (_cfg.slots > _cfg.population)
        _cfg.slots = _cfg.population;

    _pattern = benchmarkProfile(_cfg.bench).pattern;
    // Cap the one-off init phase relative to the typical per-tenant
    // budget, as generateLogs does for scaled-down logs. The init
    // phase is each tenant's attach storm.
    scaleInitPhase(_pattern,
                   std::max<uint64_t>(
                       (_cfg.minBudget + _cfg.maxBudget) / 2, 16));

    _slots.resize(_cfg.slots);
    for (unsigned s = 0; s < _cfg.slots; ++s)
        bind(s, _nextVirtual++);
}

uint64_t
ChurnStream::budgetFor(uint64_t v) const
{
    Rng rng(hashCombine(_cfg.seed, hashCombine(0x5ca1ab1eULL, v)));
    uint64_t budget = rng.range(_cfg.minBudget, _cfg.maxBudget);
    if (_cfg.tailProb > 0.0 && rng.chance(_cfg.tailProb))
        budget = rng.range(_cfg.tailMin, _cfg.tailMax);
    return std::max<uint64_t>(budget, 1);
}

void
ChurnStream::bind(unsigned slot, uint64_t virtual_id)
{
    Slot &sl = _slots[slot];
    // The per-virtual-tenant seed makes a recycled SID slot carry a
    // genuinely different tenant (different budgets and RNG stream).
    sl.stream = TenantStream(
        _pattern,
        hashCombine(_cfg.seed, hashCombine(0x7e47a9ULL, virtual_id)),
        static_cast<trace::SourceId>(slot), budgetFor(virtual_id),
        _cfg.includeInit);
    sl.state = SlotState::Live;
    sl.virtualId = virtual_id;
    ++_attaches;
}

void
ChurnStream::advanceCursor()
{
    _burstPos = 0;
    _cursor = (_cursor + 1) % static_cast<unsigned>(_slots.size());
}

void
ChurnStream::produce()
{
    // Round-robin over live slots; a full fruitless scan means every
    // slot is parked (stalled) or dead (exhausted).
    const auto n = static_cast<unsigned>(_slots.size());
    for (unsigned tries = 0; tries < n; ++tries) {
        Slot &sl = _slots[_cursor];
        if (sl.state != SlotState::Live) {
            advanceCursor();
            continue;
        }
        _ops.clear();
        sl.stream.next(_pkt, _ops);
        _hasCur = true;
        ++_produced;
        const bool tenant_done = sl.stream.exhausted();
        if (tenant_done) {
            // Park the slot: no more packets until the System retires
            // the SID's translation state and confirms sidRetired().
            // The detach notice itself waits until the consumer takes
            // this farewell packet (advance()) — announcing earlier
            // would let the System retire the tenant while its last
            // packet sits buffered through a full-PTB drop/retry, and
            // the retry would then translate against a torn-down
            // domain.
            sl.state = SlotState::Parked;
            _farewellSlot = static_cast<int>(_cursor);
        }
        ++_burstPos;
        if (tenant_done || _burstPos >= _cfg.burst)
            advanceCursor();
        return;
    }
}

void
ChurnStream::advance()
{
    _hasCur = false;
    if (_farewellSlot >= 0) {
        _detached.push_back(
            static_cast<trace::SourceId>(_farewellSlot));
        ++_detaches;
        _farewellSlot = -1;
    }
}

const trace::PacketRecord *
ChurnStream::peek()
{
    if (!_hasCur)
        produce();
    return _hasCur ? &_pkt : nullptr;
}

bool
ChurnStream::exhausted()
{
    if (peek() != nullptr)
        return false;
    return _dead == _slots.size();
}

void
ChurnStream::drainDetached(std::vector<trace::SourceId> &out)
{
    out.insert(out.end(), _detached.begin(), _detached.end());
    _detached.clear();
}

void
ChurnStream::sidRetired(trace::SourceId sid)
{
    HYPERSIO_ASSERT(sid < _slots.size(), "retired SID out of range");
    Slot &sl = _slots[sid];
    HYPERSIO_ASSERT(sl.state == SlotState::Parked,
                    "retired a slot that is not parked");
    if (_nextVirtual < _cfg.population) {
        bind(sid, _nextVirtual++);
    } else {
        sl.state = SlotState::Dead;
        ++_dead;
    }
}

} // namespace hypersio::workload
