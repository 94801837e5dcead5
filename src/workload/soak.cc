#include "workload/soak.hh"

#include "iommu/context_cache.hh"
#include "util/logging.hh"
#include "util/rng.hh"

namespace hypersio::workload
{

namespace
{

/** Episode seed salt (distinct from the churn slot-bind salt). */
constexpr uint64_t StormSeedSalt = 0x50a1e;

} // namespace

SoakStream::SoakStream(const SoakConfig &config)
    : _cfg(config), _churn(config.churn),
      _stormBase(_churn.slots())
{
    if (_cfg.stormPeriod != 0) {
        HYPERSIO_ASSERT(_cfg.stormTenants >= 1,
                        "episodes need at least one storm tenant");
        HYPERSIO_ASSERT(_cfg.stormPackets >= 1,
                        "episodes need at least one packet");
        HYPERSIO_ASSERT(_stormBase + _cfg.stormTenants <=
                            iommu::ContextCache::SidSpace,
                        "storm SID range [%u, %u) exceeds the SID "
                        "space",
                        _stormBase,
                        _stormBase + _cfg.stormTenants);
    }
}

void
SoakStream::maybeStartEpisode()
{
    if (_cfg.stormPeriod == 0 ||
        _churnSinceStorm < _cfg.stormPeriod ||
        _stormRetirePending != 0 || _churn.exhausted()) {
        return;
    }
    // Alternate the two mutation-heavy families: unmap storms on hot
    // pages, then unmap-then-remap churn. Each episode draws a fresh
    // derived seed so recycled storm SIDs carry new page layouts.
    const AdversarialPattern pattern =
        _episodes % 2 == 0 ? AdversarialPattern::InvalidateStorm
                           : AdversarialPattern::RemapChurn;
    AdversarialConfig adv;
    adv.tenants = _cfg.stormTenants;
    adv.packets = _cfg.stormPackets;
    adv.seed = hashCombine(_cfg.churn.seed,
                           StormSeedSalt + _episodes);
    _storm = makeAdversarialTrace(pattern, adv);
    HYPERSIO_ASSERT(!_storm.packets.empty(),
                    "adversarial episode produced no packets");
    _stormCursor = 0;
    _stormBuffered = false;
    _mode = Mode::Storm;
    ++_episodes;
}

const trace::PacketRecord *
SoakStream::stormPeek()
{
    if (!_stormBuffered) {
        HYPERSIO_ASSERT(_stormCursor < _storm.packets.size(),
                        "storm cursor past the episode");
        const trace::PacketRecord &src =
            _storm.packets[_stormCursor];
        _stormPkt = src;
        // Rebase onto the dedicated storm SID range and re-anchor
        // the ops at 0 — the PacketStream contract (the ops belong
        // to the head packet only).
        // The constructor bounds the storm SID range by SidSpace.
        _stormPkt.sid = static_cast<uint16_t>(_stormPkt.sid + _stormBase);
        _stormPkt.opBegin = 0;
        _stormOps.assign(
            _storm.ops.begin() + src.opBegin,
            _storm.ops.begin() + src.opBegin + src.opCount);
        _stormBuffered = true;
    }
    return &_stormPkt;
}

void
SoakStream::stormAdvance()
{
    HYPERSIO_ASSERT(_stormBuffered,
                    "advance without a buffered storm packet");
    _stormBuffered = false;
    ++_stormCursor;
    ++_produced;
    if (_stormCursor < _storm.packets.size())
        return;
    // Episode complete: its last packet has been *consumed*, so the
    // storm tenants may now detach (the same deferred-farewell rule
    // ChurnStream follows). Retirement of the whole range must be
    // confirmed before the next episode starts.
    for (unsigned t = 0; t < _cfg.stormTenants; ++t)
        _detached.push_back(_stormBase + t);
    _stormRetirePending = _cfg.stormTenants;
    _storm = trace::HyperTrace{}; // keep memory O(episode), not O(run)
    _mode = Mode::Churn;
    _churnSinceStorm = 0;
}

const trace::PacketRecord *
SoakStream::peek()
{
    if (_mode == Mode::Churn)
        maybeStartEpisode();
    if (_mode == Mode::Storm)
        return stormPeek();
    return _churn.peek();
}

const trace::PageOp *
SoakStream::ops() const
{
    return _mode == Mode::Storm ? _stormOps.data() : _churn.ops();
}

void
SoakStream::advance()
{
    if (_mode == Mode::Storm) {
        stormAdvance();
        return;
    }
    _churn.advance();
    ++_churnSinceStorm;
    ++_produced;
}

bool
SoakStream::exhausted()
{
    if (_mode == Mode::Churn)
        maybeStartEpisode();
    if (_mode == Mode::Storm)
        return false;
    return _churn.exhausted();
}

uint32_t
SoakStream::numTenants() const
{
    return _cfg.churn.population +
           static_cast<uint32_t>(_episodes * _cfg.stormTenants);
}

uint64_t
SoakStream::attaches() const
{
    return _churn.attaches() + _episodes * _cfg.stormTenants;
}

void
SoakStream::drainDetached(std::vector<trace::SourceId> &out)
{
    _churn.drainDetached(out);
    out.insert(out.end(), _detached.begin(), _detached.end());
    _detached.clear();
}

void
SoakStream::sidRetired(trace::SourceId sid)
{
    if (sid >= _stormBase) {
        HYPERSIO_ASSERT(sid < _stormBase + _cfg.stormTenants,
                        "retired SID %u outside the storm range",
                        sid);
        HYPERSIO_ASSERT(_stormRetirePending > 0,
                        "storm SID retired with none pending");
        --_stormRetirePending;
        return;
    }
    _churn.sidRetired(sid);
}

} // namespace hypersio::workload
