/**
 * @file
 * Untimed reference model of the Pending Translation Buffer: a pool
 * of `capacity` slots with allocate / release / drop events. The
 * timed PTB may complete packets out of order and drop-and-retry on
 * full; the reference only tracks which slots are live (a flag per
 * slot and a count) and checks the occupancy invariants on every
 * event.
 */

#ifndef HYPERSIO_ORACLE_REF_PTB_HH
#define HYPERSIO_ORACLE_REF_PTB_HH

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "oracle/violation.hh"

namespace hypersio::oracle
{

/** Slot-occupancy reference for the PTB. */
class RefPtb
{
  public:
    void
    configure(unsigned capacity)
    {
        _capacity = capacity;
        _live.assign(capacity, 0);
        _inUse = 0;
    }

    /** A packet was accepted into slot `idx`. */
    std::optional<std::string>
    allocated(unsigned idx, unsigned reported_in_use)
    {
        if (idx >= _capacity) [[unlikely]] {
            return violation("PTB: allocated slot %u beyond "
                             "capacity %u",
                             idx, _capacity);
        }
        if (_live[idx]) [[unlikely]]
            return violation("PTB: slot %u allocated twice", idx);
        _live[idx] = 1;
        ++_inUse;
        if (_inUse != reported_in_use) [[unlikely]] {
            return violation("PTB: occupancy %u reported after "
                             "allocate, reference holds %zu",
                             reported_in_use, _inUse);
        }
        return std::nullopt;
    }

    /** A packet completed and freed slot `idx`. */
    std::optional<std::string>
    released(unsigned idx, unsigned reported_in_use)
    {
        if (idx >= _capacity || !_live[idx]) [[unlikely]]
            return violation("PTB: released idle slot %u", idx);
        _live[idx] = 0;
        --_inUse;
        if (_inUse != reported_in_use) [[unlikely]] {
            return violation("PTB: occupancy %u reported after "
                             "release, reference holds %zu",
                             reported_in_use, _inUse);
        }
        return std::nullopt;
    }

    /** A packet was dropped because the PTB reported full. */
    std::optional<std::string>
    dropped() const
    {
        if (_inUse != _capacity) [[unlikely]] {
            return violation("PTB: packet dropped at occupancy "
                             "%zu/%u — drops are only legal when "
                             "full",
                             _inUse, _capacity);
        }
        return std::nullopt;
    }

    size_t inUse() const { return _inUse; }
    unsigned capacity() const { return _capacity; }

  private:
    unsigned _capacity = 0;
    /** One flag per slot: 1 while a packet holds it. */
    std::vector<uint8_t> _live;
    size_t _inUse = 0;
};

} // namespace hypersio::oracle

#endif // HYPERSIO_ORACLE_REF_PTB_HH
