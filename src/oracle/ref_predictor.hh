/**
 * @file
 * Untimed reference models of the SID-predictor and the IOVA History
 * Reader's per-tenant history.
 *
 * The predictor reference restates the paper's training rule from
 * first principles: after arrival n, the prediction for the SID that
 * arrived at position n - H is the SID of arrival n (H = the
 * history-length register). It is implemented over a ring of the
 * last H+1 arrivals rather than the timed model's sliding deque, so
 * the two agree only if both implement the same definition.
 */

#ifndef HYPERSIO_ORACLE_REF_PREDICTOR_HH
#define HYPERSIO_ORACLE_REF_PREDICTOR_HH

#include <cstdint>
#include <optional>
#include <vector>

#include "mem/addr.hh"
#include "oracle/ref_table.hh"

namespace hypersio::oracle
{

/** Definition-level reference of the next-SID predictor. */
class RefSidPredictor
{
  public:
    void
    configure(unsigned history_length)
    {
        _history = history_length;
        _ring.assign(static_cast<size_t>(_history) + 1, 0);
        _count = 0;
        _table.reset();
    }

    /** Observes arrival number `_count` with source `sid`. */
    void
    observe(uint32_t sid)
    {
        const size_t period = _ring.size();
        if (_history == 0) {
            _table[sid] = sid;
        } else if (_count >= _history) {
            // Arrival n - H is still resident: the slot about to be
            // overwritten is (n + 1) mod (H + 1), not (n - H).
            _table[_ring[(_count - _history) % period]] = sid;
        }
        _ring[_count % period] = sid;
        ++_count;
    }

    std::optional<uint32_t>
    predict(uint32_t sid) const
    {
        const uint32_t *next = _table.find(sid);
        if (!next)
            return std::nullopt;
        return *next;
    }

    /** Tenant detach: forgets the retired SID's prediction entry. */
    void retire(uint32_t sid) { _table.erase(sid); }

    uint64_t observed() const { return _count; }
    /** SIDs holding a prediction entry. */
    size_t size() const { return _table.size(); }

  private:
    unsigned _history = 0;
    std::vector<uint32_t> _ring{0};
    uint64_t _count = 0;
    RefTable<uint32_t> _table;
};

/** One page in a reference tenant history. */
struct RefHistoryPage
{
    mem::Addr pageBase = 0;
    unsigned sizeBytesLog2 = 12;

    bool
    operator==(const RefHistoryPage &other) const
    {
        return pageBase == other.pageBase &&
               sizeBytesLog2 == other.sizeBytesLog2;
    }
};

/**
 * Reference of the History Reader's per-DID MRU page list: distinct
 * page bases, most recent first, capped at `depth`. A re-observed
 * page moves to the front keeping its originally recorded size.
 */
class RefHistory
{
  public:
    void
    configure(unsigned depth)
    {
        _depth = depth;
        _lists.reset();
    }

    void
    observe(uint32_t did, mem::Addr page_base, unsigned size_log2)
    {
        auto &list = _lists[did];
        for (size_t i = 0; i < list.size(); ++i) {
            if (list[i].pageBase == page_base) {
                const RefHistoryPage page = list[i];
                list.erase(list.begin() +
                           static_cast<ptrdiff_t>(i));
                list.insert(list.begin(), page);
                return;
            }
        }
        list.insert(list.begin(), {page_base, size_log2});
        if (list.size() > _depth)
            list.pop_back();
    }

    /** Tenant detach: drops the retired DID's history list. */
    void retire(uint32_t did) { _lists.erase(did); }

    /** The i-th most recent page of `did`, if recorded. */
    std::optional<RefHistoryPage>
    recent(uint32_t did, size_t i) const
    {
        const auto *list = _lists.find(did);
        if (!list || i >= list->size())
            return std::nullopt;
        return (*list)[i];
    }

    /** DIDs holding a history list. */
    size_t size() const { return _lists.size(); }

  private:
    unsigned _depth = 0;
    RefTable<std::vector<RefHistoryPage>> _lists;
};

} // namespace hypersio::oracle

#endif // HYPERSIO_ORACLE_REF_PREDICTOR_HH
