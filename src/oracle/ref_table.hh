/**
 * @file
 * The oracle's own hash table: 64-bit keys in one flat array of
 * slots, open addressing with linear probing and backward-shift
 * erase (no tombstones).
 *
 * The reference models keep their state here rather than in the
 * timed model's util::FlatMap or SetAssocCache, so a defect in the
 * containers under test cannot hide in the checker that tests them.
 * The table grows when half full, so a faulty model that overfills
 * a mirror in collecting mode still gets every later violation
 * reported.
 *
 * Translation keys put the domain at bit 40 and up, and co-located
 * tenants share their low bits (same IOVAs, same frames), so the
 * home slot folds the high half into the low half before a
 * Fibonacci multiply and takes the product's top bits: keys that
 * differ only above bit 40 land apart.
 */

#ifndef HYPERSIO_ORACLE_REF_TABLE_HH
#define HYPERSIO_ORACLE_REF_TABLE_HH

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace hypersio::oracle
{

template <typename V>
class RefTable
{
  public:
    /** slotOf() of an absent key. */
    static constexpr size_t npos = SIZE_MAX;

    RefTable() { reset(); }

    /** Empties the table, sized for `expected` keys before growing. */
    void
    reset(size_t expected = 0)
    {
        const size_t capacity =
            std::bit_ceil(std::max<size_t>(8, 2 * expected));
        _slots.assign(capacity, Slot{});
        _mask = capacity - 1;
        _shift = 64 - std::countr_zero(capacity);
        _size = 0;
    }

    /** Empties the table, keeping its capacity. */
    void
    clear()
    {
        if (_size)
            _slots.assign(_slots.size(), Slot{});
        _size = 0;
    }

    /**
     * The slot holding `key`, or npos when absent. A slot is valid
     * until the next insertion or erase.
     */
    size_t
    slotOf(uint64_t key) const
    {
        for (size_t i = home(key);; i = (i + 1) & _mask) {
            const Slot &slot = _slots[i];
            if (!slot.used)
                return npos;
            if (slot.key == key)
                return i;
        }
    }

    uint64_t keyAt(size_t slot) const { return _slots[slot].key; }
    V &valueAt(size_t slot) { return _slots[slot].value; }

    V *
    find(uint64_t key)
    {
        const size_t slot = slotOf(key);
        return slot == npos ? nullptr : &_slots[slot].value;
    }

    const V *
    find(uint64_t key) const
    {
        return const_cast<RefTable *>(this)->find(key);
    }

    bool contains(uint64_t key) const { return find(key) != nullptr; }

    /**
     * The value of `key`, value-initialized and inserted when absent;
     * the flag says whether it was inserted. The pointer is valid
     * until the next insertion or erase.
     */
    std::pair<V *, bool>
    tryEmplace(uint64_t key)
    {
        if (2 * (_size + 1) > _slots.size())
            grow();
        for (size_t i = home(key);; i = (i + 1) & _mask) {
            Slot &slot = _slots[i];
            if (!slot.used) {
                slot.used = true;
                slot.key = key;
                ++_size;
                return {&slot.value, true};
            }
            if (slot.key == key)
                return {&slot.value, false};
        }
    }

    V &operator[](uint64_t key) { return *tryEmplace(key).first; }

    /** Removes `key`; false when it was absent. */
    bool
    erase(uint64_t key)
    {
        const size_t slot = slotOf(key);
        if (slot == npos)
            return false;
        eraseAt(slot);
        return true;
    }

    /** Removes the key in `slot`, which slotOf() returned. */
    void
    eraseAt(size_t slot)
    {
        size_t hole = slot;
        // Backward shift: pull each later key of the probe run into
        // the hole unless its home lies cyclically in (hole, j].
        for (size_t j = (hole + 1) & _mask; _slots[j].used;
             j = (j + 1) & _mask) {
            const size_t from_home = (j - home(_slots[j].key)) & _mask;
            if (from_home >= ((j - hole) & _mask)) {
                _slots[hole] = std::move(_slots[j]);
                hole = j;
            }
        }
        _slots[hole] = Slot{};
        --_size;
    }

    size_t size() const { return _size; }
    bool empty() const { return _size == 0; }

    /** Calls fn(key, value) for every key, in slot order. */
    template <typename Fn>
    void
    forEach(Fn &&fn) const
    {
        for (const Slot &slot : _slots)
            if (slot.used)
                fn(slot.key, slot.value);
    }

  private:
    struct Slot
    {
        uint64_t key = 0;
        V value{};
        bool used = false;
    };

    size_t
    home(uint64_t key) const
    {
        return static_cast<size_t>(
            ((key ^ (key >> 32)) * 0x9e3779b97f4a7c15ull) >> _shift);
    }

    [[gnu::noinline]] void
    grow()
    {
        std::vector<Slot> old = std::move(_slots);
        reset(old.size());
        for (Slot &slot : old)
            if (slot.used)
                *tryEmplace(slot.key).first = std::move(slot.value);
    }

    std::vector<Slot> _slots;
    size_t _mask = 0;
    unsigned _shift = 64;
    size_t _size = 0;
};

} // namespace hypersio::oracle

#endif // HYPERSIO_ORACLE_REF_TABLE_HH
