/**
 * @file
 * Discrete-event simulation kernel.
 *
 * The performance model is an event-driven simulator: components
 * schedule callbacks at absolute ticks, and the queue executes them
 * in (tick, priority, sequence) order so simulation is fully
 * deterministic.
 *
 * Internals (see DESIGN.md "Slab event kernel"): events live in a
 * slab of fixed-size records with chunk-stable addresses and
 * free-list recycling. Callbacks are stored through a small-buffer
 * optimization — captures up to CallbackInlineSize bytes go directly
 * into the record, larger ones fall back to one heap allocation.
 * Ordering is a 4-ary index heap over (tick, priority, seq) keys;
 * the heap moves 24-byte keys, never callbacks. Cancellation is O(1)
 * and generation-checked: a cancelled record is tombstoned in place
 * (its callback destroyed immediately) and its slot recycles when
 * the key pops. Handles carry (slot, generation), so cancelling an
 * already-fired or already-cancelled event is a detected no-op.
 *
 * Event fusion (DESIGN.md "Hit-path event fusion"): a component
 * sitting in tail position of an event callback may collapse its
 * next deterministic hop — "schedule myself `delay` later" — into a
 * synchronous continuation via tryFuseAdvance(). The queue advances
 * _now to the exact tick the hop event would have fired at and burns
 * the sequence number that event would have consumed, so every
 * observable total-order key (tick, priority, seq) is identical to
 * the event-per-hop schedule. Fusion is refused whenever any pending
 * event would fire at or before the hop's tick, so fused work can
 * never run ahead of (or tie with) a regular event — interleaving
 * is bit-identical by construction. setFusionEnabled(false) selects
 * the event-per-hop schedule at runtime, so one binary can A/B them.
 *
 * Refused-slot fast-forward (DESIGN.md "Refused-slot fast-forward"):
 * a periodic retry that was refused may skip every later slot that
 * falls strictly before nextTick() — nothing can change its outcome
 * before then — burning the seqs those re-arms would have consumed
 * (burnSeqs()), so again every (tick, priority, seq) key is unchanged.
 */

#ifndef HYPERSIO_SIM_EVENT_QUEUE_HH
#define HYPERSIO_SIM_EVENT_QUEUE_HH

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

#include "util/logging.hh"
#include "util/units.hh"

namespace hypersio::sim
{

/** Scheduling priority; lower value runs first within the same tick. */
using Priority = int;

constexpr Priority DefaultPriority = 0;
/** Used by components that must observe state before others mutate it. */
constexpr Priority EarlyPriority = -10;
/** Used by bookkeeping that must run after all same-tick activity. */
constexpr Priority LatePriority = 10;

/**
 * Opaque handle to a scheduled event. Valid until the event fires or
 * is cancelled; safe to keep after either (cancel becomes a no-op
 * that returns false, thanks to the generation check).
 */
class EventHandle
{
  public:
    EventHandle() = default;

    bool valid() const { return _id != 0; }

  private:
    friend class EventQueue;
    explicit EventHandle(uint64_t id) : _id(id) {}
    uint64_t _id = 0;
};

/**
 * The central event queue. One instance drives one simulated system.
 */
class EventQueue
{
  public:
    using Callback = std::function<void()>;
    using Handle = EventHandle;

    /**
     * Captures up to this many bytes are stored inline in the event
     * record; larger callables cost one heap allocation. Sized so
     * every hot-path closure of the translation pipeline (a handful
     * of words: object pointer, slot index, a response struct) stays
     * inline.
     */
    static constexpr size_t CallbackInlineSize = 48;

    EventQueue() = default;

    EventQueue(const EventQueue &) = delete;
    EventQueue &operator=(const EventQueue &) = delete;

    ~EventQueue()
    {
        // Destroy callbacks of events that never fired. Cancelled
        // tombstones already destroyed theirs.
        for (const HeapItem &item : _heap) {
            Record &rec = record(item.idx);
            if (rec.state == Record::Pending)
                rec.destroyCallback();
        }
    }

    /** Current simulated time. */
    Tick now() const { return _now; }

    /** Number of events executed so far. */
    uint64_t executed() const { return _executed; }

    /**
     * Sequence number of the most recently scheduled event. Part of
     * the kernel's total order (tick, priority, seq); the sharded
     * MultiSystem reuses it as the deterministic tie-breaker when
     * merging per-shard timelines.
     */
    uint64_t scheduledSeq() const { return _nextSeq; }

    /**
     * Tick of the heap top, or MaxTick when the heap is empty. A
     * tombstoned top counts as pending (it may hide a later live
     * key), so callers skipping ahead to it skip less, never more.
     */
    Tick
    nextTick() const
    {
        return _heap.empty() ? MaxTick : _heap.front().when;
    }

    /**
     * Consumes `n` sequence numbers, exactly as `n` elided
     * schedule() calls would have: the next schedule() gets the seq
     * the (n+1)-th call of such a chain would have got. Used by the
     * refused-slot fast-forward (DESIGN.md §15).
     */
    void burnSeqs(uint64_t n) { _nextSeq += n; }

    /** Number of events currently pending (tombstones excluded). */
    size_t pending() const { return _live; }

    /** True when no live events remain. */
    bool empty() const { return _live == 0; }

    /** Event records ever allocated (slab high-water mark; tests). */
    size_t poolCapacity() const { return _slabSize; }

    /**
     * Enables/disables the fused fast path at runtime (tests and
     * bench/layer_bench compare fused and unfused runs inside one
     * binary).
     */
    void setFusionEnabled(bool on) { _fusionEnabled = on; }
    bool fusionEnabled() const { return _fusionEnabled; }

    /** Hop events elided by tryFuseAdvance() so far (diagnostics
     *  only — never part of a simulation result). */
    uint64_t fusedHops() const { return _fusedHops; }

    /**
     * Fused-completion fast path. The caller is an event callback in
     * *tail position* — nothing after the call site reads now() or
     * schedules with pre-call expectations — that would otherwise
     * `scheduleAfter(delay, continuation)` exactly one event and
     * return. On success the queue warps _now to that event's tick
     * and burns the one sequence number it would have consumed; the
     * caller then runs the continuation synchronously. On failure
     * the caller must schedule exactly as before.
     *
     * Success requires, conservatively:
     *  - fusion enabled and a run() in progress (never during step(),
     *    which promises one callback per call);
     *  - the hop's tick not beyond the run limit (the per-hop
     *    schedule leaves the event pending past the limit; so do we);
     *  - every pending event STRICTLY later than the hop's tick — a
     *    tombstoned top counts as pending (it may hide a later live
     *    key, so skipping fusion is the safe direction), and
     *    same-tick events of any priority refuse fusion even when
     *    the elided event would have ordered first.
     */
    bool
    tryFuseAdvance(Tick delay)
    {
        if (!_fusionEnabled || !_inRun)
            return false;
        const Tick when = _now + delay;
        HYPERSIO_ASSERT(when >= _now,
                        "fused hop overflows Tick: now %llu + %llu",
                        (unsigned long long)_now,
                        (unsigned long long)delay);
        if (when > _runLimit)
            return false;
        if (!_heap.empty() && _heap.front().when <= when)
            return false;
        ++_nextSeq; // the elided event's slot in the total order
        ++_fusedHops;
        _now = when;
        return true;
    }

    /**
     * Schedules `fn` to run at absolute tick `when` (>= now()).
     * Same-tick events run in priority order, then insertion order.
     * Any callable convertible to void() is accepted; its captures
     * are stored inline when they fit (see CallbackInlineSize).
     */
    template <typename F>
    EventHandle
    schedule(Tick when, F &&fn, Priority priority = DefaultPriority)
    {
        HYPERSIO_ASSERT(when >= _now,
                        "scheduling in the past: %llu < %llu",
                        (unsigned long long)when,
                        (unsigned long long)_now);
        const uint32_t idx = allocRecord();
        Record &rec = record(idx);
        rec.emplace(std::forward<F>(fn));
        rec.state = Record::Pending;
        ++_live;
        heapPush(HeapItem{when, ++_nextSeq, priority, idx});
        return EventHandle((static_cast<uint64_t>(rec.gen) << 32) |
                           (idx + 1));
    }

    /** Schedules `fn` to run `delay` ticks from now. */
    template <typename F>
    EventHandle
    scheduleAfter(Tick delay, F &&fn,
                  Priority priority = DefaultPriority)
    {
        const Tick when = _now + delay;
        HYPERSIO_ASSERT(when >= _now,
                        "scheduleAfter overflows Tick: now %llu + "
                        "delay %llu wraps",
                        (unsigned long long)_now,
                        (unsigned long long)delay);
        return schedule(when, std::forward<F>(fn), priority);
    }

    /**
     * Cancels a scheduled event in O(1). Returns true if the event
     * was still pending; false for an invalid handle or one whose
     * event already fired or was already cancelled (the generation
     * check catches both, so late cancels never corrupt accounting).
     * The callback is destroyed immediately; the record's heap key
     * is skipped and recycled when it reaches the top.
     */
    bool
    cancel(EventHandle handle)
    {
        if (!handle.valid())
            return false;
        const uint32_t idx =
            static_cast<uint32_t>(handle._id & 0xffffffffu) - 1;
        const uint32_t gen = static_cast<uint32_t>(handle._id >> 32);
        if (idx >= _slabSize)
            return false;
        Record &rec = record(idx);
        if (rec.state != Record::Pending || rec.gen != gen)
            return false;
        rec.destroyCallback();
        rec.state = Record::Cancelled;
        // Invalidate every outstanding handle to this record,
        // including the one just used.
        ++rec.gen;
        --_live;
        return true;
    }

    /**
     * Runs events until the queue drains or `limit` ticks elapse.
     * @return the tick of the last executed event (or now()).
     */
    Tick
    run(Tick limit = MaxTick)
    {
        // Publish the horizon for tryFuseAdvance(): a fused hop may
        // never warp past `limit`, and fusion is only meaningful
        // while this loop is driving execution (run() never nests —
        // callbacks do not call run()).
        _inRun = true;
        _runLimit = limit;
        while (!_heap.empty()) {
            const HeapItem top = _heap.front();
            if (top.when > limit)
                break;
            Record &rec = record(top.idx);
            if (rec.state == Record::Cancelled) {
                heapPopTop();
                releaseRecord(top.idx, rec);
                continue;
            }
            HYPERSIO_ASSERT(top.when >= _now, "time went backwards");
            FiredCallback cb(rec);
            heapPopTop();
            releaseRecord(top.idx, rec);
            --_live;
            _now = top.when;
            ++_executed;
            cb();
        }
        _inRun = false;
        _runLimit = MaxTick;
        if (_now < limit && limit != MaxTick)
            _now = limit;
        return _now;
    }

    /** Executes exactly one event if any is pending. */
    bool
    step()
    {
        while (!_heap.empty()) {
            const HeapItem top = _heap.front();
            Record &rec = record(top.idx);
            if (rec.state == Record::Cancelled) {
                heapPopTop();
                releaseRecord(top.idx, rec);
                continue;
            }
            HYPERSIO_ASSERT(top.when >= _now, "time went backwards");
            FiredCallback cb(rec);
            heapPopTop();
            releaseRecord(top.idx, rec);
            --_live;
            _now = top.when;
            ++_executed;
            cb();
            return true;
        }
        return false;
    }

  private:
    /** Type-erased operations of one stored callable. */
    struct CallbackOps
    {
        void (*invoke)(void *buf);
        /** Move-construct dst's storage from src, destroying src. */
        void (*relocate)(void *dst, void *src);
        void (*destroy)(void *buf);
    };

    template <typename T>
    struct InlineOps
    {
        static T *get(void *buf)
        {
            return std::launder(reinterpret_cast<T *>(buf));
        }
        static void invoke(void *buf) { (*get(buf))(); }
        static void
        relocate(void *dst, void *src)
        {
            T *s = get(src);
            ::new (dst) T(std::move(*s));
            s->~T();
        }
        static void destroy(void *buf) { get(buf)->~T(); }
        static constexpr CallbackOps ops{&invoke, &relocate,
                                         &destroy};
    };

    template <typename T>
    struct HeapOps
    {
        static T *&ptr(void *buf)
        {
            return *std::launder(reinterpret_cast<T **>(buf));
        }
        static void invoke(void *buf) { (*ptr(buf))(); }
        static void
        relocate(void *dst, void *src)
        {
            ::new (dst) (T *)(ptr(src));
        }
        static void destroy(void *buf) { delete ptr(buf); }
        static constexpr CallbackOps ops{&invoke, &relocate,
                                         &destroy};
    };

    /**
     * One slab record. `when`/`priority`/`seq` live in the heap key,
     * not here — cancellation and firing only need the callback and
     * the generation.
     */
    struct Record
    {
        enum State : uint8_t { Free, Pending, Cancelled };

        alignas(alignof(std::max_align_t))
            unsigned char buf[CallbackInlineSize];
        const CallbackOps *ops = nullptr;
        /**
         * Bumped on cancel and on fire, so stale handles miss. A
         * 32-bit generation would need 4G reuses of one slot to
         * alias — beyond any simulated workload.
         */
        uint32_t gen = 0;
        State state = Free;

        template <typename F>
        void
        emplace(F &&fn)
        {
            using T = std::decay_t<F>;
            if constexpr (sizeof(T) <= CallbackInlineSize &&
                          alignof(T) <=
                              alignof(std::max_align_t) &&
                          std::is_nothrow_move_constructible_v<T>) {
                ::new (static_cast<void *>(buf))
                    T(std::forward<F>(fn));
                ops = &InlineOps<T>::ops;
            } else {
                ::new (static_cast<void *>(buf))
                    (T *)(new T(std::forward<F>(fn)));
                ops = &HeapOps<T>::ops;
            }
        }

        void
        destroyCallback()
        {
            ops->destroy(buf);
            ops = nullptr;
        }
    };

    /**
     * Moves a firing record's callback onto the stack so the slot
     * can recycle before the callback runs (callbacks routinely
     * schedule new events, and a cancel arriving after the fire must
     * see a released record).
     */
    class FiredCallback
    {
      public:
        explicit FiredCallback(Record &rec) : _ops(rec.ops)
        {
            _ops->relocate(_buf, rec.buf);
            rec.ops = nullptr;
        }
        ~FiredCallback() { _ops->destroy(_buf); }

        FiredCallback(const FiredCallback &) = delete;
        FiredCallback &operator=(const FiredCallback &) = delete;

        void operator()() { _ops->invoke(_buf); }

      private:
        alignas(alignof(std::max_align_t))
            unsigned char _buf[CallbackInlineSize];
        const CallbackOps *_ops;
    };

    /** One 4-ary-heap element: the full sort key plus record index. */
    struct HeapItem
    {
        Tick when;
        uint64_t seq;
        Priority priority;
        uint32_t idx;
    };

    static bool
    before(const HeapItem &a, const HeapItem &b)
    {
        if (a.when != b.when)
            return a.when < b.when;
        if (a.priority != b.priority)
            return a.priority < b.priority;
        return a.seq < b.seq;
    }

    static constexpr size_t ChunkShift = 8; ///< 256 records/chunk
    static constexpr size_t ChunkSize = size_t(1) << ChunkShift;
    static constexpr size_t ChunkMask = ChunkSize - 1;

    Record &
    record(uint32_t idx)
    {
        return _chunks[idx >> ChunkShift][idx & ChunkMask];
    }

    uint32_t
    allocRecord()
    {
        if (!_free.empty()) {
            const uint32_t idx = _free.back();
            _free.pop_back();
            return idx;
        }
        if ((_slabSize & ChunkMask) == 0)
            _chunks.push_back(
                std::make_unique<Record[]>(ChunkSize));
        return static_cast<uint32_t>(_slabSize++);
    }

    void
    releaseRecord(uint32_t idx, Record &rec)
    {
        if (rec.state == Record::Pending)
            ++rec.gen; // cancelled records bumped theirs already
        rec.state = Record::Free;
        _free.push_back(idx);
    }

    void
    heapPush(HeapItem item)
    {
        size_t i = _heap.size();
        _heap.push_back(item);
        while (i > 0) {
            const size_t parent = (i - 1) >> 2;
            if (!before(item, _heap[parent]))
                break;
            _heap[i] = _heap[parent];
            i = parent;
        }
        _heap[i] = item;
    }

    void
    heapPopTop()
    {
        const HeapItem last = _heap.back();
        _heap.pop_back();
        const size_t n = _heap.size();
        if (n == 0)
            return;
        size_t i = 0;
        for (;;) {
            const size_t first = (i << 2) + 1;
            if (first >= n)
                break;
            size_t best = first;
            const size_t end = std::min(first + 4, n);
            for (size_t c = first + 1; c < end; ++c) {
                if (before(_heap[c], _heap[best]))
                    best = c;
            }
            if (!before(_heap[best], last))
                break;
            _heap[i] = _heap[best];
            i = best;
        }
        _heap[i] = last;
    }

    std::vector<std::unique_ptr<Record[]>> _chunks;
    std::vector<uint32_t> _free;
    std::vector<HeapItem> _heap;
    size_t _slabSize = 0;
    size_t _live = 0;
    Tick _now = 0;
    uint64_t _nextSeq = 0;
    uint64_t _executed = 0;
    uint64_t _fusedHops = 0;
    /** run()'s `limit` while a run is in progress (fusion horizon). */
    Tick _runLimit = MaxTick;
    bool _inRun = false;
    bool _fusionEnabled = true;
};

/**
 * Refused-slot fast-forward arithmetic (DESIGN.md §15). A periodic
 * retry at `now` was just refused, and only an event can change the
 * outcome, so every later slot now + k*gap that falls strictly before
 * `next` (EventQueue::nextTick()) is refused too. Returns how many.
 * The slot that ties with `next` is never counted: it must fire as a
 * real event, ordered against next's by (priority, seq). A `next` at
 * or before `now` (a same-tick event) skips nothing. `next == MaxTick`
 * means nothing is pending, so nothing can ever end the refusals.
 */
inline uint64_t
refusedSlotsBefore(Tick now, Tick next, Tick gap)
{
    HYPERSIO_ASSERT(next != MaxTick,
                    "slot refused with nothing pending: no event can "
                    "free what refused it, so the retry would spin "
                    "forever (now %llu)",
                    (unsigned long long)now);
    HYPERSIO_ASSERT(gap > 0, "refused-slot gap must be positive");
    return next > now ? (next - now - 1) / gap : 0;
}

} // namespace hypersio::sim

#endif // HYPERSIO_SIM_EVENT_QUEUE_HH
