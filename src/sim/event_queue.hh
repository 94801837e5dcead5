/**
 * @file
 * Discrete-event simulation kernel.
 *
 * The performance model is an event-driven simulator: components
 * schedule callbacks at absolute ticks, and the queue executes them
 * in (tick, seq) order — seq being the order they were scheduled in —
 * so simulation is fully deterministic. No event is withdrawn or
 * prioritised, and run() drains the queue.
 *
 * Internals (see DESIGN.md "Slab event kernel"): events live in a
 * slab of fixed-size records with chunk-stable addresses and
 * free-list recycling. Every callback is a Storable closure — at
 * most CallbackInlineSize bytes, trivially copyable and trivially
 * destructible, which one static_assert enforces — stored inline
 * beside one invoke pointer. Ordering moves 24-byte (tick, seq)
 * keys, never callbacks, through two structures (DESIGN.md "Delay
 * lanes"). A delay lane is a FIFO ring of the keys scheduled with
 * one delay d: `now` never decreases, so `now + d` never decreases,
 * and seq strictly increases, so a lane is sorted by construction
 * and a push to it is an append. A small heap of the non-empty
 * lanes, keyed by each lane's head, picks the earliest lane. Lanes
 * are a direct-mapped table indexed by a hash of the delay; a delay
 * whose slot names another delay (an empty slot takes a new delay
 * on its second push), and every woken parked slot (its reserved
 * seq is old), goes to a 4-ary fallback heap instead. Dispatch
 * takes the earlier of the lane top and the heap top.
 *
 * Event fusion (DESIGN.md "Hit-path event fusion"): a component
 * sitting in tail position of an event callback may collapse its
 * next deterministic hop — "schedule myself `delay` later" — into a
 * synchronous continuation via tryFuseAdvance(). The queue advances
 * _now to the exact tick the hop event would have fired at and burns
 * the sequence number that event would have consumed, so every
 * observable total-order key (tick, seq) is identical to the
 * event-per-hop schedule. Fusion is refused whenever any pending
 * event would fire at or before the hop's tick, so fused work can
 * never run ahead of (or tie with) a regular event — interleaving
 * is bit-identical by construction. setFusionEnabled(false) selects
 * the event-per-hop schedule at runtime, so one binary can A/B them.
 *
 * Parked slots (DESIGN.md "Parked arrivals"): a periodic retry that
 * only some later event can satisfy — an arrival refused by a full
 * PTB — parks instead of re-arming. park() reserves the one seq the
 * re-arm would have taken and pushes nothing. Before any key is
 * dispatched, and inside tryFuseAdvance() right after the hop's seq
 * is burned, the kernel catches up: each parked slot whose (tick,
 * seq) key orders first is billed to its owner as refused slots in
 * one call, burning the seqs their re-arms would have consumed.
 * wake() turns the slot back into a real event at its reserved key.
 * Every key is again the one of the event-per-slot schedule; only
 * executed() falls. Parked slots never refuse fusion.
 */

#ifndef HYPERSIO_SIM_EVENT_QUEUE_HH
#define HYPERSIO_SIM_EVENT_QUEUE_HH

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

#include "util/logging.hh"
#include "util/units.hh"

namespace hypersio::sim
{

/**
 * Refused-slot arithmetic of a parked slot (DESIGN.md §15). A
 * periodic retry at `now` was just refused, and nothing can change
 * the outcome before `next`, so every later slot now + k*gap that
 * falls strictly before `next` is refused too. Returns how many.
 * The slot that ties with `next` is never counted: it is ordered
 * against next's key by seq. A `next` at or before `now` skips
 * nothing. `next == MaxTick` means nothing is pending, so nothing
 * can ever end the refusals.
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

/**
 * Owner of a parked slot (EventQueue::park). The kernel bills it for
 * the refusals it elides, before anything that could end them runs.
 */
class ParkedSlotSink
{
  public:
    /** `n` consecutive slots of the parked retry were refused. */
    virtual void slotsRefused(uint64_t n) = 0;

  protected:
    ~ParkedSlotSink() = default;
};

/** Names a parked slot; a default-constructed handle names none. */
class ParkHandle
{
  public:
    ParkHandle() = default;

    bool valid() const { return _id != 0; }

  private:
    friend class EventQueue;
    explicit ParkHandle(uint32_t id) : _id(id) {}
    uint32_t _id = 0;
};

/**
 * The central event queue. One instance drives one simulated system.
 */
class EventQueue
{
  public:
    /**
     * Capture bytes an event record holds. The largest closure of
     * the translation pipeline, the IOTLB-hit delivery's (object,
     * request, response), is exactly this size.
     */
    static constexpr size_t CallbackInlineSize = 48;

    /**
     * Whether a closure of type F can be scheduled: it fits the
     * record's inline bytes and alignment, and it is trivially
     * copyable and trivially destructible, so a record is moved as
     * plain bytes and never destroyed. Capture pointers, indices and
     * POD structs; never a type-erased function wrapper or an
     * owning object.
     */
    template <typename F>
    static constexpr bool Storable =
        sizeof(std::decay_t<F>) <= CallbackInlineSize &&
        alignof(std::decay_t<F>) <= alignof(std::max_align_t) &&
        std::is_trivially_copyable_v<std::decay_t<F>> &&
        std::is_trivially_destructible_v<std::decay_t<F>>;

    EventQueue() = default;

    EventQueue(const EventQueue &) = delete;
    EventQueue &operator=(const EventQueue &) = delete;

    /** Current simulated time. */
    Tick now() const { return _now; }

    /** Number of events executed so far. */
    uint64_t executed() const { return _executed; }

    /**
     * Sequence number of the most recently scheduled event. Part of
     * the kernel's total order (tick, seq); ShardedMultiSystem
     * reuses it as the deterministic tie-breaker when merging
     * per-shard timelines.
     */
    uint64_t scheduledSeq() const { return _nextSeq; }

    /** Event records ever allocated (slab high-water mark; tests). */
    size_t poolCapacity() const { return _slabSize; }

    /**
     * Enables/disables the fused fast path at runtime (tests and
     * bench/layer_bench compare fused and unfused runs inside one
     * binary).
     */
    void setFusionEnabled(bool on) { _fusionEnabled = on; }

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
     * Success requires fusion enabled, a run() in progress, and
     * every pending event STRICTLY later than the hop's tick: the
     * earliest pending key is the earlier of the lane top and the
     * fallback-heap top, and a same-tick one refuses fusion even
     * though the elided event would have ordered after it. Parked
     * slots do not refuse: the ones the elided event would have
     * followed are billed here, the tie slot included.
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
        if (_laneHeapSize != 0 && _laneHeap[0].when <= when)
            return false;
        if (!_heap.empty() && _heap.front().when <= when)
            return false;
        ++_nextSeq; // the elided event's slot in the total order
        ++_fusedHops;
        if (_firstParkedAt <= when)
            catchUp(Key{when, _nextSeq, 0, 0});
        _now = when;
        return true;
    }

    /**
     * Schedules `fn` to run at absolute tick `when` (>= now()).
     * Same-tick events run in the order they were scheduled. The key
     * joins the lane of its delay, `when - now()`.
     */
    template <typename F>
    void
    schedule(Tick when, F &&fn)
    {
        HYPERSIO_ASSERT(when >= _now,
                        "scheduling in the past: %llu < %llu",
                        (unsigned long long)when,
                        (unsigned long long)_now);
        const Key key{when, ++_nextSeq, store(std::forward<F>(fn)), 0};
        pushLane(key, when - _now);
    }

    /** Schedules `fn` to run `delay` ticks from now. */
    template <typename F>
    void
    scheduleAfter(Tick delay, F &&fn)
    {
        const Tick when = _now + delay;
        HYPERSIO_ASSERT(when >= _now,
                        "scheduleAfter overflows Tick: now %llu + "
                        "delay %llu wraps",
                        (unsigned long long)_now,
                        (unsigned long long)delay);
        schedule(when, std::forward<F>(fn));
    }

    /**
     * Parks a periodic retry, standing in for `scheduleAfter(gap,
     * retry)` from a retry that only a later event can satisfy: it
     * reserves that re-arm's key (now + gap, next seq) and pushes
     * nothing. Until wake(), each slot the retry would have fired at
     * is billed to `sink` as refused, one gap after the other, with
     * the seq each re-arm would have taken burned. The owner must
     * wake the slot from the event that ends its refusals; a parked
     * slot with nothing else pending panics.
     */
    ParkHandle
    park(Tick gap, ParkedSlotSink &sink)
    {
        HYPERSIO_ASSERT(gap > 0, "parked slot gap must be positive");
        const Tick when = _now + gap;
        HYPERSIO_ASSERT(when >= _now && when != MaxTick,
                        "parked slot overflows Tick: now %llu + gap "
                        "%llu wraps",
                        (unsigned long long)_now,
                        (unsigned long long)gap);
        uint32_t id = 0;
        while (id < _parked.size() && _parked[id].sink)
            ++id;
        if (id == _parked.size())
            _parked.emplace_back();
        _parked[id] = Parked{when, ++_nextSeq, gap, &sink};
        _firstParkedAt = std::min(_firstParkedAt, when);
        return ParkHandle(id + 1);
    }

    /**
     * Turns the parked slot `slot` names into a real event running
     * `fn` at the slot's reserved (tick, seq) key, and clears
     * `slot`. No-op when `slot` names none.
     */
    template <typename F>
    void
    wake(ParkHandle &slot, F &&fn)
    {
        if (!slot.valid())
            return;
        Parked &p = _parked[slot._id - 1];
        slot = ParkHandle();
        HYPERSIO_ASSERT(p.when >= _now, "woke a slot in the past");
        // The reserved seq is older than keys pushed since the park,
        // so the key may order before a lane's tail: it takes the
        // fallback heap.
        Key key = p.key();
        key.idx = store(std::forward<F>(fn));
        heapPush(key);
        p.sink = nullptr;
        _firstParkedAt = MaxTick;
        for (const Parked &other : _parked) {
            if (other.sink)
                _firstParkedAt = std::min(_firstParkedAt, other.when);
        }
    }

    /**
     * Runs events until the queue drains. Fusion is only meaningful
     * while this loop drives execution (run() never nests —
     * callbacks do not call run()). Forced inline, so the dispatch
     * loop sits in its caller (System::runLinks): left to the
     * compiler it went out of line, and the e2e `walk_path` rate
     * fell by 15-20%.
     */
    [[gnu::always_inline]] void
    run()
    {
        _inRun = true;
        while (dispatchNext()) {
        }
        _inRun = false;
    }

  private:
    /**
     * One slab record: a Storable closure's bytes and the function
     * that calls them. `when`/`seq` live in the key.
     */
    struct Record
    {
        alignas(alignof(std::max_align_t))
            unsigned char buf[CallbackInlineSize];
        void (*invoke)(void *buf);
    };

    /**
     * Runs the closure stored in `buf` from a copy on the stack: the
     * record is already back on the free list, and the closure may
     * schedule into it.
     */
    template <typename T>
    static void
    invokeAs(void *buf)
    {
        T fn = *std::launder(reinterpret_cast<T *>(buf));
        fn();
    }

    /**
     * The full sort key plus record index. `lane` names the key's
     * lane in the lane heap, and is unused elsewhere; it fills what
     * would be padding.
     */
    struct Key
    {
        Tick when;
        uint64_t seq;
        uint32_t idx;
        uint32_t lane;
    };

    static bool
    before(const Key &a, const Key &b)
    {
        if (a.when != b.when)
            return a.when < b.when;
        return a.seq < b.seq;
    }

    /** One parked retry: its reserved key, and who is billed. */
    struct Parked
    {
        Tick when = 0;
        uint64_t seq = 0;
        Tick gap = 0;
        /** Null while the entry is free. */
        ParkedSlotSink *sink = nullptr;

        Key key() const { return Key{when, seq, 0, 0}; }
    };

    /**
     * Stores `fn` in a slab record and returns its index: the one
     * path every scheduled closure takes.
     */
    template <typename F>
    uint32_t
    store(F &&fn)
    {
        using T = std::decay_t<F>;
        static_assert(Storable<F>,
                      "an event closure must fit CallbackInlineSize "
                      "(48 B) and be trivially copyable and trivially "
                      "destructible: capture pointers, indices and POD "
                      "structs, never a type-erased function wrapper "
                      "or an owning object");
        const uint32_t idx = allocRecord();
        Record &rec = record(idx);
        ::new (static_cast<void *>(rec.buf)) T(std::forward<F>(fn));
        rec.invoke = &invokeAs<T>;
        return idx;
    }

    /**
     * Runs the earliest key, the earlier of the lane top and the
     * fallback-heap top, after catching up the parked slots ahead of
     * it. Returns false when nothing is pending. The slot recycles
     * before the closure runs (callbacks routinely schedule new
     * events); invokeAs() copies the closure out first. Forced
     * inline: it is run()'s loop body, the kernel's hottest path.
     */
    [[gnu::always_inline]] bool
    dispatchNext()
    {
        const bool from_lane =
            _laneHeapSize != 0 &&
            (_heap.empty() || before(_laneHeap[0], _heap.front()));
        if (!from_lane && _heap.empty()) {
            HYPERSIO_ASSERT(_firstParkedAt == MaxTick,
                            "slot parked with nothing pending: no "
                            "event can end its refusals, so the retry "
                            "would spin forever (now %llu)",
                            (unsigned long long)_now);
            return false;
        }
        const Key top = from_lane ? _laneHeap[0] : _heap.front();
        if (_firstParkedAt <= top.when)
            catchUp(top);
        HYPERSIO_ASSERT(top.when >= _now, "time went backwards");
        Record &rec = record(top.idx);
        if (from_lane)
            lanePopTop(top.lane);
        else
            heapPopTop();
        _free.push_back(top.idx);
        _now = top.when;
        ++_executed;
        rec.invoke(rec.buf);
        return true;
    }

    /**
     * Bills every parked slot whose key orders before `stop`, in key
     * order. The first one is refused, and so is each later slot of
     * its loop strictly before `bound`, the first tick at which
     * anything else could run (`stop` or another parked slot): those
     * 1 + refusedSlotsBefore() slots burn one seq each, the last
     * being the re-arm the slot now holds. A slot that then ties
     * with `bound` is ordered by its new seq on the next pass.
     */
    void
    catchUp(const Key &stop)
    {
        for (;;) {
            Parked *first = nullptr;
            Tick bound = stop.when;
            for (Parked &p : _parked) {
                if (!p.sink)
                    continue;
                if (!first || before(p.key(), first->key())) {
                    if (first)
                        bound = std::min(bound, first->when);
                    first = &p;
                } else {
                    bound = std::min(bound, p.when);
                }
            }
            if (!first || !before(first->key(), stop)) {
                _firstParkedAt = first ? first->when : MaxTick;
                return;
            }
            const uint64_t n =
                1 + refusedSlotsBefore(first->when, bound, first->gap);
            first->when += n * first->gap;
            _nextSeq += n;
            first->seq = _nextSeq;
            first->sink->slotsRefused(n);
        }
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

    /** Slots of the direct-mapped lane table (a power of two). */
    static constexpr uint32_t LaneBits = 4;
    static constexpr uint32_t LaneCount = uint32_t(1) << LaneBits;

    /**
     * One delay lane: a FIFO ring of the pending keys scheduled with
     * `delay`, oldest at `head`, sorted by construction. An empty
     * lane keeps its delay until a push of another delay that hashes
     * to it names that delay instead (see pushLane()).
     */
    struct Lane
    {
        Tick delay = 0;
        std::unique_ptr<Key[]> ring;
        uint32_t capacity = 0; ///< 0 or a power of two
        uint32_t head = 0;
        uint32_t size = 0;

        /** The i-th oldest pending key. */
        Key &at(uint32_t i) { return ring[(head + i) & (capacity - 1)]; }
    };

    /** Fibonacci hash of a delay onto the lane table. */
    static uint32_t
    laneOf(Tick delay)
    {
        return static_cast<uint32_t>((delay * 0x9E3779B97F4A7C15ull) >>
                                     (64 - LaneBits));
    }

    /**
     * Queues `key`, scheduled `delay` ticks after now: appended to the
     * lane of `delay`, or pushed on the fallback heap when the lane
     * names another delay. A push that finds the lane empty and
     * naming another delay renames it and still takes the heap, so a
     * delay claims an empty lane the second time it hashes there:
     * random delays (layer_bench's mixes) rarely take a lane they
     * would hold for one key. Inlined into every schedule(): an
     * append costs one hash, one compare and a store, and the rarer
     * claim and growth are calls.
     */
    [[gnu::always_inline]] void
    pushLane(const Key &key, Tick delay)
    {
        const uint32_t id = laneOf(delay);
        Lane &lane = _lanes[id];
        if (lane.delay != delay) {
            if (lane.size == 0)
                lane.delay = delay;
            heapPush(key);
        } else if (lane.size != 0) {
            HYPERSIO_ASSERT(!before(key, lane.at(lane.size - 1)),
                            "key (%llu, %llu) orders before the tail "
                            "of its lane (delay %llu)",
                            (unsigned long long)key.when,
                            (unsigned long long)key.seq,
                            (unsigned long long)delay);
            laneAppend(lane, key);
        } else {
            claimLane(id, key);
        }
    }

    /** Makes `key` the one key of the empty lane `id`. */
    [[gnu::noinline]] void
    claimLane(uint32_t id, Key key)
    {
        laneAppend(_lanes[id], key);
        key.lane = id;
        laneHeapPush(key);
    }

    static void
    laneAppend(Lane &lane, const Key &key)
    {
        if (lane.size == lane.capacity)
            growLane(lane);
        lane.at(lane.size++) = key;
    }

    /** Doubles a full ring, unwrapping it so its head lands at 0. */
    [[gnu::noinline]] static void
    growLane(Lane &lane)
    {
        const uint32_t capacity = lane.capacity ? 2 * lane.capacity : 16;
        auto ring = std::make_unique<Key[]>(capacity);
        for (uint32_t i = 0; i < lane.size; ++i)
            ring[i] = lane.at(i);
        lane.ring = std::move(ring);
        lane.capacity = capacity;
        lane.head = 0;
    }

    /**
     * Drops the lane top, the head of lane `id`: the lane's next head
     * re-sifts in its place, or the lane leaves the lane heap.
     */
    void
    lanePopTop(uint32_t id)
    {
        Lane &lane = _lanes[id];
        lane.head = (lane.head + 1) & (lane.capacity - 1);
        if (--lane.size != 0) {
            Key next = lane.at(0);
            next.lane = id;
            laneHeapSiftDown(next);
        } else {
            laneHeapSiftDown(_laneHeap[--_laneHeapSize]);
        }
    }

    void
    laneHeapPush(const Key &key)
    {
        uint32_t i = _laneHeapSize++;
        while (i > 0) {
            const uint32_t parent = (i - 1) >> 1;
            if (!before(key, _laneHeap[parent]))
                break;
            _laneHeap[i] = _laneHeap[parent];
            i = parent;
        }
        _laneHeap[i] = key;
    }

    /** Places `key` at the lane heap's root and sifts it down. */
    void
    laneHeapSiftDown(const Key key)
    {
        uint32_t i = 0;
        for (;;) {
            uint32_t child = (i << 1) + 1;
            if (child >= _laneHeapSize)
                break;
            if (child + 1 < _laneHeapSize &&
                before(_laneHeap[child + 1], _laneHeap[child]))
                ++child;
            if (!before(_laneHeap[child], key))
                break;
            _laneHeap[i] = _laneHeap[child];
            i = child;
        }
        _laneHeap[i] = key;
    }

    void
    heapPush(const Key &item)
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
        const Key last = _heap.back();
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
    /** Non-empty lanes, a binary heap of copies of their heads. */
    std::array<Key, LaneCount> _laneHeap;
    uint32_t _laneHeapSize = 0;
    std::array<Lane, LaneCount> _lanes;
    /** Keys no lane took: a 4-ary heap. */
    std::vector<Key> _heap;
    size_t _slabSize = 0;
    Tick _now = 0;
    uint64_t _nextSeq = 0;
    uint64_t _executed = 0;
    uint64_t _fusedHops = 0;
    /** Parked slots by ParkHandle id - 1; free entries are reused. */
    std::vector<Parked> _parked;
    /** Earliest parked slot's tick; MaxTick when none is parked. */
    Tick _firstParkedAt = MaxTick;
    bool _inRun = false;
    bool _fusionEnabled = true;
};

} // namespace hypersio::sim

#endif // HYPERSIO_SIM_EVENT_QUEUE_HH
