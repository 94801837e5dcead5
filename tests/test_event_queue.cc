/** Unit tests for the discrete-event simulation kernel. */

#include <gtest/gtest.h>

#include <array>
#include <deque>
#include <functional>
#include <map>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "sim/event_queue.hh"

namespace hypersio::sim
{
namespace
{

TEST(EventQueue, ExecutesInTimeOrder)
{
    EventQueue q;
    std::vector<int> order;
    q.schedule(30, [&] { order.push_back(3); });
    q.schedule(10, [&] { order.push_back(1); });
    q.schedule(20, [&] { order.push_back(2); });
    q.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
    EXPECT_EQ(q.now(), 30u);
    EXPECT_EQ(q.executed(), 3u);
}

TEST(EventQueue, SameTickOrderedByInsertion)
{
    EventQueue q;
    std::vector<int> order;
    q.schedule(5, [&] { order.push_back(1); });
    q.schedule(5, [&] { order.push_back(2); });
    q.schedule(5, [&] { order.push_back(21); });
    q.schedule(5, [&] { order.push_back(3); });
    q.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 21, 3}));
}

TEST(EventQueue, ScheduleAfterIsRelative)
{
    EventQueue q;
    Tick seen = 0;
    q.schedule(100, [&] {
        q.scheduleAfter(50, [&] { seen = q.now(); });
    });
    q.run();
    EXPECT_EQ(seen, 150u);
}

/** An event that re-arms itself one tick later until `count` is 10. */
struct Chain
{
    EventQueue *q;
    int *count;

    void
    operator()() const
    {
        if (++*count < 10)
            q->scheduleAfter(1, *this);
    }
};

TEST(EventQueue, EventsCanScheduleMoreEvents)
{
    EventQueue q;
    int count = 0;
    q.schedule(0, Chain{&q, &count});
    q.run();
    EXPECT_EQ(count, 10);
    EXPECT_EQ(q.now(), 9u);
}

TEST(EventQueue, ZeroDelaySameTickExecution)
{
    EventQueue q;
    std::vector<int> order;
    q.schedule(5, [&] {
        order.push_back(1);
        q.scheduleAfter(0, [&] { order.push_back(2); });
    });
    q.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2}));
    EXPECT_EQ(q.now(), 5u);
}

TEST(EventQueue, ManyEventsStaySorted)
{
    EventQueue q;
    Tick last = 0;
    bool monotonic = true;
    // Pseudo-random insertion order.
    for (uint64_t i = 0; i < 1000; ++i) {
        Tick when = (i * 7919) % 10007;
        q.schedule(when, [&, when] {
            monotonic &= when >= last;
            last = when;
        });
    }
    q.run();
    EXPECT_TRUE(monotonic);
    EXPECT_EQ(q.executed(), 1000u);
}

// Steady-state churn must recycle slab slots, not grow the pool:
// the high-water mark tracks the peak number of in-flight events,
// not the total scheduled.
TEST(EventQueue, SlabRecyclesUnderChurn)
{
    EventQueue q;
    uint64_t fired = 0;
    for (int round = 0; round < 1000; ++round) {
        q.scheduleAfter(1, [&] { ++fired; });
        q.scheduleAfter(2, [&] { ++fired; });
        q.run();
    }
    EXPECT_EQ(fired, 2000u);
    // Two live events max; one chunk of records is ample.
    EXPECT_LE(q.poolCapacity(), 8u);
}

/** A capture member with a destructor, as an owning object has. */
struct NonTrivialDtor
{
    ~NonTrivialDtor() {}
};

// Only closures a record holds as plain bytes can be scheduled:
// oversized, owning and non-trivially-destructible ones fail to
// compile. A 48-byte capture, the IOTLB-hit delivery's size, runs.
TEST(EventQueue, LargestStorableClosureRunsIntact)
{
    std::array<uint64_t, 7> seven{};
    NonTrivialDtor owner;
    auto oversized = [seven] { (void)seven; };
    auto owning = [owner] { (void)owner; };
    static_assert(sizeof(oversized) == 56);
    static_assert(!EventQueue::Storable<decltype(oversized)>);
    static_assert(!EventQueue::Storable<decltype(owning)>);
    static_assert(!EventQueue::Storable<std::function<void()>>);

    EventQueue q;
    uint64_t sum = 0;
    std::array<uint64_t, 5> payload{1, 2, 3, 4, 5};
    auto fn = [&sum, payload] {
        for (uint64_t v : payload)
            sum += v;
    };
    static_assert(sizeof(fn) == EventQueue::CallbackInlineSize);
    static_assert(EventQueue::Storable<decltype(fn)>);
    q.schedule(1, fn);
    q.schedule(2, fn);
    q.run();
    EXPECT_EQ(sum, 30u);
}

// now + delay wrapping Tick used to silently schedule in the past
// (the schedule() precondition then fired with a misleading message,
// or worse, passed when now was 0). The overflow is its own fatal
// assert now, at the scheduleAfter boundary where the bad delay is
// still visible.
TEST(EventQueueDeathTest, ScheduleAfterOverflowPanics)
{
    EXPECT_DEATH(
        {
            EventQueue q;
            q.schedule(10, [] {});
            q.run();
            q.scheduleAfter(MaxTick - 5, [] {});
        },
        "scheduleAfter overflows Tick");
}

TEST(EventQueueDeathTest, FusedHopOverflowPanics)
{
    EXPECT_DEATH(
        {
            EventQueue q;
            q.schedule(10, [&] { q.tryFuseAdvance(MaxTick - 5); });
            q.run();
        },
        "fused hop overflows Tick");
}

// The fast path must refuse outside run(): direct calls between runs
// rely on every hop being a real event.
TEST(EventQueueFusion, RefusesOutsideRun)
{
    EventQueue q;
    EXPECT_FALSE(q.tryFuseAdvance(5));
    EXPECT_EQ(q.now(), 0u);
    EXPECT_EQ(q.fusedHops(), 0u);
}

TEST(EventQueueFusion, WarpsNowAndBurnsExactlyOneSeq)
{
    EventQueue q;
    Tick fused_at = 0;
    uint64_t seq_before = 0;
    uint64_t seq_after = 0;
    q.schedule(10, [&] {
        seq_before = q.scheduledSeq();
        ASSERT_TRUE(q.tryFuseAdvance(3)); // heap empty: fusible
        seq_after = q.scheduledSeq();
        fused_at = q.now();
    });
    q.run();
    // The elided event's tick and its slot in the (tick, seq) total
    // order are both preserved, so a fused run's sequence
    // ledger is indistinguishable from the event-per-hop run's.
    EXPECT_EQ(fused_at, 13u);
    EXPECT_EQ(seq_after, seq_before + 1);
    EXPECT_EQ(q.now(), 13u);
    EXPECT_EQ(q.fusedHops(), 1u);
    EXPECT_EQ(q.executed(), 1u); // only the real event counts
}

/** Counts the refusals billed to a parked slot. */
struct CountingSink : ParkedSlotSink
{
    void slotsRefused(uint64_t n) override { refusals += n; }
    uint64_t refusals = 0;
};

// Fusion would reorder execution if any pending event were due at or
// before the hop's tick, so those cases must fall back — including
// the exact-tie, where the elided event's later seq would still have
// ordered it last. Strictly-later pending work is safe. The earliest
// pending key may be a lane head or a fallback-heap key; here it is
// a lane head, with a woken slot (a heap key) pending after it.
TEST(EventQueueFusion, RefusesUnlessLaneTopStrictlyLater)
{
    EventQueue q;
    CountingSink sink;
    ParkHandle slot;
    bool other_ran = false;
    bool woken_ran = false;
    q.schedule(12, [&] { other_ran = true; });
    q.schedule(1, [&] {
        slot = q.park(29, sink); // reserves tick 30
        q.wake(slot, [&] { woken_ran = true; });
    });
    q.schedule(10, [&] {
        EXPECT_FALSE(q.tryFuseAdvance(3)); // 13 past the top (12)
        EXPECT_FALSE(q.tryFuseAdvance(2)); // 12 ties the top
        EXPECT_TRUE(q.tryFuseAdvance(1));  // 11 strictly earlier
        EXPECT_EQ(q.now(), 11u);
    });
    q.run();
    EXPECT_TRUE(other_ran);
    EXPECT_TRUE(woken_ran);
    EXPECT_EQ(q.fusedHops(), 1u);
    EXPECT_EQ(sink.refusals, 0u);
}

// The same admission test with the earliest pending key a woken
// parked slot: its reserved seq is older than the keys pushed since,
// so it waits in the fallback heap, and a lane head (tick 30) is
// pending after it.
TEST(EventQueueFusion, RefusesUnlessWokenSlotStrictlyLater)
{
    EventQueue q;
    CountingSink sink;
    ParkHandle slot;
    bool other_ran = false;
    bool woken_ran = false;
    q.schedule(30, [&] { other_ran = true; });
    q.schedule(1, [&] { slot = q.park(11, sink); }); // reserves 12
    q.schedule(10, [&] {
        q.wake(slot, [&] { woken_ran = true; });
        EXPECT_FALSE(q.tryFuseAdvance(3)); // 13 past the top (12)
        EXPECT_FALSE(q.tryFuseAdvance(2)); // 12 ties the top
        EXPECT_TRUE(q.tryFuseAdvance(1));  // 11 strictly earlier
        EXPECT_EQ(q.now(), 11u);
    });
    q.run();
    EXPECT_TRUE(other_ran);
    EXPECT_TRUE(woken_ran);
    EXPECT_EQ(q.fusedHops(), 1u);
    EXPECT_EQ(sink.refusals, 0u);
}

TEST(EventQueueFusion, RuntimeKnobDisablesAndReenables)
{
    EventQueue q;
    int fused = 0;
    q.setFusionEnabled(false);
    q.schedule(10, [&] { fused += q.tryFuseAdvance(1) ? 1 : 0; });
    q.schedule(20, [&] {
        q.setFusionEnabled(true);
        fused += q.tryFuseAdvance(1) ? 1 : 0;
    });
    q.run();
    EXPECT_EQ(fused, 1);
    EXPECT_EQ(q.fusedHops(), 1u);
}

// End-to-end ledger parity: a chain run with fusion (fall back when
// refused) must land on the same final now() and scheduledSeq() as
// the same chain run event-per-hop — the property the full-system
// golden tests check through RunResults and stat bytes.
TEST(EventQueueFusion, ChainLedgerMatchesEventPerHop)
{
    auto drive = [](EventQueue &q, bool use_fusion) {
        q.setFusionEnabled(use_fusion);
        std::function<void(int)> hop = [&](int left) {
            if (left == 0)
                return;
            if (q.tryFuseAdvance(7)) {
                hop(left - 1); // synchronous continuation
                return;
            }
            q.scheduleAfter(7, [&hop, left] { hop(left - 1); });
        };
        q.schedule(1, [&hop] { hop(16); });
        // A cross-cutting event mid-chain forces at least one
        // fallback in the fused run.
        q.schedule(50, [] {});
        q.run();
        return std::pair(q.now(), q.scheduledSeq());
    };
    EventQueue fused;
    EventQueue perhop;
    const auto a = drive(fused, true);
    const auto b = drive(perhop, false);
    EXPECT_EQ(a, b);
    EXPECT_EQ(perhop.fusedHops(), 0u);
    EXPECT_GT(fused.fusedHops(), 0u);
    EXPECT_EQ(perhop.executed(), fused.executed() + fused.fusedHops());
}

// ---- Parked slots -------------------------------------------------------

TEST(EventQueueFastForward, RefusedSlotsBeforeCountsStrictlyEarlierSlots)
{
    constexpr Tick Now = 100;
    constexpr Tick Gap = 7;
    EXPECT_EQ(refusedSlotsBefore(Now, Now - 1, Gap), 0u);
    EXPECT_EQ(refusedSlotsBefore(Now, Now, Gap), 0u); // no underflow
    EXPECT_EQ(refusedSlotsBefore(Now, Now + 1, Gap), 0u);
    EXPECT_EQ(refusedSlotsBefore(Now, Now + Gap, Gap), 0u); // the tie
    EXPECT_EQ(refusedSlotsBefore(Now, Now + Gap + 1, Gap), 1u);
    EXPECT_EQ(refusedSlotsBefore(Now, Now + 5 * Gap, Gap), 4u);
    EXPECT_EQ(refusedSlotsBefore(Now, Now + 5 * Gap + 3, Gap), 5u);
}

/**
 * A miniature of System's arrival loop: a retry every `gap` ticks is
 * refused while the resource is busy. The per-slot leg re-arms after
 * each refusal, which is the schedule parking must reproduce; the
 * parked leg parks instead, and release() wakes the slot, as
 * System::packetDone does.
 */
class RetryLoop : public ParkedSlotSink
{
  public:
    RetryLoop(EventQueue &q, bool parked, Tick gap)
        : _q(q), _parked(parked), _gap(gap)
    {}
    RetryLoop(const RetryLoop &) = delete;
    RetryLoop &operator=(const RetryLoop &) = delete;

    void slotsRefused(uint64_t n) override { refusals += n; }

    /** One arrival slot. */
    void
    fire()
    {
        if (!_busy) {
            admittedAt = _q.now();
            seqAtAdmission = _q.scheduledSeq();
            _q.scheduleAfter(3, [] {}); // the admitted work
            return;
        }
        ++refusals;
        if (_parked)
            _slot = _q.park(_gap, *this);
        else
            _q.scheduleAfter(_gap, [this] { fire(); });
    }

    /** Frees the resource: a parked slot fires at its own key. */
    void
    release()
    {
        _busy = false;
        _q.wake(_slot, [this] { fire(); });
    }

    uint64_t refusals = 0;
    Tick admittedAt = 0;
    uint64_t seqAtAdmission = 0;

  private:
    EventQueue &_q;
    bool _parked;
    Tick _gap;
    bool _busy = true;
    ParkHandle _slot;
};

/** What one retry loop observed (see driveRetry). */
struct RetryOutcome
{
    Tick admittedAt = 0;
    uint64_t seqAtAdmission = 0;
    uint64_t refusals = 0;
    uint64_t finalSeq = 0;
    uint64_t executed = 0;

    bool
    sameSchedule(const RetryOutcome &o) const
    {
        return admittedAt == o.admittedAt &&
               seqAtAdmission == o.seqAtAdmission &&
               refusals == o.refusals && finalSeq == o.finalSeq;
    }
};

/**
 * Retries from tick 1 every `gap` ticks until a release event at
 * `release_at` frees the resource, per slot or parked.
 */
RetryOutcome
driveRetry(bool parked, Tick gap, Tick release_at)
{
    EventQueue q;
    RetryLoop loop(q, parked, gap);
    q.schedule(release_at, [&loop] { loop.release(); });
    q.schedule(1, [&loop] { loop.fire(); });
    q.run();
    RetryOutcome out;
    out.admittedAt = loop.admittedAt;
    out.seqAtAdmission = loop.seqAtAdmission;
    out.refusals = loop.refusals;
    out.finalSeq = q.scheduledSeq();
    out.executed = q.executed();
    return out;
}

// Slots reached while parked burn the seqs their re-arms would have
// taken, so the woken slot fires at the chain's tick with its seq.
TEST(EventQueueFastForward, ParkedSlotBurnsTheSeqsOfAChainOfReArms)
{
    constexpr uint64_t N = 11;
    constexpr Tick Gap = 7;
    // Slots 1, 1 + Gap, ..., 1 + N * Gap are refused; the release
    // falls between slot N and slot N + 1.
    const RetryOutcome parked =
        driveRetry(true, Gap, 1 + N * Gap + 3);
    EXPECT_EQ(parked.refusals, N + 1);
    EXPECT_EQ(parked.admittedAt, 1 + (N + 1) * Gap);
    // Seqs: the release, the first retry, then one per re-arm.
    EXPECT_EQ(parked.seqAtAdmission, N + 3);
    // The first retry, the release, the woken slot, the admitted work.
    EXPECT_EQ(parked.executed, 4u);
}

// Ties included (release on a slot tick, where the release's older
// seq orders it first): the parked loop admits at the same tick with
// the same seq ledger, and dispatches fewer events whenever it was
// refused more than once.
TEST(EventQueueFastForward, RetryScheduleMatchesPerSlotLoop)
{
    constexpr Tick Gap = 7;
    for (const Tick release : {1u, 2u, 8u, 15u, 16u, 22u, 100u, 701u}) {
        SCOPED_TRACE("release " + std::to_string(release));
        const RetryOutcome per_slot = driveRetry(false, Gap, release);
        const RetryOutcome parked = driveRetry(true, Gap, release);
        EXPECT_TRUE(parked.sameSchedule(per_slot))
            << "admitted " << parked.admittedAt << " vs "
            << per_slot.admittedAt << ", refusals " << parked.refusals
            << " vs " << per_slot.refusals;
        EXPECT_LE(parked.executed, per_slot.executed);
        if (per_slot.refusals > 1) {
            EXPECT_LT(parked.executed, per_slot.executed);
        }
    }
}

/** (now, scheduledSeq, refusals...) at each observation point. */
using Observations = std::vector<std::vector<uint64_t>>;

/** One leg of a scenario: what it observed, and its dispatches. */
struct ScenarioLeg
{
    Observations seen;
    uint64_t executed = 0;
    uint64_t fusedHops = 0;
};

/**
 * Runs `setup` (which schedules the scenario's events on the queue
 * and its retry loops) per slot and parked; every observation, the
 * drops billed by then included, must agree.
 */
void
expectParkedMatchesPerSlot(
    const std::vector<Tick> &gaps,
    const std::function<void(EventQueue &, std::deque<RetryLoop> &,
                             const std::function<void()> &)> &setup,
    bool expect_fusion = false)
{
    ScenarioLeg legs[2];
    for (const bool parked : {false, true}) {
        EventQueue q;
        std::deque<RetryLoop> loops;
        for (const Tick gap : gaps)
            loops.emplace_back(q, parked, gap);
        ScenarioLeg &leg = legs[parked];
        const std::function<void()> observe = [&] {
            std::vector<uint64_t> row{q.now(), q.scheduledSeq()};
            for (const RetryLoop &loop : loops)
                row.push_back(loop.refusals);
            leg.seen.push_back(std::move(row));
        };
        setup(q, loops, observe);
        observe();
        for (const RetryLoop &loop : loops) {
            leg.seen.push_back({loop.admittedAt, loop.seqAtAdmission,
                                loop.refusals});
        }
        leg.executed = q.executed();
        leg.fusedHops = q.fusedHops();
    }
    EXPECT_EQ(legs[1].seen, legs[0].seen);
    EXPECT_LT(legs[1].executed, legs[0].executed);
    if (expect_fusion) {
        EXPECT_GT(legs[1].fusedHops, legs[0].fusedHops);
    }
}

// A fused hop passes parked slots: the ones its event would have
// followed are billed first. At a tie the slot goes first only when
// its re-arm was made before the hop was issued.
TEST(EventQueueParking, FusedHopPassesParkedSlots)
{
    expectParkedMatchesPerSlot(
        {7},
        [](EventQueue &q, std::deque<RetryLoop> &loops,
           const std::function<void()> &observe) {
            RetryLoop &loop = loops[0];
            // Slots at 1, 8, 15, 22, 29, 36, ...
            auto hop = [&q](Tick delay, auto next) {
                if (q.tryFuseAdvance(delay)) {
                    next();
                    return;
                }
                q.scheduleAfter(delay, next);
            };
            q.schedule(100, [&loop] { loop.release(); });
            q.schedule(1, [&loop] { loop.fire(); });
            q.schedule(10, [&q, &observe, hop] {
                observe();
                // 10 -> 22 passes slot 15 and ties slot 22, whose
                // re-arm (made at 15) orders after the hop.
                hop(12, [&q, &observe, hop] {
                    observe();
                    // 22 -> 25 passes slot 22 itself.
                    hop(3, [&q, &observe, hop] {
                        observe();
                        // 25 -> 29 ties slot 29, whose re-arm (made
                        // at 22) orders first.
                        hop(4, [&q, &observe] {
                            observe();
                            q.scheduleAfter(1, [&observe] { observe(); });
                        });
                    });
                });
            });
            q.run();
        },
        /*expect_fusion=*/true);
}

// Two parked loops with different gaps interleave their refusals in
// key order, each bounded by the other's next slot. Released together
// just before their slots meet, both woken slots fire on one tick in
// the order of the seqs their re-arms reserved, which the admission
// seqs show. From 1 and 3 (gaps 7 and 5) the slots meet at 43, 78,
// ...; from 3 and 1 at 31, 66, ..., where the loop that parked first
// re-arms last. A release scheduled one tick ahead of its tick
// (`late`) orders after the slot re-armed before it.
TEST(EventQueueParking, TwoParkedLoopsWithDifferentGaps)
{
    const struct
    {
        Tick startA, startB;
        Tick releaseA, releaseB;
        bool lateB;
    } cases[] = {{1, 3, 200, 123, true},
                 {1, 3, 40, 40, false},
                 {1, 3, 78, 78, false},
                 {3, 1, 28, 28, false}};
    for (const auto &c : cases) {
        SCOPED_TRACE("starts " + std::to_string(c.startA) + ", " +
                     std::to_string(c.startB) + " releases " +
                     std::to_string(c.releaseA) + ", " +
                     std::to_string(c.releaseB));
        expectParkedMatchesPerSlot(
            {7, 5}, [&c](EventQueue &q, std::deque<RetryLoop> &loops,
                         const std::function<void()> &observe) {
                RetryLoop &a = loops[0];
                RetryLoop &b = loops[1];
                if (c.lateB) {
                    q.schedule(c.releaseB - 1, [&q, &b] {
                        q.scheduleAfter(1, [&b] { b.release(); });
                    });
                } else {
                    q.schedule(c.releaseB, [&b] { b.release(); });
                }
                q.schedule(c.releaseA, [&a] { a.release(); });
                q.schedule(c.startA, [&a] { a.fire(); });
                q.schedule(c.startB, [&b] { b.fire(); });
                for (const Tick t : {31u, 43u, 60u, 78u, 150u})
                    q.schedule(t, [&observe] { observe(); });
                q.run();
            });
    }
}

// A parked slot with nothing else pending can never be woken: the
// per-slot loop would retry forever, the kernel panics instead.
TEST(EventQueueFastForwardDeathTest, RefusalWithNothingPendingPanics)
{
    EXPECT_DEATH(
        {
            EventQueue q;
            RetryLoop loop(q, /*parked=*/true, 7);
            q.schedule(1, [&loop] { loop.fire(); });
            q.run();
        },
        "nothing pending");
}

// ---- Delay lanes -------------------------------------------------------

// A lane ring that fills while its head is mid-ring grows and keeps
// its FIFO order: the last of 101 keys of one delay pushes 1000 more
// of it, so the ring's head sits where the first 101 left it and its
// tail wraps past the head before the ring grows.
TEST(EventQueueLanes, RingGrowsWhileItsHeadIsMidRing)
{
    EventQueue q;
    std::vector<int> order;
    int next_id = 0;
    auto push = [&](int count) {
        for (int i = 0; i < count; ++i) {
            const int id = next_id++;
            q.scheduleAfter(10, [&order, id] { order.push_back(id); });
        }
    };
    push(100);
    q.scheduleAfter(10, [&] {
        order.push_back(-1);
        push(1000);
    });
    q.run();
    std::vector<int> expected;
    for (int id = 0; id < 100; ++id)
        expected.push_back(id);
    expected.push_back(-1);
    for (int id = 100; id < 1100; ++id)
        expected.push_back(id);
    EXPECT_EQ(order, expected);
    EXPECT_EQ(q.now(), 20u);
}

/**
 * The reference kernel: every pending key in one ordered map, with
 * no lanes, no heap and no catch-up. A parked slot is a real entry
 * that bills one refusal and re-arms itself (the event-per-slot
 * schedule) without counting as executed or moving now(); wake()
 * turns it into an event at its key.
 */
class ReferenceQueue
{
  public:
    /** 1 + the parked slot's index; 0 names none. */
    using Handle = uint32_t;

    Tick now() const { return _now; }
    uint64_t executed() const { return _executed; }
    uint64_t scheduledSeq() const { return _nextSeq; }
    uint64_t fusedHops() const { return _fusedHops; }
    void setFusionEnabled(bool on) { _fusionEnabled = on; }

    void
    schedule(Tick when, std::function<void()> fn)
    {
        _pending[{when, ++_nextSeq}] = Entry{std::move(fn), 0};
    }

    void
    scheduleAfter(Tick delay, std::function<void()> fn)
    {
        schedule(_now + delay, std::move(fn));
    }

    Handle
    park(Tick gap, ParkedSlotSink &sink)
    {
        const Key key{_now + gap, ++_nextSeq};
        _slots.push_back(Slot{key, gap, &sink});
        _pending[key] = Entry{nullptr, static_cast<Handle>(_slots.size())};
        ++_parked;
        return static_cast<Handle>(_slots.size());
    }

    void
    wake(Handle &slot, std::function<void()> fn)
    {
        ASSERT_NE(slot, 0u);
        _pending[_slots[slot - 1].key] = Entry{std::move(fn), 0};
        slot = 0;
        --_parked;
    }

    bool
    tryFuseAdvance(Tick delay)
    {
        if (!_fusionEnabled || !_inRun)
            return false;
        const Tick when = _now + delay;
        for (const auto &[key, entry] : _pending) {
            if (entry.slot == 0) {
                if (key.first <= when)
                    return false;
                break;
            }
        }
        const Key stop{when, ++_nextSeq};
        ++_fusedHops;
        while (!_pending.empty() && _pending.begin()->first < stop)
            refuseFirst();
        _now = when;
        return true;
    }

    void
    run()
    {
        _inRun = true;
        while (!_pending.empty()) {
            if (_pending.begin()->second.slot != 0) {
                if (_parked == _pending.size()) {
                    ADD_FAILURE() << "a parked slot with nothing pending";
                    break;
                }
                refuseFirst();
                continue;
            }
            auto first = _pending.begin();
            const std::function<void()> fn = std::move(first->second.fn);
            _now = first->first.first;
            _pending.erase(first);
            ++_executed;
            fn();
        }
        _inRun = false;
    }

  private:
    using Key = std::pair<Tick, uint64_t>;

    /** An event, or (slot != 0) a parked slot's next refusal. */
    struct Entry
    {
        std::function<void()> fn;
        Handle slot;
    };

    struct Slot
    {
        Key key;
        Tick gap;
        ParkedSlotSink *sink;
    };

    /** Bills the first entry, a parked slot, one refusal and re-arms
     *  it at its next slot tick with the next seq. */
    void
    refuseFirst()
    {
        auto first = _pending.begin();
        Slot &slot = _slots[first->second.slot - 1];
        Entry entry = std::move(first->second);
        _pending.erase(first);
        slot.key = Key{slot.key.first + slot.gap, ++_nextSeq};
        slot.sink->slotsRefused(1);
        _pending[slot.key] = std::move(entry);
    }

    std::map<Key, Entry> _pending;
    std::vector<Slot> _slots;
    size_t _parked = 0;
    Tick _now = 0;
    uint64_t _nextSeq = 0;
    uint64_t _executed = 0;
    uint64_t _fusedHops = 0;
    bool _inRun = false;
    bool _fusionEnabled = true;
};

/** Delays drawn by weight. */
struct DelayMix
{
    std::vector<std::pair<Tick, unsigned>> weighted;

    Tick
    draw(uint64_t r) const
    {
        unsigned total = 0;
        for (const auto &w : weighted)
            total += w.second;
        unsigned pick = static_cast<unsigned>(r % total);
        for (const auto &[delay, weight] : weighted) {
            if (pick < weight)
                return delay;
            pick -= weight;
        }
        return weighted.back().first;
    }
};

/**
 * What a random schedule made of the 450 ns PCIe hop, the 2 ns hit,
 * the 100 ns access chain and the 61.68 ns slot, as hit_path pushes
 * them (52/30/9/9%).
 */
DelayMix
e2eMix()
{
    return DelayMix{{{450000, 52}, {2000, 30}, {100000, 9}, {61680, 9}}};
}

/**
 * The e2e mix plus zero delays and 40 more distinct delays: more
 * delays than the lane table has slots, so some share a slot
 * whatever the hash, and pushes take the fallback heap.
 */
DelayMix
collidingMix()
{
    DelayMix mix = e2eMix();
    mix.weighted.push_back({0, 5});
    for (Tick d = 1; d <= 40; ++d)
        mix.weighted.push_back({d * 977 + (d % 3) * 61680, 2});
    return mix;
}

/** One refusal loop of a random schedule. */
template <typename Handle>
struct Loop : CountingSink
{
    bool parked = false;
    Handle handle{};
};

/**
 * A seeded random schedule, driven the same way through either
 * kernel: events spawn events over `mix`, end in a fused hop or its
 * fallback event, schedule at absolute ticks, and park retry loops
 * that a later event wakes. Every event records (now, seq, executed,
 * fused hops, refusals) as it runs; two kernels that agree on every
 * row ran the same schedule.
 */
template <typename Q>
class RandomSchedule
{
  public:
    using Handle = decltype(std::declval<Q &>().park(1, std::declval<
                                                         ParkedSlotSink &>()));

    RandomSchedule(Q &q, uint64_t seed, const DelayMix &mix,
                   uint64_t budget)
        : _q(q), _state(seed * 0x9E3779B97F4A7C15ull | 1), _mix(mix),
          _budget(budget)
    {}

    std::vector<std::array<uint64_t, 7>>
    run(unsigned initial)
    {
        for (unsigned i = 0; i < initial; ++i) {
            if (next() % 2)
                _q.scheduleAfter(delay(), [this] { body(0); });
            else
                _q.schedule(next() % 500000, [this] { body(0); });
        }
        _q.run();
        observe();
        return _rows;
    }

  private:
    uint64_t
    next()
    {
        _state ^= _state >> 12;
        _state ^= _state << 25;
        _state ^= _state >> 27;
        return (_state * 0x2545f4914f6cdd1dULL) >> 11;
    }

    Tick delay() { return _mix.draw(next()); }

    void
    observe()
    {
        _rows.push_back({_q.now(), _q.scheduledSeq(), _q.executed(),
                         _q.fusedHops(), _loops[0].refusals,
                         _loops[1].refusals, _rows.size()});
    }

    void
    body(unsigned depth)
    {
        observe();
        if (_budget == 0)
            return;
        --_budget;
        for (uint64_t n = next() % 3; n > 0; --n)
            _q.scheduleAfter(delay(), [this] { body(0); });
        if (next() % 8 == 0)
            _q.schedule(_q.now() + delay(), [this] { body(0); });
        Loop<Handle> &loop = _loops[next() % 2];
        if (!loop.parked && next() % 16 == 0) {
            constexpr Tick Gaps[] = {997, 7000, 61680};
            loop.parked = true;
            loop.handle = _q.park(Gaps[next() % 3], loop);
            // The event that ends the refusals.
            _q.scheduleAfter(delay() + next() % 300000, [this, &loop] {
                loop.parked = false;
                _q.wake(loop.handle, [this] { body(0); });
                observe();
            });
        }
        if (next() % 3 == 0)
            return;
        // Tail position: fuse the last hop, or fall back to its event.
        // Half the hops are the 2 ns hit, the one that fuses most.
        const Tick d = next() % 2 ? delay() : 2000;
        if (depth < 8 && _q.tryFuseAdvance(d)) {
            body(depth + 1);
            return;
        }
        _q.scheduleAfter(d, [this] { body(0); });
    }

    Q &_q;
    uint64_t _state;
    const DelayMix &_mix;
    uint64_t _budget;
    std::array<Loop<Handle>, 2> _loops;
    std::vector<std::array<uint64_t, 7>> _rows;
};

// Seeded random schedules run through the kernel and through a
// reference that keeps every key in one ordered map: both must
// execute the same events in the same order, at the same ticks, with
// the same seq ledger, dispatch and fused-hop counts and the same
// refusals billed. The mixes take the lane path (the e2e delays),
// the fallback heap (more delays than lanes, zero delays, absolute
// ticks, woken slots) and both at once.
TEST(EventQueueLanes, MatchesReferenceOnRandomSchedules)
{
    const DelayMix mixes[] = {e2eMix(), collidingMix()};
    for (uint64_t seed = 1; seed <= 24; ++seed) {
        for (const DelayMix &mix : mixes) {
            const bool fusion = seed % 4 != 0;
            SCOPED_TRACE("seed " + std::to_string(seed) + ", " +
                         std::to_string(mix.weighted.size()) +
                         " delays, fusion " + (fusion ? "on" : "off"));
            EventQueue q;
            ReferenceQueue ref;
            q.setFusionEnabled(fusion);
            ref.setFusionEnabled(fusion);
            // 4 to 64 events in flight: a shallow queue fuses more.
            const unsigned depth = 4 << (seed % 5);
            const auto got =
                RandomSchedule<EventQueue>(q, seed, mix, 3000).run(depth);
            const auto want =
                RandomSchedule<ReferenceQueue>(ref, seed, mix, 3000)
                    .run(depth);
            ASSERT_EQ(got.size(), want.size());
            for (size_t i = 0; i < got.size(); ++i)
                ASSERT_EQ(got[i], want[i]) << "row " << i;
            EXPECT_EQ(q.scheduledSeq(), ref.scheduledSeq());
            EXPECT_EQ(q.executed(), ref.executed());
            EXPECT_EQ(q.fusedHops(), ref.fusedHops());
            if (fusion) {
                EXPECT_GT(q.fusedHops(), 0u);
            }
        }
    }
}

} // namespace
} // namespace hypersio::sim
