/** Unit tests for the discrete-event simulation kernel. */

#include <gtest/gtest.h>

#include <array>
#include <functional>
#include <string>
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

TEST(EventQueue, SameTickOrderedByPriorityThenInsertion)
{
    EventQueue q;
    std::vector<int> order;
    q.schedule(5, [&] { order.push_back(2); }, DefaultPriority);
    q.schedule(5, [&] { order.push_back(3); }, LatePriority);
    q.schedule(5, [&] { order.push_back(1); }, EarlyPriority);
    q.schedule(5, [&] { order.push_back(21); }, DefaultPriority);
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

TEST(EventQueue, EventsCanScheduleMoreEvents)
{
    EventQueue q;
    int count = 0;
    std::function<void()> chain = [&] {
        if (++count < 10)
            q.scheduleAfter(1, chain);
    };
    q.schedule(0, chain);
    q.run();
    EXPECT_EQ(count, 10);
    EXPECT_EQ(q.now(), 9u);
}

TEST(EventQueue, CancelPreventsExecution)
{
    EventQueue q;
    bool ran = false;
    EventHandle h = q.schedule(10, [&] { ran = true; });
    EXPECT_TRUE(q.cancel(h));
    EXPECT_FALSE(q.cancel(h)); // second cancel is a no-op
    q.run();
    EXPECT_FALSE(ran);
    EXPECT_EQ(q.executed(), 0u);
}

TEST(EventQueue, CancelOneOfMany)
{
    EventQueue q;
    std::vector<int> order;
    q.schedule(1, [&] { order.push_back(1); });
    EventHandle h = q.schedule(2, [&] { order.push_back(2); });
    q.schedule(3, [&] { order.push_back(3); });
    q.cancel(h);
    q.run();
    EXPECT_EQ(order, (std::vector<int>{1, 3}));
}

TEST(EventQueue, RunWithLimitStopsEarly)
{
    EventQueue q;
    int count = 0;
    q.schedule(10, [&] { ++count; });
    q.schedule(20, [&] { ++count; });
    q.run(15);
    EXPECT_EQ(count, 1);
    EXPECT_EQ(q.now(), 15u);
    q.run();
    EXPECT_EQ(count, 2);
}

TEST(EventQueue, StepExecutesExactlyOne)
{
    EventQueue q;
    int count = 0;
    q.schedule(1, [&] { ++count; });
    q.schedule(2, [&] { ++count; });
    EXPECT_TRUE(q.step());
    EXPECT_EQ(count, 1);
    EXPECT_TRUE(q.step());
    EXPECT_FALSE(q.step());
    EXPECT_EQ(count, 2);
}

TEST(EventQueue, PendingTracksLiveEvents)
{
    EventQueue q;
    EXPECT_TRUE(q.empty());
    EventHandle a = q.schedule(1, [] {});
    q.schedule(2, [] {});
    EXPECT_EQ(q.pending(), 2u);
    q.cancel(a);
    EXPECT_EQ(q.pending(), 1u);
    q.run();
    EXPECT_TRUE(q.empty());
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

TEST(EventHandle, DefaultIsInvalid)
{
    EventHandle h;
    EXPECT_FALSE(h.valid());
    EventQueue q;
    EXPECT_FALSE(q.cancel(h));
}

// Regression: cancelling an event after it fired must be a detected
// no-op. The pre-slab kernel tombstoned the dead id forever, so its
// pending() underflowed and empty() lied.
TEST(EventQueue, CancelAfterFireReturnsFalse)
{
    EventQueue q;
    int fired = 0;
    EventHandle h = q.schedule(10, [&] { ++fired; });
    q.run();
    EXPECT_EQ(fired, 1);
    EXPECT_FALSE(q.cancel(h));
    EXPECT_EQ(q.pending(), 0u);
    EXPECT_TRUE(q.empty());

    // The queue must remain fully usable after the late cancel.
    q.scheduleAfter(1, [&] { ++fired; });
    EXPECT_EQ(q.pending(), 1u);
    q.run();
    EXPECT_EQ(fired, 2);
    EXPECT_TRUE(q.empty());
}

// A handle must die with its event even when the slot is recycled:
// a stale cancel may not hit the new occupant.
TEST(EventQueue, StaleHandleMissesRecycledSlot)
{
    EventQueue q;
    EventHandle old = q.schedule(1, [] {});
    q.run();
    // The new event reuses the fired event's slab slot.
    bool ran = false;
    q.scheduleAfter(1, [&] { ran = true; });
    EXPECT_FALSE(q.cancel(old));
    EXPECT_EQ(q.pending(), 1u);
    q.run();
    EXPECT_TRUE(ran);
}

TEST(EventQueue, SameTickOrderSurvivesInterleavedCancels)
{
    EventQueue q;
    std::vector<int> order;
    q.schedule(5, [&] { order.push_back(2); }, DefaultPriority);
    EventHandle a =
        q.schedule(5, [&] { order.push_back(9); }, EarlyPriority);
    q.schedule(5, [&] { order.push_back(3); }, LatePriority);
    q.schedule(5, [&] { order.push_back(1); }, EarlyPriority);
    EventHandle b =
        q.schedule(5, [&] { order.push_back(9); }, DefaultPriority);
    q.schedule(5, [&] { order.push_back(21); }, DefaultPriority);
    EXPECT_TRUE(q.cancel(a));
    EXPECT_TRUE(q.cancel(b));
    q.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 21, 3}));
}

TEST(EventQueue, RunLimitBoundaryIsInclusive)
{
    EventQueue q;
    std::vector<int> order;
    q.schedule(10, [&] { order.push_back(10); });
    q.schedule(15, [&] { order.push_back(15); });
    q.schedule(16, [&] { order.push_back(16); });
    // Events at exactly the limit tick still run.
    q.run(15);
    EXPECT_EQ(order, (std::vector<int>{10, 15}));
    EXPECT_EQ(q.now(), 15u);
    EXPECT_EQ(q.pending(), 1u);
    q.run();
    EXPECT_EQ(order, (std::vector<int>{10, 15, 16}));
}

// Steady-state churn must recycle slab slots, not grow the pool:
// the high-water mark tracks the peak number of in-flight events,
// not the total scheduled.
TEST(EventQueue, SlabRecyclesUnderChurn)
{
    EventQueue q;
    uint64_t fired = 0;
    for (int round = 0; round < 1000; ++round) {
        EventHandle keep = q.scheduleAfter(1, [&] { ++fired; });
        EventHandle drop = q.scheduleAfter(2, [&] { ++fired; });
        if (round % 2 == 0) {
            EXPECT_TRUE(q.cancel(drop));
        } else {
            (void)keep;
        }
        q.run(q.now() + 2);
    }
    EXPECT_EQ(fired, 1000u + 500u);
    EXPECT_TRUE(q.empty());
    // Two live events max; one chunk of records is ample.
    EXPECT_LE(q.poolCapacity(), 8u);
}

/** Counts constructions/destructions of callback captures. */
struct LifeCounter
{
    static int alive;
    LifeCounter() { ++alive; }
    LifeCounter(const LifeCounter &) { ++alive; }
    LifeCounter(LifeCounter &&) noexcept { ++alive; }
    ~LifeCounter() { --alive; }
};
int LifeCounter::alive = 0;

TEST(EventQueue, SmallClosureStaysInlineAndIsDestroyed)
{
    LifeCounter::alive = 0;
    {
        EventQueue q;
        bool ran = false;
        LifeCounter c;
        static_assert(sizeof(bool *) + sizeof(LifeCounter) <=
                      EventQueue::CallbackInlineSize);
        q.schedule(1, [&ran, c] { ran = true; });
        q.run();
        EXPECT_TRUE(ran);
    }
    EXPECT_EQ(LifeCounter::alive, 0);
}

TEST(EventQueue, LargeClosureFallsBackToHeapAndIsDestroyed)
{
    LifeCounter::alive = 0;
    {
        EventQueue q;
        uint64_t sum = 0;
        std::array<uint64_t, 16> payload{};
        payload.fill(3);
        LifeCounter c;
        static_assert(sizeof(payload) >
                      EventQueue::CallbackInlineSize);
        q.schedule(1, [&sum, payload, c] {
            for (uint64_t v : payload)
                sum += v;
        });
        q.run();
        EXPECT_EQ(sum, 48u);

        // Cancelled oversized closures free their heap copy too.
        EventHandle h = q.scheduleAfter(1, [&sum, payload, c] {
            sum += payload[0];
        });
        EXPECT_TRUE(q.cancel(h));
        q.run();
        EXPECT_EQ(sum, 48u);
    }
    EXPECT_EQ(LifeCounter::alive, 0);
}

// Destroying a queue with events still scheduled must release every
// callback, inline and heap-allocated alike.
TEST(EventQueue, DestructorReleasesUnfiredCallbacks)
{
    LifeCounter::alive = 0;
    {
        EventQueue q;
        LifeCounter c;
        std::array<uint64_t, 16> fat{};
        q.schedule(5, [c] {});
        q.schedule(6, [c, fat] { (void)fat[0]; });
    }
    EXPECT_EQ(LifeCounter::alive, 0);
}

TEST(EventQueue, StepRefusesToRunPastCancelledTop)
{
    EventQueue q;
    int count = 0;
    EventHandle a = q.schedule(1, [&] { ++count; });
    q.schedule(2, [&] { ++count; });
    EXPECT_TRUE(q.cancel(a));
    EXPECT_TRUE(q.step()); // skips the tombstone, runs tick 2
    EXPECT_EQ(count, 1);
    EXPECT_EQ(q.now(), 2u);
    EXPECT_FALSE(q.step());
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

// The fast path must refuse outside run(): manual drivers (step(),
// direct calls between runs) rely on every hop being a real event.
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
    // The elided event's tick and its slot in the (tick, priority,
    // seq) total order are both preserved, so a fused run's sequence
    // ledger is indistinguishable from the event-per-hop run's.
    EXPECT_EQ(fused_at, 13u);
    EXPECT_EQ(seq_after, seq_before + 1);
    EXPECT_EQ(q.now(), 13u);
    EXPECT_EQ(q.fusedHops(), 1u);
    EXPECT_EQ(q.executed(), 1u); // only the real event counts
}

// Fusion would reorder execution if any pending event were due at or
// before the hop's tick, so those cases must fall back — including
// the exact-tie, where the elided event's later seq would still have
// ordered it last. Strictly-later pending work is safe.
TEST(EventQueueFusion, RefusesUnlessHeapTopStrictlyLater)
{
    EventQueue q;
    bool other_ran = false;
    q.schedule(12, [&] { other_ran = true; });
    q.schedule(10, [&] {
        EXPECT_FALSE(q.tryFuseAdvance(3)); // 13 past the top (12)
        EXPECT_FALSE(q.tryFuseAdvance(2)); // 12 ties the top
        EXPECT_TRUE(q.tryFuseAdvance(1));  // 11 strictly earlier
        EXPECT_EQ(q.now(), 11u);
    });
    q.run();
    EXPECT_TRUE(other_ran);
    EXPECT_EQ(q.fusedHops(), 1u);
}

// A tombstoned top refuses fusion too: the cancelled key may hide a
// later live event, and skipping fusion is the safe direction.
TEST(EventQueueFusion, RefusesOnTombstonedTop)
{
    EventQueue q;
    EventHandle dead = q.schedule(12, [] {});
    q.schedule(10, [&] { EXPECT_FALSE(q.tryFuseAdvance(2)); });
    EXPECT_TRUE(q.cancel(dead));
    q.run();
    EXPECT_EQ(q.fusedHops(), 0u);
}

// run(limit) leaves past-limit events pending; a fused hop past the
// limit would instead execute its continuation, so it must refuse.
TEST(EventQueueFusion, RefusesPastRunLimit)
{
    EventQueue q;
    q.schedule(10, [&] {
        EXPECT_FALSE(q.tryFuseAdvance(6)); // 16 past the limit
        EXPECT_TRUE(q.tryFuseAdvance(5));  // 15 exactly the limit
    });
    q.run(15);
    EXPECT_EQ(q.now(), 15u);
    EXPECT_EQ(q.fusedHops(), 1u);
}

TEST(EventQueueFusion, RuntimeKnobDisablesAndReenables)
{
    EventQueue q;
    int fused = 0;
    q.setFusionEnabled(false);
    EXPECT_FALSE(q.fusionEnabled());
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

// ---- Refused-slot fast-forward primitives ------------------------------

TEST(EventQueueFastForward, NextTickIsMaxTickWhenEmpty)
{
    EventQueue q;
    EXPECT_EQ(q.nextTick(), MaxTick);
    q.schedule(9, [] {});
    q.schedule(4, [] {});
    EXPECT_EQ(q.nextTick(), 4u);
    q.run();
    EXPECT_EQ(q.nextTick(), MaxTick);
}

// A tombstoned top still reports its tick: skipping to it is always
// safe, skipping past it might not be.
TEST(EventQueueFastForward, NextTickCountsATombstonedTop)
{
    EventQueue q;
    EventHandle dead = q.schedule(5, [] {});
    q.schedule(12, [] {});
    EXPECT_TRUE(q.cancel(dead));
    EXPECT_EQ(q.pending(), 1u);
    EXPECT_EQ(q.nextTick(), 5u);
}

TEST(EventQueueFastForward, BurnSeqsMatchesAChainOfReArms)
{
    constexpr uint64_t N = 11;
    EventQueue chain;
    uint64_t left = N;
    std::function<void()> rearm = [&] {
        if (left-- > 0)
            chain.scheduleAfter(7, [&rearm] { rearm(); });
    };
    chain.schedule(1, [&rearm] { rearm(); });
    chain.run();
    chain.scheduleAfter(7, [] {});

    EventQueue burned;
    burned.schedule(1, [] {});
    burned.burnSeqs(N);
    burned.scheduleAfter(7 * (N + 1), [] {});

    EXPECT_EQ(burned.scheduledSeq(), chain.scheduledSeq());
    EXPECT_EQ(burned.scheduledSeq(), N + 2);
}

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

// A full PTB with nothing pending can never drain: the per-slot loop
// would retry forever, the fast-forward panics instead.
TEST(EventQueueFastForwardDeathTest, RefusalWithNothingPendingPanics)
{
    EXPECT_DEATH(
        {
            EventQueue q;
            (void)refusedSlotsBefore(q.now(), q.nextTick(), 7);
        },
        "nothing pending");
}

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
 * A miniature of System's arrival loop: a retry every `gap` ticks is
 * refused until a release event at `release_at` frees the resource.
 * With `fast_forward` each refusal bills the guaranteed refusals at
 * once, exactly as System::fastForwardRefusedSlots does.
 */
RetryOutcome
driveRetry(bool fast_forward, Tick gap, Tick release_at,
           Priority release_priority)
{
    EventQueue q;
    bool busy = true;
    RetryOutcome out;
    q.schedule(release_at, [&busy] { busy = false; },
               release_priority);
    std::function<void()> retry = [&] {
        if (!busy) {
            out.admittedAt = q.now();
            out.seqAtAdmission = q.scheduledSeq();
            q.scheduleAfter(3, [] {}); // the admitted work
            return;
        }
        ++out.refusals;
        Tick delay = gap;
        if (fast_forward) {
            const uint64_t skip =
                refusedSlotsBefore(q.now(), q.nextTick(), gap);
            out.refusals += skip;
            q.burnSeqs(skip);
            delay = gap * (skip + 1);
        }
        q.scheduleAfter(delay, [&retry] { retry(); });
    };
    q.schedule(1, [&retry] { retry(); });
    q.run();
    out.finalSeq = q.scheduledSeq();
    out.executed = q.executed();
    return out;
}

// Ties included (release on a slot tick, at every priority): the
// fast-forward admits at the same tick with the same seq ledger, and
// dispatches fewer events whenever it skipped anything.
TEST(EventQueueFastForward, RetryScheduleMatchesPerSlotLoop)
{
    constexpr Tick Gap = 7;
    for (const Tick release : {1u, 2u, 8u, 15u, 16u, 22u, 100u, 701u}) {
        for (const Priority prio :
             {EarlyPriority, DefaultPriority, LatePriority}) {
            SCOPED_TRACE("release " + std::to_string(release) +
                         " priority " + std::to_string(prio));
            const RetryOutcome per_slot =
                driveRetry(false, Gap, release, prio);
            const RetryOutcome fast =
                driveRetry(true, Gap, release, prio);
            EXPECT_TRUE(fast.sameSchedule(per_slot))
                << "admitted " << fast.admittedAt << " vs "
                << per_slot.admittedAt << ", refusals "
                << fast.refusals << " vs " << per_slot.refusals;
            EXPECT_LE(fast.executed, per_slot.executed);
            if (per_slot.refusals > 2) {
                EXPECT_LT(fast.executed, per_slot.executed);
            }
        }
    }
}

} // namespace
} // namespace hypersio::sim
