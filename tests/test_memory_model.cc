/** Unit tests for the DRAM timing model: dependent-chain latency and
 *  bounded concurrency. */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "mem/memory_model.hh"

namespace hypersio::mem
{
namespace
{

/** Records every completed chain: its tag, tick and seq. */
struct Fixture : MemoryClient
{
    sim::EventQueue queue;
    stats::StatGroup stats{"test"};

    struct Done
    {
        uint64_t tag;
        Tick at;
        uint64_t seq;
    };
    std::vector<Done> done;

    void
    chainDone(uint64_t tag) override
    {
        done.push_back({tag, queue.now(), queue.scheduledSeq()});
    }

    std::vector<Tick>
    ticks() const
    {
        std::vector<Tick> out;
        for (const Done &d : done)
            out.push_back(d.at);
        return out;
    }
};

TEST(MemoryModel, SingleAccessLatency)
{
    Fixture f;
    MemoryConfig config;
    config.accessLatency = 50 * TicksPerNs;
    MemoryModel memory(config, f.queue, f.stats);

    memory.access(1, f, 0);
    f.queue.run();
    EXPECT_EQ(f.ticks(), std::vector<Tick>{50 * TicksPerNs});
}

TEST(MemoryModel, ChainSerializesAccesses)
{
    Fixture f;
    MemoryModel memory({50 * TicksPerNs, 0}, f.queue, f.stats);
    // A full 24-access two-dimensional walk = 1200 ns.
    memory.access(24, f, 0);
    f.queue.run();
    EXPECT_EQ(f.ticks(), std::vector<Tick>{1200 * TicksPerNs});
}

TEST(MemoryModel, UnlimitedModeRunsChainsInParallel)
{
    Fixture f;
    MemoryModel memory({100, 0}, f.queue, f.stats);
    for (int i = 0; i < 4; ++i)
        memory.access(1, f, i);
    f.queue.run();
    const std::vector<Tick> finished = f.ticks();
    ASSERT_EQ(finished.size(), 4u);
    for (Tick t : finished)
        EXPECT_EQ(t, 100u); // all complete together
}

TEST(MemoryModel, BoundedModeQueuesExcessChains)
{
    Fixture f;
    MemoryModel memory({100, 2}, f.queue, f.stats);
    for (int i = 0; i < 4; ++i)
        memory.access(1, f, i);
    EXPECT_EQ(memory.busy(), 2u);
    f.queue.run();
    const std::vector<Tick> finished = f.ticks();
    ASSERT_EQ(finished.size(), 4u);
    // Two waves: 2 at t=100, 2 at t=200.
    EXPECT_EQ(finished[0], 100u);
    EXPECT_EQ(finished[1], 100u);
    EXPECT_EQ(finished[2], 200u);
    EXPECT_EQ(finished[3], 200u);
    EXPECT_EQ(memory.busy(), 0u);
}

TEST(MemoryModel, QueuedChainsPreserveOrder)
{
    Fixture f;
    MemoryModel memory({10, 1}, f.queue, f.stats);
    for (int i = 0; i < 3; ++i)
        memory.access(1, f, i);
    f.queue.run();
    std::vector<uint64_t> order;
    for (const Fixture::Done &d : f.done)
        order.push_back(d.tag);
    EXPECT_EQ(order, (std::vector<uint64_t>{0, 1, 2}));
}

TEST(MemoryModel, StatsCountReadsAndChains)
{
    Fixture f;
    MemoryModel memory({10, 1}, f.queue, f.stats);
    memory.access(24, f, 0);
    memory.access(9, f, 1);
    f.queue.run();
    const auto *reads = f.stats.child("memory").find("reads");
    const auto *chains = f.stats.child("memory").find("chains");
    const auto *queued = f.stats.child("memory").find("queued");
    ASSERT_NE(reads, nullptr);
    EXPECT_DOUBLE_EQ(reads->value(), 33.0);
    EXPECT_DOUBLE_EQ(chains->value(), 2.0);
    EXPECT_DOUBLE_EQ(queued->value(), 1.0);
}

TEST(MemoryModel, ZeroAccessChainCompletesAtOnce)
{
    Fixture f;
    MemoryModel memory({50, 0}, f.queue, f.stats);
    memory.access(0, f, 0);
    f.queue.run();
    EXPECT_EQ(f.ticks(), std::vector<Tick>{0});
}

// A tail-position chain on unbounded memory completes synchronously
// at the tick and seq its event would have had; a bounded chain's
// finish starts the next queued one, so it never fuses, and neither
// does a chain issued outside tail position.
TEST(MemoryModel, OnlyUnboundedTailChainsFuse)
{
    const struct
    {
        unsigned slots;
        bool mayFuse;
    } cases[] = {{0, true}, {2, true}, {0, false}};
    for (const auto &c : cases) {
        SCOPED_TRACE("maxOutstanding " + std::to_string(c.slots) +
                     " may_fuse " + std::to_string(c.mayFuse));
        const bool fuses = c.slots == 0 && c.mayFuse;
        Fixture f;
        MemoryModel memory({50, c.slots}, f.queue, f.stats);
        f.queue.schedule(10, [&] { memory.access(3, f, 7, c.mayFuse); });
        f.queue.run();
        ASSERT_EQ(f.done.size(), 1u);
        EXPECT_EQ(f.done[0].tag, 7u);
        EXPECT_EQ(f.done[0].at, 160u);
        // The outer event's seq, then the chain's own.
        EXPECT_EQ(f.done[0].seq, 2u);
        EXPECT_EQ(f.queue.fusedHops(), fuses ? 1u : 0u);
        EXPECT_EQ(f.queue.executed(), fuses ? 1u : 2u);
    }
}

} // namespace
} // namespace hypersio::mem
