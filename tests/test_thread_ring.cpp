/**
 * @file
 * Tests for the per-thread ring under the slow-request log and
 * trace-span events (obs/thread_ring.hpp).
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "obs/thread_ring.hpp"

namespace {

using lookhd::obs::ThreadRing;

std::vector<int>
itemsOf(const std::vector<ThreadRing<int>::Contents> &rings)
{
    std::vector<int> out;
    for (const auto &ring : rings)
        out.insert(out.end(), ring.items.begin(), ring.items.end());
    return out;
}

TEST(ThreadRing, OverwritesOldestAndCountsDrops)
{
    ThreadRing<int> ring(4);
    for (int i = 0; i < 10; ++i)
        ring.push(i);
    const auto rings = ring.snapshot();
    ASSERT_EQ(rings.size(), 1u);
    EXPECT_EQ(rings[0].items, (std::vector<int>{6, 7, 8, 9}));
    EXPECT_EQ(rings[0].dropped, 6u);
    EXPECT_EQ(rings[0].thread, lookhd::obs::threadId());
    EXPECT_EQ(ring.dropped(), 6u);
}

TEST(ThreadRing, ZeroCapacityKeepsOneEntry)
{
    ThreadRing<int> ring(0);
    ring.push(1);
    ring.push(2);
    EXPECT_EQ(itemsOf(ring.snapshot()), std::vector<int>{2});
    EXPECT_EQ(ring.dropped(), 1u);
}

TEST(ThreadRing, SnapshotLeavesTheRingIntact)
{
    ThreadRing<std::string> ring(8);
    ring.push("a");
    ring.push("b");
    const auto first = ring.snapshot();
    const auto second = ring.snapshot();
    ASSERT_EQ(first.size(), 1u);
    ASSERT_EQ(second.size(), 1u);
    EXPECT_EQ(first[0].items, (std::vector<std::string>{"a", "b"}));
    EXPECT_EQ(second[0].items, first[0].items);
}

TEST(ThreadRing, DrainEmptiesAndRestartsTheSinceDrainCount)
{
    ThreadRing<std::string> ring(2);
    for (const char *s : {"a", "b", "c"})
        ring.push(s);
    const auto drained = ring.drain();
    ASSERT_EQ(drained.size(), 1u);
    EXPECT_EQ(drained[0].items, (std::vector<std::string>{"b", "c"}));
    EXPECT_EQ(drained[0].dropped, 1u);

    // Empty now; the since-drain count restarted, the total did not.
    const auto after = ring.snapshot();
    ASSERT_EQ(after.size(), 1u);
    EXPECT_TRUE(after[0].items.empty());
    EXPECT_EQ(after[0].dropped, 0u);
    EXPECT_EQ(ring.dropped(), 1u);

    // Drained slots are reused oldest-first.
    ring.push("d");
    EXPECT_EQ(ring.drain()[0].items, std::vector<std::string>{"d"});
}

TEST(ThreadRing, ClearEmptiesAndZeroesEveryDropCount)
{
    ThreadRing<int> ring(2);
    for (int i = 0; i < 5; ++i)
        ring.push(i);
    ring.clear();
    const auto rings = ring.snapshot();
    ASSERT_EQ(rings.size(), 1u);
    EXPECT_TRUE(rings[0].items.empty());
    EXPECT_EQ(rings[0].dropped, 0u);
    EXPECT_EQ(ring.dropped(), 0u);
    ring.push(7);
    EXPECT_EQ(itemsOf(ring.snapshot()), std::vector<int>{7});
}

TEST(ThreadRing, RingsOfExitedThreadsStayReadable)
{
    ThreadRing<int> ring(4);
    std::uint64_t writer = 0;
    std::thread t([&ring, &writer] {
        writer = lookhd::obs::threadId();
        for (int i = 0; i < 6; ++i)
            ring.push(i);
    });
    t.join();
    ring.push(100);

    const auto rings = ring.snapshot();
    ASSERT_EQ(rings.size(), 2u);
    const ThreadRing<int>::Contents *exited = nullptr;
    for (const auto &r : rings)
        if (r.thread == writer)
            exited = &r;
    ASSERT_NE(exited, nullptr);
    EXPECT_NE(writer, lookhd::obs::threadId());
    EXPECT_EQ(exited->items, (std::vector<int>{2, 3, 4, 5}));
    EXPECT_EQ(exited->dropped, 2u);
    EXPECT_EQ(ring.dropped(), 2u);
}

TEST(ThreadRing, ConcurrentWritersGetOneRingEach)
{
    constexpr int kThreads = 4;
    constexpr int kPerThread = 1000;
    ThreadRing<int> ring(kPerThread);
    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&ring, t] {
            for (int i = 0; i < kPerThread; ++i)
                ring.push(t * kPerThread + i);
        });
    }
    // Read while the writers run: snapshots must stay consistent.
    for (int i = 0; i < 20; ++i)
        for (const auto &r : ring.snapshot())
            EXPECT_LE(r.items.size(), std::size_t{kPerThread});
    for (std::thread &t : threads)
        t.join();

    const auto rings = ring.snapshot();
    ASSERT_EQ(rings.size(), std::size_t{kThreads});
    for (const auto &r : rings) {
        ASSERT_EQ(r.items.size(), std::size_t{kPerThread});
        // Each ring holds exactly one writer's pushes, in order.
        for (std::size_t i = 1; i < r.items.size(); ++i)
            EXPECT_EQ(r.items[i], r.items[i - 1] + 1);
    }
    EXPECT_EQ(ring.dropped(), 0u);
}

} // namespace
