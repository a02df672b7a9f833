/**
 * @file
 * Tests for the fixed-size thread pool behind batched predict and
 * parallel counter training: full range coverage with no index run
 * twice, exception propagation to the caller, nested parallelFor
 * without deadlock, drain-on-destruction, and a small stress loop.
 * The suite runs under TSan and ASan presets in CI.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <stdexcept>
#include <vector>

#include "par/thread_pool.hpp"

namespace {

using lookhd::par::ThreadPool;

class ThreadPoolSweep : public ::testing::TestWithParam<std::size_t>
{
};

TEST_P(ThreadPoolSweep, ParallelForRunsEveryIndexExactlyOnce)
{
    ThreadPool pool(GetParam());
    EXPECT_EQ(pool.threads(), GetParam());
    const std::size_t n = 1000;
    std::vector<std::atomic<int>> hits(n);
    pool.parallelFor(0, n, [&](std::size_t lo, std::size_t hi) {
        ASSERT_LE(lo, hi);
        ASSERT_LE(hi, n);
        for (std::size_t i = lo; i < hi; ++i)
            hits[i].fetch_add(1);
    });
    for (std::size_t i = 0; i < n; ++i)
        EXPECT_EQ(hits[i].load(), 1) << "index " << i;
}

TEST_P(ThreadPoolSweep, RespectsMinChunk)
{
    ThreadPool pool(GetParam());
    std::atomic<std::size_t> total{0};
    std::atomic<std::size_t> calls{0};
    pool.parallelFor(
        0, 100,
        [&](std::size_t lo, std::size_t hi) {
            calls.fetch_add(1);
            total.fetch_add(hi - lo);
        },
        /*minChunk=*/40);
    EXPECT_EQ(total.load(), 100u);
    // At minChunk 40 over 100 indices at most 3 chunks make sense
    // (and exactly 1 when the pool inlines).
    EXPECT_LE(calls.load(), 3u);
}

TEST_P(ThreadPoolSweep, ExceptionPropagatesAndPoolSurvives)
{
    ThreadPool pool(GetParam());
    EXPECT_THROW(
        pool.parallelFor(0, 64,
                         [&](std::size_t lo, std::size_t) {
                             if (lo == 0)
                                 throw std::runtime_error("boom");
                         }),
        std::runtime_error);

    // The failed job must not wedge the pool.
    std::atomic<std::size_t> total{0};
    pool.parallelFor(0, 64, [&](std::size_t lo, std::size_t hi) {
        total.fetch_add(hi - lo);
    });
    EXPECT_EQ(total.load(), 64u);
}

TEST_P(ThreadPoolSweep, NestedParallelForDoesNotDeadlock)
{
    ThreadPool pool(GetParam());
    const std::size_t outer = 8, inner = 32;
    std::atomic<std::size_t> total{0};
    pool.parallelFor(0, outer, [&](std::size_t lo, std::size_t hi) {
        for (std::size_t i = lo; i < hi; ++i) {
            // Inner loops run inline on the worker that owns the
            // outer chunk; no worker ever blocks on another.
            pool.parallelFor(
                0, inner, [&](std::size_t ilo, std::size_t ihi) {
                    total.fetch_add(ihi - ilo);
                });
        }
    });
    EXPECT_EQ(total.load(), outer * inner);
}

TEST_P(ThreadPoolSweep, StressManySmallJobs)
{
    ThreadPool pool(GetParam());
    std::atomic<std::size_t> total{0};
    for (std::size_t round = 0; round < 200; ++round)
        pool.parallelFor(0, 64,
                         [&](std::size_t lo, std::size_t hi) {
                             total.fetch_add(hi - lo);
                         },
                         /*minChunk=*/8);
    EXPECT_EQ(total.load(), 200u * 64u);
}

INSTANTIATE_TEST_SUITE_P(Threads, ThreadPoolSweep,
                         ::testing::Values(1, 2, 7));

TEST(ThreadPool, EmptyRangeIsANoop)
{
    ThreadPool pool(4);
    bool ran = false;
    pool.parallelFor(5, 5,
                     [&](std::size_t, std::size_t) { ran = true; });
    EXPECT_FALSE(ran);
}

TEST(ThreadPool, BodiesObserveWorkerContext)
{
    // Every chunk body (including on the participating caller) runs
    // in "worker" context so nested parallelFor inlines.
    ThreadPool pool(4);
    EXPECT_FALSE(ThreadPool::onWorkerThread());
    std::atomic<std::size_t> onWorker{0};
    const std::size_t n = 16;
    pool.parallelFor(0, n, [&](std::size_t lo, std::size_t hi) {
        if (ThreadPool::onWorkerThread())
            onWorker.fetch_add(hi - lo);
    });
    EXPECT_EQ(onWorker.load(), n);
    EXPECT_FALSE(ThreadPool::onWorkerThread());
}

TEST(ThreadPool, ResolveThreads)
{
    EXPECT_GE(lookhd::par::resolveThreads(0), 1u);
    EXPECT_EQ(lookhd::par::resolveThreads(3), 3u);
    EXPECT_EQ(lookhd::par::resolveThreads(1), 1u);
}

TEST(ThreadPool, FirstExceptionWinsUnderContention)
{
    ThreadPool pool(7);
    for (std::size_t round = 0; round < 20; ++round) {
        try {
            pool.parallelFor(
                0, 64,
                [&](std::size_t lo, std::size_t) {
                    throw std::runtime_error(
                        "chunk " + std::to_string(lo));
                },
                /*minChunk=*/1);
            FAIL() << "parallelFor swallowed the exceptions";
        } catch (const std::runtime_error &e) {
            EXPECT_NE(std::string(e.what()).find("chunk"),
                      std::string::npos);
        }
    }
}

} // namespace
