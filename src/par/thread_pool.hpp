/**
 * @file
 * Fixed-size thread pool with a bounded, exception-propagating
 * parallelFor.
 *
 * The pool underpins every CPU-parallel path in the library: batched
 * prediction (lookhd::Classifier::predictBatch), sharded counter
 * training (lookhd::CounterTrainer) and the serve workers' intra-batch
 * scoring. It is deliberately small:
 *
 *  - fixed worker count chosen at construction; no work stealing, no
 *    dynamic resizing, no task priorities;
 *  - parallelFor(begin, end, body) splits the index range into
 *    contiguous chunks, the calling thread participates, and the call
 *    returns only when every chunk has run (bounded: nothing outlives
 *    the call);
 *  - the first exception thrown by any chunk is captured and rethrown
 *    on the calling thread after the remaining chunks drain;
 *  - nested parallelFor from inside a chunk body runs inline on the
 *    current thread, so composed parallel code cannot deadlock the
 *    pool.
 *
 * Determinism: parallelFor only decides *which thread* runs which
 * contiguous chunk; callers that write disjoint output slots (or merge
 * exact integer partials in index order, as the counter trainer does)
 * get bit-identical results for every thread count, including 1.
 */

#ifndef LOOKHD_PAR_THREAD_POOL_HPP
#define LOOKHD_PAR_THREAD_POOL_HPP

#include <atomic>
#include <cstddef>
#include <deque>
#include <exception>
#include <functional>
#include <memory>
#include <thread>
#include <vector>

#include "util/thread_annotations.hpp"

namespace lookhd::par {

/** Fixed-size worker pool; see file comment for the contract. */
class ThreadPool
{
  public:
    /**
     * @param threads Total concurrency of parallelFor calls: the
     *        calling thread plus threads-1 workers. 0 and 1 both mean
     *        "no workers, run everything inline".
     */
    explicit ThreadPool(std::size_t threads);

    /** Joins the workers. */
    ~ThreadPool();

    ThreadPool(const ThreadPool &) = delete;
    ThreadPool &operator=(const ThreadPool &) = delete;

    /** Total concurrency (workers + the calling thread), >= 1. */
    std::size_t threads() const { return threads_; }

    /**
     * Run body(lo, hi) over contiguous chunks covering [begin, end),
     * on the workers plus the calling thread, returning when all
     * chunks completed. Chunks never overlap and never exceed the
     * range. The first exception from any chunk is rethrown here.
     * Calls from inside a chunk body run inline (no deadlock).
     *
     * @param minChunk Smallest chunk worth dispatching; ranges at or
     *        below it run inline.
     */
    void parallelFor(std::size_t begin, std::size_t end,
                     const std::function<void(std::size_t, std::size_t)>
                         &body,
                     std::size_t minChunk = 1);

    /** True on a pool worker thread (any pool's). */
    static bool onWorkerThread();

  private:
    struct Job;

    void workerLoop();
    static void runChunks(Job &job);

    std::size_t threads_;
    std::vector<std::thread> workers_;
    util::Mutex mutex_;
    util::CondVar cv_;
    std::deque<std::shared_ptr<Job>> jobs_ LOOKHD_GUARDED_BY(mutex_);
    bool stop_ LOOKHD_GUARDED_BY(mutex_) = false;
};

/**
 * Resolve a user-facing thread-count knob: 0 = one per hardware
 * thread, otherwise the value itself (>= 1).
 */
std::size_t resolveThreads(std::size_t requested);

} // namespace lookhd::par

#endif // LOOKHD_PAR_THREAD_POOL_HPP
