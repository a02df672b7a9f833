#include "par/thread_pool.hpp"

#include <algorithm>

#include "obs/profiler.hpp"
#include "util/check.hpp"

namespace lookhd::par {

namespace {

/** Set while a pool worker (of any pool) is running chunks. */
thread_local bool tOnWorker = false;

} // namespace

/**
 * One parallelFor call. Workers and the caller claim chunks
 * through nextChunk until exhausted; the last finished chunk signals
 * done. The job outlives the queue entry via shared_ptr, so a worker
 * still running a chunk after the caller returns from wait() (it
 * cannot: wait() requires all chunks finished) or after the queue
 * entry is popped stays valid.
 */
struct ThreadPool::Job
{
    std::function<void(std::size_t, std::size_t)> body;
    std::size_t begin = 0;
    std::size_t end = 0;
    std::size_t chunkSize = 1;
    std::size_t numChunks = 0;
    std::atomic<std::size_t> nextChunk{0};
    std::atomic<std::size_t> unfinished{0};
    util::Mutex mutex;
    util::CondVar done;
    std::exception_ptr error LOOKHD_GUARDED_BY(mutex);

    bool exhausted() const
    {
        return nextChunk.load(std::memory_order_acquire) >= numChunks;
    }
};

ThreadPool::ThreadPool(std::size_t threads)
    : threads_(std::max<std::size_t>(threads, 1))
{
    workers_.reserve(threads_ - 1);
    for (std::size_t i = 0; i + 1 < threads_; ++i)
        workers_.emplace_back([this] { workerLoop(); });
}

ThreadPool::~ThreadPool()
{
    {
        const util::MutexLock lock(mutex_);
        stop_ = true;
    }
    cv_.notifyAll();
    for (std::thread &w : workers_)
        w.join();
}

bool
ThreadPool::onWorkerThread()
{
    return tOnWorker;
}

void
ThreadPool::runChunks(Job &job)
{
    while (true) {
        const std::size_t c =
            job.nextChunk.fetch_add(1, std::memory_order_acq_rel);
        if (c >= job.numChunks)
            return;
        const std::size_t lo = job.begin + c * job.chunkSize;
        const std::size_t hi =
            std::min(job.end, lo + job.chunkSize);
        try {
            job.body(lo, hi);
        } catch (...) {
            const util::MutexLock lock(job.mutex);
            if (!job.error)
                job.error = std::current_exception();
        }
        if (job.unfinished.fetch_sub(1, std::memory_order_acq_rel) ==
            1) {
            // Last chunk: wake the waiter. Lock so the notify cannot
            // slot between the waiter's predicate check and its wait.
            const util::MutexLock lock(job.mutex);
            job.done.notifyAll();
        }
    }
}

void
ThreadPool::workerLoop()
{
    tOnWorker = true;
    // Pool workers burn most of the process CPU; make them visible
    // to the sampling profiler (no-op when compiled out).
    obs::Profiler::registerCurrentThread();
    while (true) {
        std::shared_ptr<Job> job;
        {
            const util::MutexLock lock(mutex_);
            while (!stop_ && jobs_.empty())
                cv_.wait(mutex_);
            if (jobs_.empty()) // implies stop_
                return;
            job = jobs_.front();
            if (job->exhausted()) {
                // All chunks claimed (possibly still running on
                // other threads); retire the queue entry.
                jobs_.pop_front();
                continue;
            }
        }
        runChunks(*job);
    }
}

void
ThreadPool::parallelFor(
    std::size_t begin, std::size_t end,
    const std::function<void(std::size_t, std::size_t)> &body,
    std::size_t minChunk)
{
    if (end <= begin)
        return;
    const std::size_t n = end - begin;
    minChunk = std::max<std::size_t>(minChunk, 1);
    // Inline when there is nothing to parallelize with, the range is
    // too small to split, or we are already inside a chunk body
    // (nested call: the workers may all be busy on the outer job, so
    // dispatching would deadlock a pool of blocking waiters; inline
    // execution always makes progress).
    if (threads_ <= 1 || n <= minChunk || tOnWorker) {
        body(begin, end);
        return;
    }

    auto job = std::make_shared<Job>();
    job->body = body;
    job->begin = begin;
    job->end = end;
    // At most one chunk per thread, at least minChunk indices each:
    // chunk count only affects scheduling, never results.
    const std::size_t maxChunks =
        std::min(threads_, (n + minChunk - 1) / minChunk);
    job->chunkSize = (n + maxChunks - 1) / maxChunks;
    job->numChunks = (n + job->chunkSize - 1) / job->chunkSize;
    job->unfinished.store(job->numChunks, std::memory_order_relaxed);

    {
        const util::MutexLock lock(mutex_);
        LOOKHD_CHECK(!stop_, "parallelFor on a stopped ThreadPool");
        jobs_.push_back(job);
    }
    cv_.notifyAll();

    // The caller is one of the executors; mark it worker-like so a
    // nested parallelFor inside body runs inline here too.
    tOnWorker = true;
    runChunks(*job);
    tOnWorker = false;

    {
        const util::MutexLock lock(job->mutex);
        while (job->unfinished.load(std::memory_order_acquire) != 0)
            job->done.wait(job->mutex);
        if (job->error)
            std::rethrow_exception(job->error);
    }
}

std::size_t
resolveThreads(std::size_t requested)
{
    if (requested != 0)
        return requested;
    const unsigned hw = std::thread::hardware_concurrency();
    return hw == 0 ? 1 : hw;
}

} // namespace lookhd::par
