/**
 * @file
 * One fixed-capacity ring per (owner, thread): the per-thread buffer
 * under the slow-request log (obs/reqtrace.hpp) and trace-span
 * events (obs/trace.hpp).
 *
 * A thread's first push() creates its ring and release-publishes it
 * on the owner's lock-free list; later pushes find it through a
 * thread-local cache and take only that ring's mutex, which is
 * uncontended except while a reader copies the ring. So a stalled
 * reader never back-pressures a writer on another thread. A full
 * ring overwrites its oldest entry and counts the drop. Rings belong
 * to the owner, not to the thread: a thread's entries and drops stay
 * readable after it exits, until the owner is destroyed.
 *
 * The profiler's SIGPROF ring (obs/profiler.cpp) is deliberately not
 * one of these. Its producer is a signal handler, which cannot take
 * a mutex, and a lock-free ring cannot carry the std::string
 * payloads of the other two without torn reads.
 *
 * Also here: the small thread id and the Unix-ms wall clock that the
 * rings' users stamp their entries with. This is src/obs/, the
 * lint-sanctioned home of system_clock (tools/lint_determinism.py).
 */

#ifndef LOOKHD_OBS_THREAD_RING_HPP
#define LOOKHD_OBS_THREAD_RING_HPP

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <unordered_map>
#include <utility>
#include <vector>

#include "util/thread_annotations.hpp"

namespace lookhd::obs {

/** Unix wall clock in milliseconds, for telemetry stamps only. */
inline std::uint64_t
wallClockMs()
{
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::milliseconds>(
            std::chrono::system_clock::now().time_since_epoch())
            .count());
}

/**
 * Small, stable id of the calling thread: 1, 2, ... in order of
 * first use, process-wide (not the OS tid). 0 is never a thread.
 */
inline std::uint64_t
threadId()
{
    static std::atomic<std::uint64_t> next{1};
    thread_local const std::uint64_t id =
        next.fetch_add(1, std::memory_order_relaxed);
    return id;
}

template <typename T>
class ThreadRing
{
  public:
    /** One ring's entries, oldest first. */
    struct Contents
    {
        std::uint64_t thread = 0; ///< threadId() of the writer.
        /** Entries overwritten since the ring's last drain/clear. */
        std::uint64_t dropped = 0;
        std::vector<T> items;
    };

    /** @param capacity Entries kept per thread (0 is taken as 1). */
    explicit ThreadRing(std::size_t capacity)
        : id_(nextOwnerId()), capacity_(std::max<std::size_t>(
                                  capacity, 1))
    {
    }

    ~ThreadRing()
    {
        Ring *ring = ringsHead_.load(std::memory_order_acquire);
        while (ring != nullptr)
            delete std::exchange(ring, ring->nextRing);
    }

    ThreadRing(const ThreadRing &) = delete;
    ThreadRing &operator=(const ThreadRing &) = delete;

    /** Append to the calling thread's ring; full rings drop oldest. */
    void
    push(T item)
    {
        push(std::move(item), [](T &) {});
    }

    /**
     * push(), calling @p stamp(item) under the ring's lock first: a
     * reader that locks this ring after stamp ran also sees the item.
     */
    template <typename Stamp>
    void
    push(T item, Stamp &&stamp)
    {
        Ring &ring = ringForThisThread();
        const util::MutexLock lock(ring.mutex);
        stamp(item);
        ring.slots[ring.head] = std::move(item);
        ring.head = (ring.head + 1) % capacity_;
        if (ring.size < capacity_) {
            ++ring.size;
        } else {
            ++ring.dropped;
            ++ring.droppedTotal;
        }
    }

    /** Copy of every ring; the rings are left as they were. */
    std::vector<Contents>
    snapshot() const
    {
        std::vector<Contents> out;
        for (Ring *ring = ringsHead_.load(std::memory_order_acquire);
             ring != nullptr; ring = ring->nextRing) {
            const util::MutexLock lock(ring->mutex);
            Contents &c = out.emplace_back();
            c.thread = ring->thread;
            c.dropped = ring->dropped;
            c.items.reserve(ring->size);
            for (std::size_t i = 0; i < ring->size; ++i)
                c.items.push_back(ring->slots[ring->at(i)]);
        }
        return out;
    }

    /**
     * Every ring's entries moved out; each ring is left empty with
     * its since-drain drop count zeroed (dropped() keeps counting).
     */
    std::vector<Contents>
    drain()
    {
        std::vector<Contents> out;
        for (Ring *ring = ringsHead_.load(std::memory_order_acquire);
             ring != nullptr; ring = ring->nextRing) {
            const util::MutexLock lock(ring->mutex);
            Contents &c = out.emplace_back();
            c.thread = ring->thread;
            c.dropped = std::exchange(ring->dropped, 0);
            c.items.reserve(ring->size);
            for (std::size_t i = 0; i < ring->size; ++i)
                c.items.push_back(std::move(ring->slots[ring->at(i)]));
            ring->size = 0; // head stays: positions are relative
        }
        return out;
    }

    /** Entries dropped since construction or clear(), all rings. */
    std::uint64_t
    dropped() const
    {
        std::uint64_t total = 0;
        for (Ring *ring = ringsHead_.load(std::memory_order_acquire);
             ring != nullptr; ring = ring->nextRing) {
            const util::MutexLock lock(ring->mutex);
            total += ring->droppedTotal;
        }
        return total;
    }

    /** Empty every ring and zero its drop counts; rings stay. */
    void
    clear()
    {
        for (Ring *ring = ringsHead_.load(std::memory_order_acquire);
             ring != nullptr; ring = ring->nextRing) {
            const util::MutexLock lock(ring->mutex);
            ring->size = 0;
            ring->dropped = 0;
            ring->droppedTotal = 0;
        }
    }

  private:
    struct Ring
    {
        Ring(std::size_t capacity, std::uint64_t threadId)
            // Default-initialized: the pages of a trivially
            // constructible T are committed only as entries land.
            : slots(std::make_unique_for_overwrite<T[]>(capacity)),
              capacity(capacity), thread(threadId)
        {
        }

        util::Mutex mutex;
        /** Allocated once; never resized or moved. */
        const std::unique_ptr<T[]> slots LOOKHD_PT_GUARDED_BY(mutex);
        const std::size_t capacity;
        /** Next write position. */
        std::size_t head LOOKHD_GUARDED_BY(mutex) = 0;
        std::size_t size LOOKHD_GUARDED_BY(mutex) = 0;
        /** Overwritten since the last drain() or clear(). */
        std::uint64_t dropped LOOKHD_GUARDED_BY(mutex) = 0;
        /** Overwritten since the last clear(). */
        std::uint64_t droppedTotal LOOKHD_GUARDED_BY(mutex) = 0;
        const std::uint64_t thread;
        /** List link; written before publication, immutable after. */
        Ring *nextRing = nullptr;

        /** Slot of the @p i-th oldest entry. */
        std::size_t
        at(std::size_t i) const LOOKHD_REQUIRES(mutex)
        {
            return (head + capacity - size + i) % capacity;
        }
    };

    static std::uint64_t
    nextOwnerId()
    {
        static std::atomic<std::uint64_t> next{0};
        return next.fetch_add(1, std::memory_order_relaxed);
    }

    Ring &
    ringForThisThread()
    {
        // Keyed by the process-unique id_, so a destroyed owner's
        // entry is merely stale, never a dangling hit for a new owner
        // at the same address.
        thread_local std::unordered_map<std::uint64_t, Ring *> cache;
        Ring *&ring = cache[id_];
        if (ring == nullptr) {
            ring = new Ring(capacity_, threadId());
            ring->nextRing = ringsHead_.load(std::memory_order_relaxed);
            // Release so a lock-free reader that sees the new head
            // sees a fully constructed ring behind it.
            while (!ringsHead_.compare_exchange_weak(
                ring->nextRing, ring, std::memory_order_release,
                std::memory_order_relaxed)) {
            }
        }
        return *ring;
    }

    const std::uint64_t id_;
    const std::size_t capacity_;
    /** Lock-free list of every ring, newest first. */
    std::atomic<Ring *> ringsHead_{nullptr};
};

} // namespace lookhd::obs

#endif // LOOKHD_OBS_THREAD_RING_HPP
