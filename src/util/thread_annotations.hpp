/**
 * @file
 * Clang Thread Safety Analysis macros and annotated lock primitives.
 *
 * This is the single home of raw std synchronization primitives in
 * the repo (enforced by tools/lint_annotations.py): every other file
 * takes locks through util::Mutex / util::MutexLock / util::CondVar
 * so that Clang's -Wthread-safety can prove, at compile time, that
 * each LOOKHD_GUARDED_BY field is only touched with its capability
 * held. The `tidy-tsa` CMake preset builds the whole tree with
 * -Werror=thread-safety -Werror=thread-safety-beta; off-Clang the
 * macros expand to nothing and the wrappers cost exactly one inline
 * forwarding call.
 *
 * Annotation cheat sheet (full reference:
 * https://clang.llvm.org/docs/ThreadSafetyAnalysis.html):
 *
 *   LOOKHD_GUARDED_BY(m)   field only touched with m held
 *   LOOKHD_REQUIRES(m)     function must be called with m held
 *   LOOKHD_ACQUIRE(m)      function acquires m and does not release
 *   LOOKHD_RELEASE(m)      function releases m
 *   LOOKHD_EXCLUDES(m)     function must NOT be called with m held
 *                          (self-deadlock guard on public APIs)
 *   LOOKHD_CAPABILITY(x)   class is a lockable capability named x
 *   LOOKHD_NO_THREAD_SAFETY_ANALYSIS
 *                          opt one function out; a last resort, and
 *                          every use must carry a rationale comment
 *
 * House rules for provable lock flows (see CONTRIBUTING.md):
 * prefer block-scoped MutexLock over manual lock()/unlock(); never
 * conditionally release; hoist work out of critical sections instead
 * of passing guarded references around; replace predicate-lambda
 * condition waits with explicit `while (!pred) cv.wait(m);` loops so
 * the analysis sees the capability across the loop.
 */

#ifndef LOOKHD_UTIL_THREAD_ANNOTATIONS_HPP
#define LOOKHD_UTIL_THREAD_ANNOTATIONS_HPP

#include <chrono>
#include <condition_variable>
#include <mutex>

#if defined(__clang__) && defined(__has_attribute)
#if __has_attribute(guarded_by)
#define LOOKHD_THREAD_ANNOTATION__(x) __attribute__((x))
#endif
#endif
#ifndef LOOKHD_THREAD_ANNOTATION__
#define LOOKHD_THREAD_ANNOTATION__(x) // no-op off Clang
#endif

#define LOOKHD_CAPABILITY(x) LOOKHD_THREAD_ANNOTATION__(capability(x))
#define LOOKHD_SCOPED_CAPABILITY \
    LOOKHD_THREAD_ANNOTATION__(scoped_lockable)
#define LOOKHD_GUARDED_BY(x) LOOKHD_THREAD_ANNOTATION__(guarded_by(x))
#define LOOKHD_PT_GUARDED_BY(x) \
    LOOKHD_THREAD_ANNOTATION__(pt_guarded_by(x))
#define LOOKHD_ACQUIRED_BEFORE(...) \
    LOOKHD_THREAD_ANNOTATION__(acquired_before(__VA_ARGS__))
#define LOOKHD_ACQUIRED_AFTER(...) \
    LOOKHD_THREAD_ANNOTATION__(acquired_after(__VA_ARGS__))
#define LOOKHD_REQUIRES(...) \
    LOOKHD_THREAD_ANNOTATION__(requires_capability(__VA_ARGS__))
#define LOOKHD_ACQUIRE(...) \
    LOOKHD_THREAD_ANNOTATION__(acquire_capability(__VA_ARGS__))
#define LOOKHD_RELEASE(...) \
    LOOKHD_THREAD_ANNOTATION__(release_capability(__VA_ARGS__))
#define LOOKHD_TRY_ACQUIRE(...) \
    LOOKHD_THREAD_ANNOTATION__(try_acquire_capability(__VA_ARGS__))
#define LOOKHD_EXCLUDES(...) \
    LOOKHD_THREAD_ANNOTATION__(locks_excluded(__VA_ARGS__))
#define LOOKHD_ASSERT_CAPABILITY(x) \
    LOOKHD_THREAD_ANNOTATION__(assert_capability(x))
#define LOOKHD_RETURN_CAPABILITY(x) \
    LOOKHD_THREAD_ANNOTATION__(lock_returned(x))
#define LOOKHD_NO_THREAD_SAFETY_ANALYSIS \
    LOOKHD_THREAD_ANNOTATION__(no_thread_safety_analysis)

namespace lookhd::util {

class CondVar;

/**
 * Annotated exclusive mutex over std::mutex. Same cost, same
 * semantics; the capability annotation is the entire point. Prefer
 * the RAII MutexLock over calling lock()/unlock() directly.
 */
class LOOKHD_CAPABILITY("mutex") Mutex
{
  public:
    Mutex() = default;
    Mutex(const Mutex &) = delete;
    Mutex &operator=(const Mutex &) = delete;

    void lock() LOOKHD_ACQUIRE() { m_.lock(); }
    void unlock() LOOKHD_RELEASE() { m_.unlock(); }

    /** @return true iff the lock was acquired. */
    bool tryLock() LOOKHD_TRY_ACQUIRE(true) { return m_.try_lock(); }

  private:
    friend class CondVar;
    std::mutex m_;
};

/**
 * Block-scoped lock of a util::Mutex; the only idiomatic way to hold
 * one. Equivalent to std::lock_guard, plus the scoped-capability
 * annotation that lets the analysis track the critical section.
 */
class LOOKHD_SCOPED_CAPABILITY MutexLock
{
  public:
    explicit MutexLock(Mutex &mutex) LOOKHD_ACQUIRE(mutex)
        : mutex_(mutex)
    {
        mutex_.lock();
    }

    ~MutexLock() LOOKHD_RELEASE() { mutex_.unlock(); }

    MutexLock(const MutexLock &) = delete;
    MutexLock &operator=(const MutexLock &) = delete;

  private:
    Mutex &mutex_;
};

/**
 * Condition variable paired with util::Mutex. All waits REQUIRE the
 * mutex held (take a MutexLock first); the internal release/reacquire
 * is invisible to the analysis, exactly like pthread_cond_wait under
 * the POSIX capability model.
 *
 * Deliberately predicate-free: write the condition loop at the call
 * site (`while (!ready_) cv_.wait(mutex_);`) so the analysis sees
 * which guarded fields the predicate reads. Timed waits return
 * std::cv_status like the std API.
 */
class CondVar
{
  public:
    CondVar() = default;
    CondVar(const CondVar &) = delete;
    CondVar &operator=(const CondVar &) = delete;

    /** Atomically release @p mutex, sleep, reacquire before return. */
    void
    wait(Mutex &mutex) LOOKHD_REQUIRES(mutex)
    {
        // Adopt the already-held native mutex for the wait protocol,
        // then release() so the unique_lock destructor leaves it
        // held, matching the REQUIRES contract.
        std::unique_lock<std::mutex> native(mutex.m_,
                                            std::adopt_lock);
        cv_.wait(native);
        native.release();
    }

    template <class Rep, class Period>
    std::cv_status
    waitFor(Mutex &mutex,
            const std::chrono::duration<Rep, Period> &dur)
        LOOKHD_REQUIRES(mutex)
    {
        std::unique_lock<std::mutex> native(mutex.m_,
                                            std::adopt_lock);
        const std::cv_status status = cv_.wait_for(native, dur);
        native.release();
        return status;
    }

    void notifyOne() { cv_.notify_one(); }
    void notifyAll() { cv_.notify_all(); }

  private:
    std::condition_variable cv_;
};

} // namespace lookhd::util

#endif // LOOKHD_UTIL_THREAD_ANNOTATIONS_HPP
