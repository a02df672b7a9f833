/**
 * @file
 * In-process sampling CPU profiler with flamegraph export.
 *
 * Each registered thread owns a POSIX timer on its own CPU-time
 * clock (timer_create over pthread_getcpuclockid, SIGEV_THREAD_ID
 * delivery), so SIGPROF fires on the thread that burned the CPU and
 * only in proportion to CPU actually burned - sleeping threads cost
 * nothing and produce no samples. The handler is async-signal-safe:
 * it calls backtrace(3) (warmed up before any timer is armed, so the
 * lazy libgcc load never happens in signal context), reads one
 * relaxed thread-local atomic (the current request stage), and
 * appends one fixed-size record to a lock-free per-thread SPSC
 * ring. Zero allocation, zero locks; a full ring increments a drop
 * counter instead of blocking.
 *
 * Everything expensive happens off the signal path at collection
 * time: drain() folds the rings into an address-keyed aggregation,
 * collect() symbolizes unique addresses once (dladdr +
 * abi::__cxa_demangle; executables set CMAKE_ENABLE_EXPORTS so their
 * extern symbols are visible to dladdr) and builds a ProfileReport
 * exporting Brendan Gregg collapsed stacks (flamegraph.pl-ready) and
 * speedscope JSON.
 *
 * Stage attribution: the serving pipeline publishes its current
 * ReqStage through profilerPublishStage(), so every sample lands in
 * exactly one stage bucket ("none" when off-pipeline). collect()
 * folds the buckets into the cumulative
 * `profile.stage_cpu_ns{stage=...}` gauges - CPU self-time per
 * stage, the work half of the wait-vs-work split against the
 * wall-clock `serve.stage{stage=...}` histograms.
 *
 * Sampling math: at rate hz every sample represents 1e9/hz ns of
 * thread CPU time, so a stack's cost estimate is count * period and
 * total samples are bounded by seconds * hz * busy_threads.
 *
 * Compile-time gate: kProfilerCompiled follows -DLOOKHD_OBS (and
 * requires Linux for the timer plumbing). When off, start() returns
 * false, every hook is an empty inline, and no signal handler is
 * ever installed.
 */

#ifndef LOOKHD_OBS_PROFILER_HPP
#define LOOKHD_OBS_PROFILER_HPP

#include <array>
#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "obs/reqtrace.hpp"

#ifndef LOOKHD_OBS_ENABLED
#define LOOKHD_OBS_ENABLED 1
#endif

#if LOOKHD_OBS_ENABLED && defined(__linux__)
#define LOOKHD_PROFILER_AVAILABLE 1
#else
#define LOOKHD_PROFILER_AVAILABLE 0
#endif

namespace lookhd::obs {

/** Compile-time profiler gate (follows -DLOOKHD_OBS, Linux-only). */
inline constexpr bool kProfilerCompiled =
    LOOKHD_PROFILER_AVAILABLE != 0;

/** Stage byte meaning "not in any request stage". */
inline constexpr std::uint8_t kProfileStageNone = 0xff;

/** Stage buckets: the six ReqStages plus "none". */
inline constexpr std::size_t kProfileStageSlots = kReqStageCount + 1;

/** Default sampling rate; prime to avoid lockstep with periodic
 * work (the classic 99 Hz profiler convention). */
inline constexpr unsigned kProfilerDefaultHz = 99;

/** Default per-thread sample-ring capacity. At 99 Hz one busy
 * thread fills this in ~40 s; drain() runs far more often. */
inline constexpr std::size_t kProfilerDefaultRing = 4096;

namespace detail {

/**
 * Handler-visible per-thread publication slot. The owning thread
 * stores, the SIGPROF handler (on the same thread) loads; relaxed
 * atomics are enough because signal delivery is sequenced with the
 * interrupted thread's own program order.
 */
struct ProfilePublish
{
    std::atomic<std::uint8_t> stage{kProfileStageNone};
};

/** Null until the thread registers with the profiler. */
extern thread_local ProfilePublish *tProfilePublish;

} // namespace detail

/**
 * Publish the current request stage (a ReqStage value, or
 * kProfileStageNone between requests). Called by the serving
 * pipeline around each stage.
 */
inline void
profilerPublishStage([[maybe_unused]] std::uint8_t stage)
{
#if LOOKHD_PROFILER_AVAILABLE
    if (detail::ProfilePublish *slot = detail::tProfilePublish)
        slot->stage.store(stage, std::memory_order_relaxed);
#endif
}

/** profilerPublishStage from the ReqStage enum. */
inline void
profilerPublishStage(ReqStage stage)
{
    profilerPublishStage(static_cast<std::uint8_t>(stage));
}

/** Tunables of one profiling session. */
struct ProfileOptions
{
    /** Samples per second of thread CPU time; clamped to
     * [1, 1000]. */
    unsigned hz = kProfilerDefaultHz;

    /** Per-thread sample-ring capacity; clamped to [8, 1 << 16].
     * Overflow between drains increments the drop counter. */
    std::size_t ringCapacity = kProfilerDefaultRing;
};

/** One aggregated call stack, root first, with its sample count. */
struct ProfileStack
{
    std::vector<std::string> frames;
    std::uint64_t samples = 0;
};

/** The result of one collect(): aggregated stacks plus tallies. */
struct ProfileReport
{
    /** Sampling rate the samples were taken at (0 = empty). */
    unsigned hz = 0;

    /** Samples kept / samples lost to ring overflow. */
    std::uint64_t samples = 0;
    std::uint64_t dropped = 0;

    /** Wall-clock span of the profiled window(s), ns. */
    std::uint64_t durationNs = 0;

    /** Samples per request stage; index 0..5 = ReqStage, index
     * kReqStageCount = off-pipeline ("none"). */
    std::array<std::uint64_t, kProfileStageSlots> stageSamples{};

    /** Aggregated stacks, descending by sample count. */
    std::vector<ProfileStack> stacks;

    bool empty() const { return samples == 0 && dropped == 0; }

    /** CPU nanoseconds one sample represents (1e9 / hz). */
    std::uint64_t
    periodNs() const
    {
        return hz == 0 ? 0 : 1'000'000'000ULL / hz;
    }

    /** Brendan Gregg collapsed stacks: `frame;frame;... count`
     * lines, hottest stack first; feed to flamegraph.pl. */
    std::string collapsed() const;

    /** speedscope.app "sampled" profile JSON (unit: nanoseconds). */
    std::string speedscopeJson() const;
};

/**
 * The process-wide profiler. All methods are thread-safe; at most
 * one session runs at a time (start() while running returns false,
 * which /debug/profile maps to 503 so an operator-started session
 * and a continuous --profile-out session cannot corrupt each
 * other).
 */
class Profiler
{
  public:
    static Profiler &global();

    /**
     * Register the calling thread: create its publication slot and
     * sample ring, and arm its timer if a session is running.
     * Idempotent; the slot unregisters automatically at thread
     * exit. Worker pools (par::ThreadPool, the serve threads) call
     * this at thread start. No-op when compiled out.
     */
    static void registerCurrentThread();

    /**
     * Begin sampling every registered thread at opts.hz.
     * Auto-registers the calling thread.
     * @return false when a session is already running or the
     * profiler is compiled out.
     */
    bool start(const ProfileOptions &opts = {});

    /** End the session and disarm every timer. Idempotent. Drained
     * samples stay pending until collect(). */
    void stop();

    bool running() const;

    /**
     * Fold every thread's ring into the pending aggregation. Cheap;
     * call periodically during long sessions so small rings never
     * overflow. collect() and stop() both imply a drain.
     */
    void drain();

    /**
     * Drain, symbolize, and return everything sampled since the
     * last collect(), resetting the pending aggregation and folding
     * the stage tallies into the cumulative
     * `profile.stage_cpu_ns{stage=...}` / `profile.samples` /
     * `profile.dropped` gauges. Callable while running (a
     * continuous session collects incrementally) or after stop().
     */
    ProfileReport collect();

    /**
     * One bounded foreground session: start at @p hz, drain every
     * few ms for @p seconds, stop, collect. Blocks the calling
     * thread for the window (the /debug/profile contract, like
     * /debug/trace). @return an empty report when a session is
     * already running or the profiler is compiled out.
     */
    ProfileReport profileFor(double seconds,
                             unsigned hz = kProfilerDefaultHz);

  private:
    Profiler() = default;
};

} // namespace lookhd::obs

#endif // LOOKHD_OBS_PROFILER_HPP
