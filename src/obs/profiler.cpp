#include "obs/profiler.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <thread>

#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "util/thread_annotations.hpp"
#include "util/timer.hpp"

#if LOOKHD_PROFILER_AVAILABLE
#include <cerrno>
#include <csignal>
#include <ctime>
#include <cxxabi.h>
#include <dlfcn.h>
#include <execinfo.h>
#include <pthread.h>
#include <sys/syscall.h>
#include <unistd.h>

// Older glibc spells the SIGEV_THREAD_ID target field through the
// union; newer glibc provides the POSIX-next name directly.
#ifndef sigev_notify_thread_id
#define sigev_notify_thread_id _sigev_un._tid
#endif
#endif // LOOKHD_PROFILER_AVAILABLE

namespace lookhd::obs {

namespace detail {
thread_local ProfilePublish *tProfilePublish = nullptr;
} // namespace detail

namespace {

/** Deepest stack the handler captures; frames beyond are cut. */
constexpr std::size_t kMaxFrames = 64;

/** Leaf frames belonging to the handler itself (the backtrace()
 * call site and the kernel signal trampoline), cut at drain time. */
constexpr std::uint32_t kSkipFrames = 2;

/** Replace collapsed-format metacharacters so a demangled name can
 * never split a frame (';'), a line ('\n'), or the trailing
 * "stack count" separator parse (control chars). Spaces are legal
 * inside frames - flamegraph.pl splits on the last space only. */
std::string
sanitizeFrameName(std::string name)
{
    for (char &c : name) {
        if (c == ';' || c == '\n' || c == '\r' || c == '\t')
            c = '_';
    }
    if (name.empty())
        name = "[unknown]";
    return name;
}

} // namespace

std::string
ProfileReport::collapsed() const
{
    std::string out;
    for (const ProfileStack &stack : stacks) {
        if (stack.frames.empty())
            continue;
        std::string line;
        for (const std::string &frame : stack.frames) {
            if (!line.empty())
                line += ';';
            line += frame;
        }
        out += line + ' ' + std::to_string(stack.samples) + '\n';
    }
    return out;
}

std::string
ProfileReport::speedscopeJson() const
{
    // One shared frame table, stacks as index lists (root first),
    // weights in nanoseconds of estimated CPU time.
    std::map<std::string, std::uint64_t> frameIndex;
    std::vector<const std::string *> frameOrder;
    for (const ProfileStack &stack : stacks) {
        for (const std::string &frame : stack.frames) {
            if (frameIndex.emplace(frame, frameOrder.size())
                    .second)
                frameOrder.push_back(
                    &frameIndex.find(frame)->first);
        }
    }
    const std::uint64_t period = periodNs();
    std::uint64_t total = 0;
    for (const ProfileStack &stack : stacks)
        total += stack.samples * period;

    JsonWriter w;
    w.beginObject();
    w.kv("$schema",
         "https://www.speedscope.app/file-format-schema.json");
    w.kv("exporter", "lookhd");
    w.kv("name", "lookhd cpu profile");
    w.kv("activeProfileIndex", std::uint64_t{0});
    w.key("shared").beginObject();
    w.key("frames").beginArray();
    for (const std::string *frame : frameOrder) {
        w.beginObject();
        w.kv("name", *frame);
        w.endObject();
    }
    w.endArray();
    w.endObject();
    w.key("profiles").beginArray();
    w.beginObject();
    w.kv("type", "sampled");
    w.kv("name", "cpu");
    w.kv("unit", "nanoseconds");
    w.kv("startValue", std::uint64_t{0});
    w.kv("endValue", total);
    w.key("samples").beginArray();
    for (const ProfileStack &stack : stacks) {
        w.beginArray();
        for (const std::string &frame : stack.frames)
            w.value(frameIndex[frame]);
        w.endArray();
    }
    w.endArray();
    w.key("weights").beginArray();
    for (const ProfileStack &stack : stacks)
        w.value(stack.samples * period);
    w.endArray();
    w.endObject();
    w.endArray();
    w.endObject();
    return w.str();
}

#if LOOKHD_PROFILER_AVAILABLE

namespace {

/** One captured sample; written by the handler, read at drain. */
struct RawSample
{
    void *frames[kMaxFrames];
    std::uint32_t depth = 0;
    std::uint8_t stage = kProfileStageNone;
};

/**
 * Per-thread profiler state. The SIGPROF handler (producer, always
 * on the owning thread) appends to the SPSC ring; the collector
 * (consumer, any thread, under the profiler mutex) drains it. head
 * and tail are monotonic; slot = index % capacity.
 */
struct ThreadProfile
{
    std::unique_ptr<RawSample[]> ring;
    std::size_t capacity = 0;
    std::atomic<std::uint64_t> head{0};
    std::atomic<std::uint64_t> tail{0};
    std::atomic<std::uint64_t> dropped{0};
    /** Release-set after the ring is ready; the handler samples
     * only while true. */
    std::atomic<bool> active{false};
    detail::ProfilePublish publish;
    pid_t tid = 0;
    pthread_t pthread{};
    timer_t timer{};
    bool armed = false; // collector-side, under the profiler mutex
};

/** Handler's route to its own thread's state; set at registration
 * (before any timer is armed) and cleared first at unregistration,
 * so the handler can never observe a dead ThreadProfile. */
thread_local ThreadProfile *tThreadProfile = nullptr;

/** Aggregation key: one stack, root first, handler frames cut. */
using StackKey = std::vector<void *>;

/**
 * Process-wide profiler state. Deliberately leaked so thread_local
 * unregistration destructors can reach it at any shutdown point
 * (the trace.cpp registry pattern).
 */
struct ProfilerState
{
    util::Mutex mutex;
    std::vector<ThreadProfile *> threads LOOKHD_GUARDED_BY(mutex);
    bool running LOOKHD_GUARDED_BY(mutex) = false;
    bool handlerInstalled LOOKHD_GUARDED_BY(mutex) = false;
    ProfileOptions opts LOOKHD_GUARDED_BY(mutex);

    // Pending aggregation: everything drained since last collect().
    std::map<StackKey, std::uint64_t> stacks
        LOOKHD_GUARDED_BY(mutex);
    std::array<std::uint64_t, kProfileStageSlots> stageSamples
        LOOKHD_GUARDED_BY(mutex){};
    std::uint64_t kept LOOKHD_GUARDED_BY(mutex) = 0;
    std::uint64_t droppedPending LOOKHD_GUARDED_BY(mutex) = 0;
    std::uint64_t windowStartNs LOOKHD_GUARDED_BY(mutex) = 0;
    std::uint64_t pendingDurationNs LOOKHD_GUARDED_BY(mutex) = 0;

    /** Addresses symbolize once per process; the cache persists. */
    std::map<void *, std::string> symbolCache
        LOOKHD_GUARDED_BY(mutex);

    // Cumulative tallies behind the profile.* gauges.
    std::array<std::uint64_t, kProfileStageSlots> cumStageNs
        LOOKHD_GUARDED_BY(mutex){};
    std::uint64_t cumSamples LOOKHD_GUARDED_BY(mutex) = 0;
    std::uint64_t cumDropped LOOKHD_GUARDED_BY(mutex) = 0;
};

ProfilerState &
profilerState()
{
    static auto *s = new ProfilerState;
    return *s;
}

/**
 * The SIGPROF handler. Async-signal-safe by construction: reads a
 * thread_local pointer materialized before the timer was armed,
 * calls backtrace(3) (libgcc pre-loaded by the start()-time
 * warm-up), loads the published stage byte, writes one ring slot.
 * No allocation, no locks, errno preserved.
 */
void
sigprofHandler(int /*signo*/, siginfo_t * /*info*/,
               void * /*ucontext*/)
{
    ThreadProfile *tp = tThreadProfile;
    if (tp == nullptr || !tp->active.load(std::memory_order_acquire))
        return;
    const int savedErrno = errno;
    const std::uint64_t head =
        tp->head.load(std::memory_order_relaxed);
    const std::uint64_t tail =
        tp->tail.load(std::memory_order_acquire);
    if (head - tail >= tp->capacity) {
        tp->dropped.fetch_add(1, std::memory_order_relaxed);
        errno = savedErrno;
        return;
    }
    RawSample &slot = tp->ring[head % tp->capacity];
    const int depth = ::backtrace(
        slot.frames, static_cast<int>(kMaxFrames));
    slot.depth =
        depth <= 0 ? 0 : static_cast<std::uint32_t>(depth);
    slot.stage = tp->publish.stage.load(std::memory_order_relaxed);
    tp->head.store(head + 1, std::memory_order_release);
    errno = savedErrno;
}

void
installHandlerLocked(ProfilerState &state)
    LOOKHD_REQUIRES(state.mutex)
{
    if (state.handlerInstalled)
        return;
    struct sigaction sa;
    std::memset(&sa, 0, sizeof(sa));
    sa.sa_sigaction = &sigprofHandler;
    sa.sa_flags = SA_SIGINFO | SA_RESTART;
    sigemptyset(&sa.sa_mask);
    sigaction(SIGPROF, &sa, nullptr);
    // Force the lazy libgcc load outside signal context; after this
    // first call backtrace() allocates nothing.
    void *warmup[2];
    ::backtrace(warmup, 2);
    state.handlerInstalled = true;
}

ProfileOptions
clampOptions(ProfileOptions opts)
{
    opts.hz = std::clamp(opts.hz, 1u, 1000u);
    opts.ringCapacity = std::clamp<std::size_t>(
        opts.ringCapacity, 8, std::size_t{1} << 16);
    return opts;
}

/** Arm one thread's CPU-time timer at the session rate. */
void
armLocked(ProfilerState &state, ThreadProfile &tp)
    LOOKHD_REQUIRES(state.mutex)
{
    if (tp.armed)
        return;
    if (!tp.ring || tp.capacity != state.opts.ringCapacity) {
        tp.ring = std::make_unique<RawSample[]>(
            state.opts.ringCapacity);
        tp.capacity = state.opts.ringCapacity;
        tp.head.store(0, std::memory_order_relaxed);
        tp.tail.store(0, std::memory_order_relaxed);
    }
    clockid_t clock{};
    if (pthread_getcpuclockid(tp.pthread, &clock) != 0)
        return;
    struct sigevent sev;
    std::memset(&sev, 0, sizeof(sev));
    sev.sigev_notify = SIGEV_THREAD_ID;
    sev.sigev_signo = SIGPROF;
    sev.sigev_notify_thread_id = tp.tid;
    if (timer_create(clock, &sev, &tp.timer) != 0)
        return;
    // Publish the ring before the first possible signal.
    tp.active.store(true, std::memory_order_release);
    const long periodNs = static_cast<long>(
        1'000'000'000ULL / state.opts.hz);
    itimerspec its{};
    its.it_value.tv_sec = periodNs / 1'000'000'000L;
    its.it_value.tv_nsec = periodNs % 1'000'000'000L;
    its.it_interval = its.it_value;
    if (timer_settime(tp.timer, 0, &its, nullptr) != 0) {
        tp.active.store(false, std::memory_order_release);
        timer_delete(tp.timer);
        return;
    }
    tp.armed = true;
}

void
disarmLocked(ThreadProfile &tp)
{
    if (!tp.armed)
        return;
    tp.active.store(false, std::memory_order_release);
    timer_delete(tp.timer);
    tp.armed = false;
}

/** Fold one ring's samples into the pending aggregation. */
void
drainLocked(ProfilerState &state, ThreadProfile &tp)
    LOOKHD_REQUIRES(state.mutex)
{
    const std::uint64_t head =
        tp.head.load(std::memory_order_acquire);
    std::uint64_t tail = tp.tail.load(std::memory_order_relaxed);
    for (; tail != head; ++tail) {
        const RawSample &s = tp.ring[tail % tp.capacity];
        const std::uint32_t skip =
            s.depth > kSkipFrames + 1 ? kSkipFrames : 0;
        StackKey key;
        key.reserve(s.depth - skip);
        // backtrace() is leaf first; the key is root first.
        for (std::uint32_t i = s.depth; i > skip; --i)
            key.push_back(s.frames[i - 1]);
        ++state.stacks[key];
        const std::size_t stageIdx =
            s.stage < kReqStageCount
                ? s.stage
                : kReqStageCount; // "none" bucket
        ++state.stageSamples[stageIdx];
        ++state.kept;
    }
    tp.tail.store(tail, std::memory_order_release);
    state.droppedPending +=
        tp.dropped.exchange(0, std::memory_order_relaxed);
}

void
drainAllLocked(ProfilerState &state) LOOKHD_REQUIRES(state.mutex)
{
    for (ThreadProfile *tp : state.threads)
        drainLocked(state, *tp);
}

/**
 * Symbolize one return address. addr-1 keeps the lookup inside the
 * calling function when the return address sits on the first byte
 * of the next one. dladdr resolves against the dynamic symbol
 * table, hence CMAKE_ENABLE_EXPORTS on the executables; local
 * (static / anonymous-namespace) functions attribute to the nearest
 * preceding exported symbol, a documented approximation.
 */
const std::string &
symbolLocked(ProfilerState &state, void *addr)
    LOOKHD_REQUIRES(state.mutex)
{
    const auto it = state.symbolCache.find(addr);
    if (it != state.symbolCache.end())
        return it->second;
    std::string name;
    Dl_info info;
    std::memset(&info, 0, sizeof(info));
    if (dladdr(static_cast<char *>(addr) - 1, &info) != 0 &&
        info.dli_sname != nullptr) {
        int status = -1;
        char *demangled = abi::__cxa_demangle(
            info.dli_sname, nullptr, nullptr, &status);
        name = (status == 0 && demangled != nullptr)
                   ? demangled
                   : info.dli_sname;
        std::free(demangled);
    } else {
        char buf[32];
        std::snprintf(buf, sizeof(buf), "0x%zx",
                      reinterpret_cast<std::size_t>(addr));
        name = buf;
    }
    return state.symbolCache
        .emplace(addr, sanitizeFrameName(std::move(name)))
        .first->second;
}

/** Registry name of one stage's cumulative CPU gauge. */
std::string
stageGaugeName(std::size_t stageIdx)
{
    const char *name =
        stageIdx < kReqStageCount
            ? reqStageName(static_cast<ReqStage>(stageIdx))
            : "none";
    return std::string("profile.stage_cpu_ns{stage=\"") + name +
           "\"}";
}

/** Thread-exit unregistration; see registerCurrentThread(). */
void
unregisterThread(ThreadProfile *tp)
{
    // Null the handler's routes first: a signal pending across
    // timer_delete interrupts this same thread and must see them
    // gone before the ThreadProfile is freed.
    tThreadProfile = nullptr;
    detail::tProfilePublish = nullptr;
    ProfilerState &state = profilerState();
    {
        const util::MutexLock lock(state.mutex);
        disarmLocked(*tp);
        if (tp->ring)
            drainLocked(state, *tp); // salvage before the free
        state.threads.erase(std::remove(state.threads.begin(),
                                        state.threads.end(), tp),
                            state.threads.end());
    }
    delete tp;
}

struct ThreadRegistration
{
    ThreadProfile *tp = nullptr;

    ~ThreadRegistration()
    {
        if (tp != nullptr)
            unregisterThread(tp);
    }
};

thread_local ThreadRegistration tRegistration;

} // namespace

Profiler &
Profiler::global()
{
    static Profiler p;
    return p;
}

void
Profiler::registerCurrentThread()
{
    if (tRegistration.tp != nullptr)
        return;
    auto *tp = new ThreadProfile;
    tp->tid = static_cast<pid_t>(::syscall(SYS_gettid));
    tp->pthread = pthread_self();
    // The handler's routes exist before any timer can target this
    // thread; same-thread signal delivery sees these stores.
    tRegistration.tp = tp;
    tThreadProfile = tp;
    detail::tProfilePublish = &tp->publish;
    ProfilerState &state = profilerState();
    const util::MutexLock lock(state.mutex);
    state.threads.push_back(tp);
    if (state.running)
        armLocked(state, *tp);
}

bool
Profiler::start(const ProfileOptions &opts)
{
    registerCurrentThread();
    ProfilerState &state = profilerState();
    const util::MutexLock lock(state.mutex);
    if (state.running)
        return false;
    installHandlerLocked(state);
    state.opts = clampOptions(opts);
    state.windowStartNs = util::Timer::processNanoseconds();
    state.running = true;
    for (ThreadProfile *tp : state.threads)
        armLocked(state, *tp);
    return true;
}

void
Profiler::stop()
{
    ProfilerState &state = profilerState();
    const util::MutexLock lock(state.mutex);
    if (!state.running)
        return;
    for (ThreadProfile *tp : state.threads)
        disarmLocked(*tp);
    state.running = false;
    state.pendingDurationNs +=
        util::Timer::processNanoseconds() - state.windowStartNs;
    state.windowStartNs = 0;
    drainAllLocked(state);
}

bool
Profiler::running() const
{
    ProfilerState &state = profilerState();
    const util::MutexLock lock(state.mutex);
    return state.running;
}

void
Profiler::drain()
{
    ProfilerState &state = profilerState();
    const util::MutexLock lock(state.mutex);
    drainAllLocked(state);
}

ProfileReport
Profiler::collect()
{
    ProfilerState &state = profilerState();
    const util::MutexLock lock(state.mutex);
    drainAllLocked(state);

    ProfileReport report;
    report.hz = state.opts.hz;
    report.samples = state.kept;
    report.dropped = state.droppedPending;
    report.stageSamples = state.stageSamples;
    report.durationNs = state.pendingDurationNs;
    if (state.running) {
        const std::uint64_t now = util::Timer::processNanoseconds();
        report.durationNs += now - state.windowStartNs;
        state.windowStartNs = now;
    }

    // Merge by symbolized frames: distinct addresses inside one
    // function collapse into one stack.
    std::map<std::vector<std::string>, std::uint64_t> merged;
    for (const auto &[key, count] : state.stacks) {
        std::vector<std::string> frames;
        frames.reserve(key.size());
        for (void *addr : key)
            frames.push_back(symbolLocked(state, addr));
        if (frames.empty())
            frames.emplace_back("[unknown]");
        merged[std::move(frames)] += count;
    }
    report.stacks.reserve(merged.size());
    for (auto &[frames, count] : merged)
        report.stacks.push_back(
            {frames, count}); // key copy: map keys stay const
    std::sort(report.stacks.begin(), report.stacks.end(),
              [](const ProfileStack &a, const ProfileStack &b) {
                  return a.samples > b.samples;
              });

    // Fold into the cumulative profile.* gauges.
    const std::uint64_t period = report.periodNs();
    MetricRegistry &registry = MetricRegistry::global();
    for (std::size_t i = 0; i < kProfileStageSlots; ++i) {
        state.cumStageNs[i] += report.stageSamples[i] * period;
        registry.gauge(stageGaugeName(i))
            .set(static_cast<double>(state.cumStageNs[i]));
    }
    state.cumSamples += report.samples;
    state.cumDropped += report.dropped;
    registry.gauge("profile.samples")
        .set(static_cast<double>(state.cumSamples));
    registry.gauge("profile.dropped")
        .set(static_cast<double>(state.cumDropped));

    state.stacks.clear();
    state.stageSamples = {};
    state.kept = 0;
    state.droppedPending = 0;
    state.pendingDurationNs = 0;
    return report;
}

ProfileReport
Profiler::profileFor(double seconds, unsigned hz)
{
    ProfileOptions opts;
    opts.hz = hz;
    if (!start(opts))
        return {};
    seconds = std::clamp(seconds, 0.05, 60.0);
    const auto deadline =
        std::chrono::steady_clock::now() +
        std::chrono::duration_cast<
            std::chrono::steady_clock::duration>(
            std::chrono::duration<double>(seconds));
    // Drain every 50 ms so even tiny rings never overflow during a
    // bounded session.
    while (std::chrono::steady_clock::now() < deadline) {
        const auto remaining =
            deadline - std::chrono::steady_clock::now();
        std::this_thread::sleep_for(std::min<
            std::chrono::steady_clock::duration>(
            remaining, std::chrono::milliseconds(50)));
        drain();
    }
    stop();
    return collect();
}

#else // !LOOKHD_PROFILER_AVAILABLE

// Compiled-out stubs: the API stays linkable so call sites need no
// preprocessor gates, but nothing ever runs and no handler exists.

Profiler &
Profiler::global()
{
    static Profiler p;
    return p;
}

void
Profiler::registerCurrentThread()
{
}

bool
Profiler::start(const ProfileOptions & /*opts*/)
{
    return false;
}

void
Profiler::stop()
{
}

bool
Profiler::running() const
{
    return false;
}

void
Profiler::drain()
{
}

ProfileReport
Profiler::collect()
{
    return {};
}

ProfileReport
Profiler::profileFor(double /*seconds*/, unsigned /*hz*/)
{
    return {};
}

#endif // LOOKHD_PROFILER_AVAILABLE

} // namespace lookhd::obs
