#include "obs/eventlog.hpp"

#include <algorithm>
#include <csignal>
#include <exception>
#include <fcntl.h>
#include <fstream>
#include <iterator>
#include <ostream>
#include <unistd.h>

#include "obs/json.hpp"
#include "util/timer.hpp"

namespace lookhd::obs {

namespace {

void
writeEventLine(std::ostream &out, const LogEvent &e)
{
    JsonWriter w;
    w.beginObject();
    w.kv("ts_ms", e.wallMs);
    w.kv("elapsed_ns", e.elapsedNs);
    w.kv("level", logLevelName(e.level));
    w.kv("event", e.event);
    w.kv("thread", e.thread);
    w.key("fields").beginObject();
    for (const auto &[key, value] : e.fields)
        w.kv(key, value);
    w.endObject();
    w.endObject();
    out << w.str() << '\n';
}

} // namespace

const char *
logLevelName(LogLevel level)
{
    switch (level) {
    case LogLevel::kDebug:
        return "debug";
    case LogLevel::kInfo:
        return "info";
    case LogLevel::kWarn:
        return "warn";
    case LogLevel::kError:
        return "error";
    }
    return "unknown";
}

EventLog::EventLog(std::size_t ringCapacity) : rings_(ringCapacity) {}

EventLog &
EventLog::global()
{
    // Leaked like MetricRegistry::global(): emit sites cache ring
    // pointers in thread_local storage that may outlive any
    // destruction order.
    static auto *log = new EventLog;
    return *log;
}

void
EventLog::setMinLevel(LogLevel level)
{
    minLevel_.store(static_cast<int>(level),
                    std::memory_order_relaxed);
}

LogLevel
EventLog::minLevel() const
{
    return static_cast<LogLevel>(
        minLevel_.load(std::memory_order_relaxed));
}

void
EventLog::emit(LogLevel level, std::string_view event,
               std::initializer_list<
                   std::pair<std::string_view, std::string>>
                   fields)
{
    if (static_cast<int>(level) <
        minLevel_.load(std::memory_order_relaxed))
        return;
    LogEvent e;
    // Wall clock for log stamps only; ordering uses the monotonic
    // elapsed_ns.
    e.wallMs = wallClockMs();
    e.elapsedNs = util::Timer::processNanoseconds();
    e.level = level;
    e.event = std::string(event);
    e.thread = threadId();
    e.fields.reserve(fields.size());
    for (const auto &[key, value] : fields)
        e.fields.emplace_back(std::string(key), value);
    rings_.push(std::move(e));
    emitted_.fetch_add(1, std::memory_order_relaxed);
}

void
EventLog::flush(std::ostream &out)
{
    std::vector<LogEvent> drained;
    for (auto &ring : rings_.drain()) {
        if (ring.dropped > 0) {
            LogEvent drop;
            drop.wallMs = wallClockMs();
            drop.elapsedNs = 0; // sorts before what survived
            drop.level = LogLevel::kWarn;
            drop.event = "eventlog.dropped";
            drop.thread = ring.thread;
            drop.fields.emplace_back("dropped",
                                     std::to_string(ring.dropped));
            drained.push_back(std::move(drop));
        }
        std::move(ring.items.begin(), ring.items.end(),
                  std::back_inserter(drained));
    }
    std::stable_sort(drained.begin(), drained.end(),
                     [](const LogEvent &a, const LogEvent &b) {
                         return a.elapsedNs < b.elapsedNs;
                     });
    for (const LogEvent &e : drained)
        writeEventLine(out, e);
}

bool
EventLog::flushToFile(const std::string &path)
{
    std::ofstream out(path, std::ios::app);
    if (!out)
        return false;
    flush(out);
    out.flush();
    return out.good();
}

std::uint64_t
EventLog::totalEmitted() const
{
    return emitted_.load(std::memory_order_relaxed);
}

std::uint64_t
EventLog::totalDropped() const
{
    return rings_.dropped();
}

void
EventLog::reset()
{
    rings_.clear();
    emitted_.store(0, std::memory_order_relaxed);
}

// --- Crash flush -----------------------------------------------------
//
// Everything below the FdWriter must stay async-signal-safe: no
// allocation, no locks, no stdio, no functions outside the
// signal-safety(7) list. tools/lint_annotations.py cannot check this,
// but the tidy-tsa build proves the no-locking half: none of these
// functions carry ACQUIRE/REQUIRES, and the repo's only
// LOOKHD_NO_THREAD_SAFETY_ANALYSIS sites are crashFlush below and the
// ring read it reaches (ThreadRing::readUnlocked), each with its racy
// reads documented where they happen.

namespace {

/**
 * Buffered raw-fd JSON-line writer for the crash path. Fixed stack
 * storage, write(2) only; every method is async-signal-safe.
 */
class FdWriter
{
  public:
    explicit FdWriter(int fd) : fd_(fd) {}

    ~FdWriter() { flushBuffer(); }

    void
    put(char c)
    {
        if (len_ == sizeof(buf_))
            flushBuffer();
        buf_[len_++] = c;
    }

    void
    literal(const char *s)
    {
        while (*s != '\0')
            put(*s++);
    }

    /** JSON string escape of raw bytes (no allocation). */
    void
    escaped(const char *s, std::size_t n)
    {
        static const char *hex = "0123456789abcdef";
        for (std::size_t i = 0; i < n; ++i) {
            const auto c = static_cast<unsigned char>(s[i]);
            if (c == '"' || c == '\\') {
                put('\\');
                put(static_cast<char>(c));
            } else if (c >= 0x20) {
                put(static_cast<char>(c));
            } else {
                literal("\\u00");
                put(hex[(c >> 4) & 0xF]);
                put(hex[c & 0xF]);
            }
        }
    }

    void
    unsigned64(std::uint64_t v)
    {
        char digits[20];
        std::size_t n = 0;
        do {
            digits[n++] = static_cast<char>('0' + v % 10);
            v /= 10;
        } while (v != 0);
        while (n > 0)
            put(digits[--n]);
    }

    bool ok() const { return ok_; }

    void
    flushBuffer()
    {
        std::size_t off = 0;
        while (off < len_) {
            const ssize_t n =
                ::write(fd_, buf_ + off, len_ - off);
            if (n <= 0) {
                ok_ = false;
                break;
            }
            off += static_cast<std::size_t>(n);
        }
        len_ = 0;
    }

  private:
    int fd_;
    char buf_[4096];
    std::size_t len_ = 0;
    bool ok_ = true;
};

void
writeCrashEventLine(FdWriter &w, const LogEvent &e)
{
    w.literal("{\"ts_ms\":");
    w.unsigned64(e.wallMs);
    w.literal(",\"elapsed_ns\":");
    w.unsigned64(e.elapsedNs);
    w.literal(",\"level\":\"");
    w.literal(logLevelName(e.level));
    w.literal("\",\"event\":\"");
    w.escaped(e.event.data(), e.event.size());
    w.literal("\",\"thread\":");
    w.unsigned64(e.thread);
    w.literal(",\"fields\":{");
    bool first = true;
    for (const auto &[key, value] : e.fields) {
        if (!first)
            w.put(',');
        first = false;
        w.put('"');
        w.escaped(key.data(), key.size());
        w.literal("\":\"");
        w.escaped(value.data(), value.size());
        w.put('"');
    }
    w.literal("}}\n");
}

constexpr std::size_t kCrashPathMax = 4096;

/** Serializes installers only; never touched on the signal path. */
util::Mutex gInstallMutex;
char gCrashPath[kCrashPathMax] LOOKHD_GUARDED_BY(gInstallMutex);
/** Path byte count, release-published after the bytes are written so
 * the handler's lock-free acquire load sees a complete path. */
std::atomic<std::size_t> gCrashPathLen{0};
/** The log the handler flushes; set before handlers install so the
 * signal path never runs a magic-static initializer. */
std::atomic<EventLog *> gCrashLog{nullptr};
std::terminate_handler gPrevTerminate = nullptr;
std::atomic<bool> gCrashFlushed{false};

/**
 * Async-signal-safe: open/write/close only, no locks, no allocation.
 * A fault inside this function re-enters fatalSignalHandler, which
 * sees gCrashFlushed and falls straight through to SIG_DFL re-raise,
 * so the worst case is a truncated log, never a hang.
 *
 * Analysis is off because gCrashPath is read WITHOUT gInstallMutex:
 * the handler must not lock (the crashing thread may hold it), and
 * installation happened-before the crash via gCrashPathLen's
 * release/acquire pair.
 */
void
crashFlush(const char *reason) LOOKHD_NO_THREAD_SAFETY_ANALYSIS
{
    // One shot: a second fault while flushing must not recurse.
    if (gCrashFlushed.exchange(true))
        return;
    const std::size_t pathLen =
        gCrashPathLen.load(std::memory_order_acquire);
    EventLog *log = gCrashLog.load(std::memory_order_acquire);
    if (pathLen == 0 || log == nullptr)
        return;
    char path[kCrashPathMax];
    // Lock-free read of gCrashPath: installers serialize among
    // themselves and publish through gCrashPathLen; by the time a
    // handler runs, installation has happened-before the crash.
    for (std::size_t i = 0; i < pathLen; ++i)
        path[i] = gCrashPath[i];
    path[pathLen] = '\0';
    const int fd =
        ::open(path, O_WRONLY | O_CREAT | O_APPEND, 0644);
    if (fd < 0)
        return;
    {
        FdWriter w(fd);
        w.literal("{\"ts_ms\":0,\"elapsed_ns\":0,\"level\":\"error\","
                  "\"event\":\"eventlog.crash\",\"thread\":0,"
                  "\"fields\":{\"reason\":\"");
        w.literal(reason);
        w.literal("\"}}\n");
        w.flushBuffer();
    }
    log->flushCrashToFd(fd);
    ::close(fd);
}

[[noreturn]] void
terminateWithFlush()
{
    crashFlush("terminate");
    if (gPrevTerminate)
        gPrevTerminate();
    std::abort();
}

void
fatalSignalHandler(int sig)
{
    crashFlush("signal");
    std::signal(sig, SIG_DFL);
    std::raise(sig);
}

} // namespace

bool
EventLog::flushCrashToFd(int fd)
{
    FdWriter w(fd);
    rings_.readUnlocked([&w](const ThreadRing<LogEvent>::View &ring) {
        if (ring.dropped > 0) {
            // Written field by field: a LogEvent here could allocate.
            w.literal("{\"ts_ms\":0,\"elapsed_ns\":0,\"level\":\"warn\","
                      "\"event\":\"eventlog.dropped\",\"thread\":");
            w.unsigned64(ring.thread);
            w.literal(",\"fields\":{\"dropped\":\"");
            w.unsigned64(ring.dropped);
            w.literal("\"}}\n");
        }
        for (std::size_t i = 0; i < ring.size; ++i)
            writeCrashEventLine(w, ring[i]);
    });
    w.flushBuffer();
    return w.ok();
}

void
EventLog::installCrashFlush(const std::string &path)
{
    bool firstInstall = false;
    {
        const util::MutexLock lock(gInstallMutex);
        firstInstall =
            gCrashPathLen.load(std::memory_order_relaxed) == 0;
        const std::size_t len =
            path.size() < kCrashPathMax - 1 ? path.size()
                                            : kCrashPathMax - 1;
        for (std::size_t i = 0; i < len; ++i)
            gCrashPath[i] = path[i];
        gCrashLog.store(&global(), std::memory_order_release);
        gCrashPathLen.store(len, std::memory_order_release);
    }
    if (!firstInstall)
        return;
    gPrevTerminate = std::set_terminate(terminateWithFlush);
    for (const int sig : {SIGSEGV, SIGBUS, SIGFPE, SIGABRT})
        std::signal(sig, fatalSignalHandler);
}

} // namespace lookhd::obs
