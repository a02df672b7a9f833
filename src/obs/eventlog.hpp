/**
 * @file
 * Bounded, thread-safe structured event log for request-scope events.
 *
 * Counters say how often, spans say how long; the event log says
 * *what happened*: model load, batch dispatch, quantizer-saturation
 * warnings, watchdog trips. Events are appended to a fixed-capacity
 * per-thread ring (one uncontended mutex per ring, no allocation on
 * the steady-state append path beyond the field strings), so a
 * stalled or crashed consumer can never back-pressure the serving
 * path - the ring overflows instead, dropping the oldest events and
 * counting the drops.
 *
 * flush() drains every ring into a JSON-lines stream, one object per
 * event, globally ordered by the monotonic timestamp:
 *
 *   {"ts_ms":<unix wall millis>,"elapsed_ns":<process monotonic>,
 *    "level":"info","event":"serve.batch","thread":<tid>,
 *    "fields":{"size":"8","queue_depth":"3"}}
 *
 * A ring that overflowed since the last flush prepends a synthetic
 * `eventlog.dropped` warning carrying the drop count, so gaps are
 * visible in the log itself. installCrashFlush() arranges a
 * best-effort flush of the same stream on std::terminate and fatal
 * signals, so the last events before a crash are not lost with the
 * rings.
 *
 * This class lives in src/obs/ deliberately: it wall-clock-stamps
 * its output, which the determinism lint permits only here.
 */

#ifndef LOOKHD_OBS_EVENTLOG_HPP
#define LOOKHD_OBS_EVENTLOG_HPP

#include <atomic>
#include <cstdint>
#include <initializer_list>
#include <iosfwd>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "obs/thread_ring.hpp"

namespace lookhd::obs {

enum class LogLevel : int
{
    kDebug = 0,
    kInfo = 1,
    kWarn = 2,
    kError = 3,
};

/** Lower-case level name ("debug", "info", "warn", "error"). */
const char *logLevelName(LogLevel level);

/** One structured event as captured in a ring. */
struct LogEvent
{
    std::uint64_t wallMs = 0;    ///< Unix wall clock, milliseconds.
    std::uint64_t elapsedNs = 0; ///< util::Timer::processNanoseconds.
    LogLevel level = LogLevel::kInfo;
    std::string event; ///< `subsystem.verb` name, like metrics.
    std::uint64_t thread = 0; ///< obs::threadId() of the origin thread.
    std::vector<std::pair<std::string, std::string>> fields;
};

/**
 * The log itself. Usually accessed through global(); independently
 * instantiable for tests (per-instance rings, no cross-talk).
 */
class EventLog
{
  public:
    /** @param ringCapacity Events retained per thread between flushes. */
    explicit EventLog(std::size_t ringCapacity = 1024);

    EventLog(const EventLog &) = delete;
    EventLog &operator=(const EventLog &) = delete;

    /** The process-wide log (never destroyed). */
    static EventLog &global();

    /** Events below this level are dropped at the append site. */
    void setMinLevel(LogLevel level);
    LogLevel minLevel() const;

    /** Append one event to the calling thread's ring. */
    void emit(LogLevel level, std::string_view event,
              std::initializer_list<
                  std::pair<std::string_view, std::string>>
                  fields = {});

    /**
     * Drain every ring (oldest first, merged by elapsed_ns) as JSON
     * lines; rings are left empty. Overflow since the last flush is
     * reported as a leading `eventlog.dropped` warning per ring.
     */
    void flush(std::ostream &out);

    /** flush() appended to @p path. @return false on I/O failure. */
    bool flushToFile(const std::string &path);

    /** Events accepted (post level-filter) since construction/reset. */
    std::uint64_t totalEmitted() const;

    /** Events overwritten by ring overflow since construction/reset. */
    std::uint64_t totalDropped() const;

    /** Drop buffered events and zero the counters; rings stay valid. */
    void reset();

    /**
     * Best-effort flush of the GLOBAL log to @p path on
     * std::terminate, SIGSEGV, SIGBUS, SIGFPE and SIGABRT, then
     * rethrow/re-raise. The signal path is async-signal-safe: it
     * takes no locks and performs no allocation (see
     * flushCrashToFd), at the price of racy ring reads - acceptable
     * while the process is dying. Idempotent: later calls just
     * update the path.
     */
    static void installCrashFlush(const std::string &path);

    /**
     * Async-signal-safe drain of every ring to @p fd as JSON lines.
     * Takes NO locks and allocates NOTHING: rings are read through
     * ThreadRing::readUnlocked and formatted into a fixed stack
     * buffer with raw write(2) calls. Reads race with concurrent
     * writers by design - on the crash path the torn tail of a log
     * beats an empty file. Rings are NOT emptied (no state is
     * mutated), so a survivable caller (tests) can still flush()
     * normally afterwards. @return false if any write failed.
     */
    bool flushCrashToFd(int fd);

  private:
    ThreadRing<LogEvent> rings_;
    std::atomic<int> minLevel_{static_cast<int>(LogLevel::kDebug)};
    std::atomic<std::uint64_t> emitted_{0};
};

} // namespace lookhd::obs

#endif // LOOKHD_OBS_EVENTLOG_HPP
