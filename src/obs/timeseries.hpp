/**
 * @file
 * Windowed time-series layer over the cumulative metric registry.
 *
 * Every value in MetricRegistry is cumulative-since-start, which is
 * the right exposition contract (Prometheus rates over it) but the
 * wrong shape for in-process decisions: "p99 degraded in the last 30
 * seconds" and "one bad minute an hour ago" are indistinguishable in
 * a cumulative histogram. This module closes that gap with fixed
 * memory: a WindowCollector diffs successive registry/quality
 * snapshots (reusing the torn-read-free LatencySnapshot path, so a
 * window's count always equals the sum of its bucket deltas) into
 * WindowStats, and a WindowRing retains the last N windows for the
 * health evaluators in obs/health.hpp and the /debug/windows
 * endpoint.
 *
 * Per-window latency quantiles come from the *delta* of the log-scale
 * bins: subtracting two cumulative LatencySnapshots bin-wise yields a
 * valid histogram of exactly the events recorded inside the window,
 * so LatencySnapshot::percentileNs applies unchanged (one-bin-width
 * accuracy, ~5% relative). Margin-histogram deltas work the same way
 * via MarginSnapshot.
 *
 * Timestamps are caller-provided monotonic nanoseconds (the server
 * passes util::Timer::processNanoseconds(); tests pass synthetic
 * clocks for determinism). Nothing here reads a wall clock.
 *
 * Like the rest of the obs classes, this compiles unconditionally;
 * LOOKHD_OBS=OFF only removes the server-side sampler wiring (gated
 * on kWindowsCompiled, mirroring obs::kReqTraceCompiled).
 */

#ifndef LOOKHD_OBS_TIMESERIES_HPP
#define LOOKHD_OBS_TIMESERIES_HPP

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/quality.hpp"

// Normally injected as a PUBLIC compile definition by src/CMakeLists;
// default on for standalone inclusion (mirrors obs/reqtrace.hpp).
#ifndef LOOKHD_OBS_ENABLED
#define LOOKHD_OBS_ENABLED 1
#endif

namespace lookhd::obs {

/** True when the serve-side sampler/health wiring is compiled in. */
inline constexpr bool kWindowsCompiled = LOOKHD_OBS_ENABLED != 0;

/**
 * Aggregates of one sampling window: deltas between two consecutive
 * cumulative snapshots, plus derived rates/ratios/quantiles.
 */
struct WindowStats
{
    /** 1-based window sequence number. */
    std::uint64_t seq = 0;
    /** Monotonic ns at window close (caller's clock). */
    std::uint64_t closeNs = 0;
    /** Unix wall clock at window close, ms (0 when not stamped). */
    std::uint64_t wallMs = 0;
    /** Measured window span in seconds. */
    double durationS = 0.0;

    /** Request-outcome deltas. */
    std::uint64_t ok = 0;
    std::uint64_t bad = 0;
    std::uint64_t overload = 0;

    /** Latency deltas (from the request-latency histogram). */
    std::uint64_t latencyCount = 0;
    double latencyMeanNs = 0.0;
    double p50Ns = 0.0;
    double p90Ns = 0.0;
    double p99Ns = 0.0;
    /** Per-bin event deltas; empty until the histogram exists. */
    std::vector<std::uint64_t> latencyBuckets;

    /** Margin-histogram deltas (empty-window values are 0). */
    std::uint64_t marginCount = 0;
    double marginMean = 0.0;
    double marginNegFrac = 0.0;
    std::array<std::uint64_t, MarginHistogram::kNumBuckets>
        marginBuckets{};

    std::uint64_t requests() const { return ok + bad + overload; }
    std::uint64_t errors() const { return bad + overload; }
    /** requests()/durationS (0 for an empty/zero-length window). */
    double ratePerS() const;
    /** errors()/requests() (0 when no requests). */
    double errorRatio() const;
};

/**
 * Names of the cumulative metrics a WindowCollector diffs. Defaults
 * match the InferenceServer accounting; tests substitute their own.
 */
struct WindowSourceNames
{
    std::string okCounter = "serve.requests";
    std::string badCounter = "serve.requests.bad";
    std::string overloadCounter = "serve.requests.overload";
    std::string latencyHistogram = "serve.request.latency";
    std::string marginHistogram = "serve.predict";
};

/**
 * Diffs successive cumulative snapshots into WindowStats.
 *
 * Not internally synchronized: sample() mutates the retained
 * previous-snapshot state, so callers serialize calls (HealthMonitor
 * holds its mutex; a standalone collector belongs to one thread).
 * The underlying registry/quality reads are snapshot-consistent per
 * metric, safe against concurrent writers.
 */
class WindowCollector
{
  public:
    WindowCollector(MetricRegistry &registry,
                    QualityTelemetry &quality,
                    WindowSourceNames names = {});

    /**
     * Close one window ending at monotonic @p nowNs: returns the
     * delta against the previous sample() (or against construction
     * for the first window). @p wallMs is an optional wall-clock
     * stamp copied into the result.
     */
    WindowStats sample(std::uint64_t nowNs, std::uint64_t wallMs = 0);

    /** Upper bin edges of the latency histogram (ns), once seen. */
    const std::vector<double> &latencyUpperNs() const
    {
        return latencyUpperNs_;
    }

  private:
    MetricRegistry &registry_;
    QualityTelemetry &quality_;
    WindowSourceNames names_;

    std::uint64_t seq_ = 0;
    std::uint64_t prevNs_ = 0;
    bool primed_ = false;
    std::uint64_t prevOk_ = 0;
    std::uint64_t prevBad_ = 0;
    std::uint64_t prevOverload_ = 0;
    LatencySnapshot prevLatency_;
    MarginSnapshot prevMargin_;
    std::vector<double> latencyUpperNs_;
};

/**
 * Fixed-capacity ring of the most recent windows. Not internally
 * synchronized (HealthMonitor guards it).
 */
class WindowRing
{
  public:
    explicit WindowRing(std::size_t capacity);

    void push(WindowStats window);

    std::size_t size() const { return size_; }
    std::size_t capacity() const { return slots_.size(); }

    /** @p i = 0 is the OLDEST retained window, size()-1 the newest. */
    const WindowStats &at(std::size_t i) const;

    /** Newest window (size() must be > 0). */
    const WindowStats &newest() const { return at(size_ - 1); }

    /** Up to @p n most recent windows, oldest first. */
    std::vector<WindowStats> lastN(std::size_t n) const;

  private:
    std::vector<WindowStats> slots_;
    std::size_t head_ = 0; // next write position
    std::size_t size_ = 0;
};

/**
 * Sum the latency-bucket deltas of the last @p n windows of @p ring
 * into a LatencySnapshot (using @p upperNs edges) so cumulative-style
 * quantile math applies to multi-window aggregates. Windows recorded
 * before the latency histogram existed contribute nothing.
 */
LatencySnapshot aggregateLatency(const WindowRing &ring, std::size_t n,
                                 const std::vector<double> &upperNs);

} // namespace lookhd::obs

#endif // LOOKHD_OBS_TIMESERIES_HPP
