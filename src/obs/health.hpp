/**
 * @file
 * Online margin-drift detection over the windowed time series,
 * rolled up into a machine-readable readiness verdict.
 *
 * On every closed window (obs/timeseries.hpp) a Population Stability
 * Index compares the window's confidence-margin distribution with a
 * reference folded from the first kDriftWarmupWindows windows of
 * live traffic. Building the reference from served traffic means it
 * is always scored by the same model form (precision, kernel) the
 * server serves, and holds the same kind of margin: serving records
 * confidence margins, which are never negative, while an offline
 * eval split records truth margins whose errors land below zero.
 *
 * HealthMonitor owns the collector, ring, and drift state behind one
 * annotated mutex; sample() is driven by the server's housekeeping
 * thread (or directly by tests with a synthetic clock - every
 * decision here is a pure function of the fed metrics, so tests are
 * deterministic). Results surface three ways: `window.*`/`drift.*`/
 * `serve.health.*` gauges+counters in the shared registry (hence
 * `lookhd_window_*`/`lookhd_drift_*` Prometheus families), JSON
 * bodies for /debug/health and /debug/windows, and verdict() for
 * /healthz.
 */

#ifndef LOOKHD_OBS_HEALTH_HPP
#define LOOKHD_OBS_HEALTH_HPP

#include <cstdint>
#include <string>
#include <vector>

#include "obs/timeseries.hpp"
#include "util/thread_annotations.hpp"

namespace lookhd::obs {

class JsonWriter;

/** PSI at or above which a judged window counts as drifted. */
inline constexpr double kDriftPsiThreshold = 0.25;

/** Windows of live traffic folded into the drift reference. */
inline constexpr std::size_t kDriftWarmupWindows = 3;

/** Windows with fewer margins than this are skipped entirely (too
 * little signal to judge a distribution). */
inline constexpr std::uint64_t kDriftMinMargins = 20;

/**
 * Population Stability Index between two discrete distributions given
 * as raw bucket counts: sum over buckets of (live-ref)*ln(live/ref)
 * on epsilon-smoothed fractions. 0 = identical; common operating
 * bands: < 0.1 stable, 0.1-0.25 moderate shift, > 0.25 drifted.
 * Returns 0 when either side is empty or the sizes differ.
 */
double populationStabilityIndex(const std::vector<double> &refFractions,
                                const std::vector<double> &liveFractions);

/** Counts-to-fractions helper for populationStabilityIndex. */
std::vector<double> bucketFractions(const std::uint64_t *counts,
                                    std::size_t n);

/** Point-in-time drift-detector state (for /debug/health + tests). */
struct DriftState
{
    bool violated = false;
    double psi = 0.0;
    std::uint64_t trips = 0;
    bool referenceReady = false;
    /** Margins folded into the warm-up reference. */
    std::uint64_t referenceCount = 0;
    double lastWindowMean = 0.0;
    std::uint64_t evaluatedWindows = 0;
};

/** Readiness verdict of the drift rule. */
struct HealthVerdict
{
    bool ready = true;
    /** "ok" | "drift". */
    std::string reason = "ok";
};

/**
 * Owns the window collector, ring, and drift state; thread-safe.
 * Publishes to the registry it samples from (counter
 * `serve.health.drift_trips`; gauges `window.*`, `drift.*`,
 * `serve.health.ok`).
 */
class HealthMonitor
{
  public:
    /** @p windowSeconds is the caller's sampling cadence; it sizes
     * /debug/windows?s=N clips and is reported, not enforced. */
    HealthMonitor(MetricRegistry &registry, QualityTelemetry &quality,
                  double windowSeconds);

    /**
     * Close the current window at monotonic @p nowNs, judge drift,
     * publish gauges, and return the window. @p wallMs optionally
     * wall-stamps the window for /debug/windows.
     */
    WindowStats sample(std::uint64_t nowNs, std::uint64_t wallMs = 0)
        LOOKHD_EXCLUDES(mutex_);

    HealthVerdict verdict() const LOOKHD_EXCLUDES(mutex_);
    DriftState driftState() const LOOKHD_EXCLUDES(mutex_);
    std::uint64_t windowsSampled() const LOOKHD_EXCLUDES(mutex_);

    /**
     * Write the {"ready":..,"reason":..,"window_seconds":..,
     * "windows_sampled":..,"drift":{..}} object for /debug/health.
     */
    void writeHealthJson(JsonWriter &w) const LOOKHD_EXCLUDES(mutex_);

    /**
     * Write {"window_seconds":..,"windows":[..]} covering the last
     * @p lastSeconds seconds (<= 0 = everything retained) for
     * /debug/windows.
     */
    void writeWindowsJson(JsonWriter &w, double lastSeconds) const
        LOOKHD_EXCLUDES(mutex_);

  private:
    void evaluateDrift(const WindowStats &w) LOOKHD_REQUIRES(mutex_);
    void publish(const WindowStats &w) LOOKHD_REQUIRES(mutex_);
    void writeWindowJson(JsonWriter &w, const WindowStats &win) const;

    MetricRegistry &registry_;
    const double windowSeconds_;

    mutable util::Mutex mutex_;
    WindowCollector collector_ LOOKHD_GUARDED_BY(mutex_);
    WindowRing ring_ LOOKHD_GUARDED_BY(mutex_);

    DriftState drift_ LOOKHD_GUARDED_BY(mutex_);
    /** Reference margin distribution as smoothable fractions. */
    std::vector<double> referenceFractions_ LOOKHD_GUARDED_BY(mutex_);
    /** Warm-up accumulation buffer (counts) until the reference is
     * frozen. */
    std::vector<std::uint64_t> warmupCounts_ LOOKHD_GUARDED_BY(mutex_);
    std::size_t warmupSeen_ LOOKHD_GUARDED_BY(mutex_) = 0;

    // Registry handles (valid forever; see obs/metrics.hpp).
    Counter &driftTrips_;
    Gauge &healthOk_;
};

} // namespace lookhd::obs

#endif // LOOKHD_OBS_HEALTH_HPP
