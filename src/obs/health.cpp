#include "obs/health.hpp"

#include <algorithm>
#include <cmath>

#include "obs/json.hpp"

namespace lookhd::obs {

// ------------------------------------------------------------------ PSI

double
populationStabilityIndex(const std::vector<double> &refFractions,
                         const std::vector<double> &liveFractions)
{
    if (refFractions.empty() ||
        refFractions.size() != liveFractions.size())
        return 0.0;
    // Epsilon smoothing keeps empty buckets from producing infinite
    // terms; with 22 buckets the floor contributes < 1e-3 total.
    constexpr double kEps = 1e-4;
    double psi = 0.0;
    for (std::size_t i = 0; i < refFractions.size(); ++i) {
        const double ref = std::max(refFractions[i], kEps);
        const double live = std::max(liveFractions[i], kEps);
        psi += (live - ref) * std::log(live / ref);
    }
    return psi;
}

std::vector<double>
bucketFractions(const std::uint64_t *counts, std::size_t n)
{
    std::vector<double> out(n, 0.0);
    std::uint64_t total = 0;
    for (std::size_t i = 0; i < n; ++i)
        total += counts[i];
    if (total == 0)
        return out;
    for (std::size_t i = 0; i < n; ++i)
        out[i] = static_cast<double>(counts[i]) /
                 static_cast<double>(total);
    return out;
}

// -------------------------------------------------------- HealthMonitor

namespace {

/** Windows retained for /debug/windows. */
constexpr std::size_t kWindowRingCapacity = 120;

HealthVerdict
verdictOf(const DriftState &drift)
{
    if (drift.violated)
        return {false, "drift"};
    return {true, "ok"};
}

} // namespace

HealthMonitor::HealthMonitor(MetricRegistry &registry,
                             QualityTelemetry &quality,
                             double windowSeconds)
    : registry_(registry), windowSeconds_(windowSeconds),
      collector_(registry, quality), ring_(kWindowRingCapacity),
      warmupCounts_(MarginHistogram::kNumBuckets, 0),
      driftTrips_(registry.counter("serve.health.drift_trips")),
      healthOk_(registry.gauge("serve.health.ok"))
{
    healthOk_.set(1.0);
}

WindowStats
HealthMonitor::sample(std::uint64_t nowNs, std::uint64_t wallMs)
{
    const util::MutexLock lock(mutex_);
    WindowStats w = collector_.sample(nowNs, wallMs);
    ring_.push(w);
    evaluateDrift(w);
    publish(w);
    return w;
}

void
HealthMonitor::evaluateDrift(const WindowStats &w)
{
    if (w.marginCount < kDriftMinMargins)
        return; // too little signal; hold current state
    drift_.lastWindowMean = w.marginMean;

    if (!drift_.referenceReady) {
        // Warm-up: fold live traffic into the reference.
        for (std::size_t i = 0; i < warmupCounts_.size(); ++i)
            warmupCounts_[i] += w.marginBuckets[i];
        drift_.referenceCount += w.marginCount;
        if (++warmupSeen_ >= kDriftWarmupWindows) {
            referenceFractions_ = bucketFractions(
                warmupCounts_.data(), warmupCounts_.size());
            drift_.referenceReady = true;
        }
        return;
    }

    ++drift_.evaluatedWindows;
    const std::vector<double> live = bucketFractions(
        w.marginBuckets.data(), w.marginBuckets.size());
    drift_.psi = populationStabilityIndex(referenceFractions_, live);
    const bool violatedNow = drift_.psi >= kDriftPsiThreshold;
    if (violatedNow && !drift_.violated) {
        ++drift_.trips;
        driftTrips_.add();
    }
    drift_.violated = violatedNow;
}

void
HealthMonitor::publish(const WindowStats &w)
{
    const auto setGauge = [this](const std::string &name, double v) {
        registry_.gauge(name).set(v);
    };
    setGauge("window.seq", static_cast<double>(w.seq));
    setGauge("window.duration_s", w.durationS);
    setGauge("window.requests", static_cast<double>(w.requests()));
    setGauge("window.rate_per_s", w.ratePerS());
    setGauge("window.error_ratio", w.errorRatio());
    setGauge("window.p50_ns", w.p50Ns);
    setGauge("window.p90_ns", w.p90Ns);
    setGauge("window.p99_ns", w.p99Ns);
    setGauge("window.margin_count",
             static_cast<double>(w.marginCount));
    setGauge("window.margin_mean", w.marginMean);
    setGauge("window.margin_neg_frac", w.marginNegFrac);
    setGauge("drift.psi", drift_.psi);
    setGauge("drift.reference_ready",
             drift_.referenceReady ? 1.0 : 0.0);
    setGauge("drift.violated", drift_.violated ? 1.0 : 0.0);
    healthOk_.set(drift_.violated ? 0.0 : 1.0);
}

HealthVerdict
HealthMonitor::verdict() const
{
    const util::MutexLock lock(mutex_);
    return verdictOf(drift_);
}

DriftState
HealthMonitor::driftState() const
{
    const util::MutexLock lock(mutex_);
    return drift_;
}

std::uint64_t
HealthMonitor::windowsSampled() const
{
    const util::MutexLock lock(mutex_);
    return ring_.size() == 0 ? 0 : ring_.newest().seq;
}

void
HealthMonitor::writeHealthJson(JsonWriter &w) const
{
    const util::MutexLock lock(mutex_);
    const HealthVerdict v = verdictOf(drift_);
    w.beginObject();
    w.kv("ready", v.ready);
    w.kv("reason", v.reason);
    w.kv("window_seconds", windowSeconds_);
    w.kv("windows_sampled",
         ring_.size() == 0 ? std::uint64_t{0} : ring_.newest().seq);
    w.key("drift").beginObject();
    w.kv("violated", drift_.violated);
    w.kv("psi", drift_.psi);
    w.kv("psi_threshold", kDriftPsiThreshold);
    w.kv("trips", drift_.trips);
    w.kv("reference_ready", drift_.referenceReady);
    w.kv("reference_count", drift_.referenceCount);
    w.kv("last_window_mean", drift_.lastWindowMean);
    w.kv("evaluated_windows", drift_.evaluatedWindows);
    w.kv("warmup_windows",
         static_cast<std::uint64_t>(kDriftWarmupWindows));
    w.endObject();
    w.endObject();
}

void
HealthMonitor::writeWindowJson(JsonWriter &w,
                               const WindowStats &win) const
{
    w.beginObject();
    w.kv("seq", win.seq);
    w.kv("wall_ms", win.wallMs);
    w.kv("duration_s", win.durationS);
    w.kv("requests", win.requests());
    w.kv("ok", win.ok);
    w.kv("bad", win.bad);
    w.kv("overload", win.overload);
    w.kv("rate_per_s", win.ratePerS());
    w.kv("error_ratio", win.errorRatio());
    w.kv("latency_count", win.latencyCount);
    w.kv("p50_ns", win.p50Ns);
    w.kv("p90_ns", win.p90Ns);
    w.kv("p99_ns", win.p99Ns);
    w.kv("margin_count", win.marginCount);
    w.kv("margin_mean", win.marginMean);
    w.kv("margin_neg_frac", win.marginNegFrac);
    w.endObject();
}

void
HealthMonitor::writeWindowsJson(JsonWriter &w,
                                double lastSeconds) const
{
    const util::MutexLock lock(mutex_);
    std::size_t n = ring_.size();
    if (lastSeconds > 0.0 && windowSeconds_ > 0.0) {
        const double want = std::ceil(lastSeconds / windowSeconds_);
        n = std::min(n, static_cast<std::size_t>(
                            std::max(want, 1.0)));
    }
    w.beginObject();
    w.kv("window_seconds", windowSeconds_);
    w.kv("count", static_cast<std::uint64_t>(n));
    w.key("windows").beginArray();
    for (const WindowStats &win : ring_.lastN(n))
        writeWindowJson(w, win);
    w.endArray();
    w.endObject();
}

} // namespace lookhd::obs
