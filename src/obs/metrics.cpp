#include "obs/metrics.hpp"

#include <algorithm>
#include <cmath>

#include "obs/json.hpp"
#include "obs/thread_ring.hpp"

namespace lookhd::obs {

namespace {

// log10(ns) bin layout: 1 ns .. 10^12 ns (~17 min) at 8 bins per
// decade, constant ~33% relative bin width.
constexpr double kLogLo = 0.0;
constexpr double kLogHi = 12.0;
constexpr std::size_t kLogBins = 96;

/** Bin index of one observation, matching util::Histogram's
 * equal-width layout over [kLogLo, kLogHi] (clamped edge bins). */
std::size_t
logBinIndex(std::uint64_t clampedNs)
{
    constexpr double kBinWidth = (kLogHi - kLogLo) / kLogBins;
    const double logNs = std::log10(static_cast<double>(clampedNs));
    if (logNs <= kLogLo)
        return 0;
    const auto bin =
        static_cast<std::size_t>((logNs - kLogLo) / kBinWidth);
    return std::min(bin, kLogBins - 1);
}

} // namespace

LatencyHistogram::LatencyHistogram() : hist_(kLogLo, kLogHi, kLogBins)
{
}

void
LatencyHistogram::record(std::uint64_t ns)
{
    const std::uint64_t clamped = std::max<std::uint64_t>(ns, 1);
    const util::MutexLock lock(mutex_);
    hist_.add(std::log10(static_cast<double>(clamped)));
    if (count_ == 0 || clamped < minNs_)
        minNs_ = clamped;
    maxNs_ = std::max(maxNs_, clamped);
    sumNs_ += static_cast<double>(clamped);
    ++count_;
}

void
LatencyHistogram::record(std::uint64_t ns,
                         std::string_view exemplarTraceId)
{
    const std::uint64_t clamped = std::max<std::uint64_t>(ns, 1);
    const util::MutexLock lock(mutex_);
    hist_.add(std::log10(static_cast<double>(clamped)));
    if (count_ == 0 || clamped < minNs_)
        minNs_ = clamped;
    maxNs_ = std::max(maxNs_, clamped);
    sumNs_ += static_cast<double>(clamped);
    ++count_;
    if (!exemplars_.empty() && !exemplarTraceId.empty()) {
        LatencyExemplar &slot = exemplars_[logBinIndex(clamped)];
        slot.valueNs = static_cast<double>(clamped);
        slot.wallMs = wallClockMs();
        slot.traceId = std::string(exemplarTraceId);
    }
}

void
LatencyHistogram::enableExemplars()
{
    const util::MutexLock lock(mutex_);
    if (exemplars_.empty())
        exemplars_.resize(kLogBins);
}

std::uint64_t
LatencyHistogram::count() const
{
    const util::MutexLock lock(mutex_);
    return count_;
}

std::uint64_t
LatencyHistogram::minNs() const
{
    const util::MutexLock lock(mutex_);
    return minNs_;
}

std::uint64_t
LatencyHistogram::maxNs() const
{
    const util::MutexLock lock(mutex_);
    return maxNs_;
}

double
LatencyHistogram::meanNs() const
{
    const util::MutexLock lock(mutex_);
    return count_ == 0 ? 0.0 : sumNs_ / static_cast<double>(count_);
}

double
LatencyHistogram::percentileNs(double p) const
{
    return snapshot().percentileNs(p);
}

LatencySnapshot
LatencyHistogram::snapshot() const
{
    LatencySnapshot snap;
    snap.bucketUpperNs.reserve(kLogBins);
    snap.bucketCounts.reserve(kLogBins);
    constexpr double kBinWidth = (kLogHi - kLogLo) / kLogBins;
    for (std::size_t b = 0; b < kLogBins; ++b) {
        snap.bucketUpperNs.push_back(
            std::pow(10.0, kLogLo + kBinWidth *
                               static_cast<double>(b + 1)));
    }
    const util::MutexLock lock(mutex_);
    snap.count = count_;
    snap.minNs = minNs_;
    snap.maxNs = maxNs_;
    snap.sumNs = sumNs_;
    for (std::size_t b = 0; b < hist_.bins(); ++b)
        snap.bucketCounts.push_back(hist_.count(b));
    snap.exemplars = exemplars_;
    return snap;
}

double
LatencySnapshot::meanNs() const
{
    return count == 0 ? 0.0 : sumNs / static_cast<double>(count);
}

double
LatencySnapshot::percentileNs(double p) const
{
    if (count == 0)
        return 0.0;
    constexpr double kBinWidth = (kLogHi - kLogLo) / kLogBins;
    const double clamped_p = std::clamp(p, 0.0, 1.0);
    const auto target = static_cast<double>(count) * clamped_p;
    double cumulative = 0.0;
    for (std::size_t b = 0; b < bucketCounts.size(); ++b) {
        cumulative += static_cast<double>(bucketCounts[b]);
        if (cumulative >= target && bucketCounts[b] > 0) {
            // Same estimate as the bins' center (pre-snapshot
            // behaviour): upper edge shifted back half a bin width.
            return bucketUpperNs[b] *
                   std::pow(10.0, -kBinWidth / 2.0);
        }
    }
    return static_cast<double>(maxNs);
}

void
LatencyHistogram::reset()
{
    const util::MutexLock lock(mutex_);
    hist_ = util::Histogram(kLogLo, kLogHi, kLogBins);
    count_ = 0;
    minNs_ = 0;
    maxNs_ = 0;
    sumNs_ = 0.0;
    // Exemplar slots stay allocated (enableExemplars is sticky) but
    // forget their contents.
    for (LatencyExemplar &slot : exemplars_)
        slot = LatencyExemplar{};
}

MetricRegistry &
MetricRegistry::global()
{
    // Deliberately leaked: hot paths cache references to metrics in
    // function-local statics, which may be touched from static
    // destructors after a non-leaked registry would already be gone.
    static auto *registry = new MetricRegistry;
    return *registry;
}

Counter &
MetricRegistry::counter(const std::string &name)
{
    const util::MutexLock lock(mutex_);
    auto &slot = counters_[name];
    if (!slot)
        slot = std::make_unique<Counter>();
    return *slot;
}

Gauge &
MetricRegistry::gauge(const std::string &name)
{
    const util::MutexLock lock(mutex_);
    auto &slot = gauges_[name];
    if (!slot)
        slot = std::make_unique<Gauge>();
    return *slot;
}

LatencyHistogram &
MetricRegistry::latency(const std::string &name)
{
    const util::MutexLock lock(mutex_);
    auto &slot = latencies_[name];
    if (!slot)
        slot = std::make_unique<LatencyHistogram>();
    return *slot;
}

void
MetricRegistry::setLabel(const std::string &key,
                         const std::string &value)
{
    const util::MutexLock lock(mutex_);
    labels_[key] = value;
}

void
MetricRegistry::reset()
{
    const util::MutexLock lock(mutex_);
    for (auto &[name, c] : counters_)
        c->reset();
    for (auto &[name, g] : gauges_)
        g->reset();
    for (auto &[name, h] : latencies_)
        h->reset();
    labels_.clear();
}

RegistrySnapshot
MetricRegistry::snapshot() const
{
    RegistrySnapshot snap;
    const util::MutexLock lock(mutex_);
    for (const auto &[name, c] : counters_)
        snap.counters[name] = c->value();
    for (const auto &[name, g] : gauges_)
        snap.gauges[name] = g->value();
    for (const auto &[name, h] : latencies_)
        snap.latency[name] = h->snapshot();
    snap.labels = labels_;
    return snap;
}

void
MetricRegistry::writeJson(JsonWriter &w) const
{
    const RegistrySnapshot snap = snapshot();
    w.beginObject();
    w.key("counters").beginObject();
    for (const auto &[name, value] : snap.counters)
        w.kv(name, value);
    w.endObject();
    w.key("gauges").beginObject();
    for (const auto &[name, value] : snap.gauges)
        w.kv(name, value);
    w.endObject();
    w.key("latency").beginObject();
    for (const auto &[name, h] : snap.latency) {
        w.key(name).beginObject();
        w.kv("count", h.count);
        w.kv("min_ns", h.minNs);
        w.kv("max_ns", h.maxNs);
        w.kv("mean_ns", h.meanNs());
        w.kv("p50_ns", h.percentileNs(0.50));
        w.kv("p90_ns", h.percentileNs(0.90));
        w.kv("p99_ns", h.percentileNs(0.99));
        w.endObject();
    }
    w.endObject();
    w.key("labels").beginObject();
    for (const auto &[key, value] : snap.labels)
        w.kv(key, value);
    w.endObject();
    w.endObject();
}

std::string
MetricRegistry::toJson() const
{
    JsonWriter w;
    writeJson(w);
    return w.str();
}

} // namespace lookhd::obs
