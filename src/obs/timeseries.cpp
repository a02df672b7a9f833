#include "obs/timeseries.hpp"

#include <algorithm>

#include "util/check.hpp"

namespace lookhd::obs {

// ---------------------------------------------------------- WindowStats

double
WindowStats::ratePerS() const
{
    if (durationS <= 0.0)
        return 0.0;
    return static_cast<double>(requests()) / durationS;
}

double
WindowStats::errorRatio() const
{
    const std::uint64_t total = requests();
    if (total == 0)
        return 0.0;
    return static_cast<double>(errors()) / static_cast<double>(total);
}

// ------------------------------------------------------ WindowCollector

WindowCollector::WindowCollector(MetricRegistry &registry,
                                 QualityTelemetry &quality,
                                 WindowSourceNames names)
    : registry_(registry), quality_(quality), names_(std::move(names))
{
}

namespace {

/**
 * Bin-wise difference of two cumulative latency snapshots. The
 * previous snapshot may predate the histogram (empty bins); bins may
 * also appear between samples (first window after the histogram is
 * created), in which case the whole current state is the delta.
 */
LatencySnapshot
diffLatency(const LatencySnapshot &cur, const LatencySnapshot &prev)
{
    LatencySnapshot delta;
    delta.bucketUpperNs = cur.bucketUpperNs;
    delta.bucketCounts = cur.bucketCounts;
    if (prev.bucketCounts.size() == cur.bucketCounts.size()) {
        for (std::size_t i = 0; i < delta.bucketCounts.size(); ++i)
            delta.bucketCounts[i] -= prev.bucketCounts[i];
    }
    delta.count = cur.count - std::min(prev.count, cur.count);
    delta.sumNs = cur.sumNs - std::min(prev.sumNs, cur.sumNs);
    // Exact extrema are cumulative-only; the delta view does not use
    // them (percentiles come from the bins).
    return delta;
}

} // namespace

WindowStats
WindowCollector::sample(std::uint64_t nowNs, std::uint64_t wallMs)
{
    const RegistrySnapshot snap = registry_.snapshot();
    const auto counterValue = [&snap](const std::string &name) {
        const auto it = snap.counters.find(name);
        return it == snap.counters.end() ? std::uint64_t{0}
                                         : it->second;
    };
    const std::uint64_t ok = counterValue(names_.okCounter);
    const std::uint64_t bad = counterValue(names_.badCounter);
    const std::uint64_t overload = counterValue(names_.overloadCounter);

    LatencySnapshot lat;
    if (const auto it = snap.latency.find(names_.latencyHistogram);
        it != snap.latency.end())
        lat = it->second;
    const MarginSnapshot margin =
        quality_.margins(names_.marginHistogram).snapshot();

    WindowStats w;
    w.seq = ++seq_;
    w.closeNs = nowNs;
    w.wallMs = wallMs;
    if (primed_ && nowNs > prevNs_)
        w.durationS =
            static_cast<double>(nowNs - prevNs_) * 1e-9;

    // Counters are monotonic, but reset() in tests (and the
    // cross-metric snapshot skew documented in obs/metrics.hpp) can
    // make a value appear to step backwards; clamp deltas at 0.
    const auto delta = [this](std::uint64_t cur, std::uint64_t prev) {
        return primed_ && cur >= prev ? cur - prev : cur;
    };
    w.ok = delta(ok, prevOk_);
    w.bad = delta(bad, prevBad_);
    w.overload = delta(overload, prevOverload_);

    const LatencySnapshot latDelta =
        primed_ ? diffLatency(lat, prevLatency_) : lat;
    w.latencyCount = latDelta.count;
    w.latencyMeanNs = latDelta.meanNs();
    w.p50Ns = latDelta.percentileNs(0.50);
    w.p90Ns = latDelta.percentileNs(0.90);
    w.p99Ns = latDelta.percentileNs(0.99);
    w.latencyBuckets = latDelta.bucketCounts;
    if (!lat.bucketUpperNs.empty())
        latencyUpperNs_ = lat.bucketUpperNs;

    if (primed_ && margin.count >= prevMargin_.count) {
        w.marginCount = margin.count - prevMargin_.count;
        const double sumDelta = margin.sum - prevMargin_.sum;
        w.marginMean = w.marginCount == 0
                           ? 0.0
                           : sumDelta /
                                 static_cast<double>(w.marginCount);
        for (std::size_t i = 0; i < w.marginBuckets.size(); ++i)
            w.marginBuckets[i] =
                margin.buckets[i] - prevMargin_.buckets[i];
    } else {
        w.marginCount = margin.count;
        w.marginMean = margin.mean();
        w.marginBuckets = margin.buckets;
    }
    w.marginNegFrac =
        w.marginCount == 0
            ? 0.0
            : static_cast<double>(w.marginBuckets[0]) /
                  static_cast<double>(w.marginCount);

    prevNs_ = nowNs;
    primed_ = true;
    prevOk_ = ok;
    prevBad_ = bad;
    prevOverload_ = overload;
    prevLatency_ = lat;
    prevMargin_ = margin;
    return w;
}

// ----------------------------------------------------------- WindowRing

WindowRing::WindowRing(std::size_t capacity)
    : slots_(std::max<std::size_t>(capacity, 1))
{
}

void
WindowRing::push(WindowStats window)
{
    slots_[head_] = std::move(window);
    head_ = (head_ + 1) % slots_.size();
    if (size_ < slots_.size())
        ++size_;
}

const WindowStats &
WindowRing::at(std::size_t i) const
{
    LOOKHD_CHECK(i < size_, "WindowRing index out of range");
    // head_ points one past the newest; the oldest retained window
    // sits at head_ when full, at 0 while filling.
    const std::size_t oldest =
        size_ == slots_.size() ? head_ : 0;
    return slots_[(oldest + i) % slots_.size()];
}

std::vector<WindowStats>
WindowRing::lastN(std::size_t n) const
{
    const std::size_t take = std::min(n, size_);
    std::vector<WindowStats> out;
    out.reserve(take);
    for (std::size_t i = size_ - take; i < size_; ++i)
        out.push_back(at(i));
    return out;
}

LatencySnapshot
aggregateLatency(const WindowRing &ring, std::size_t n,
                 const std::vector<double> &upperNs)
{
    LatencySnapshot agg;
    agg.bucketUpperNs = upperNs;
    agg.bucketCounts.assign(upperNs.size(), 0);
    const std::size_t take = std::min(n, ring.size());
    for (std::size_t i = ring.size() - take; i < ring.size(); ++i) {
        const WindowStats &w = ring.at(i);
        if (w.latencyBuckets.size() != agg.bucketCounts.size())
            continue;
        agg.count += w.latencyCount;
        agg.sumNs += w.latencyMeanNs *
                     static_cast<double>(w.latencyCount);
        for (std::size_t b = 0; b < agg.bucketCounts.size(); ++b)
            agg.bucketCounts[b] += w.latencyBuckets[b];
    }
    return agg;
}

} // namespace lookhd::obs
