#include "quant/quantizer.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "obs/obs.hpp"
#include "util/check.hpp"

namespace lookhd::quant {

namespace {

void
checkFitArgs(std::span<const double> sample, std::size_t levels)
{
    LOOKHD_CHECK(levels >= 2, "quantizer needs at least 2 levels");
    LOOKHD_CHECK(!sample.empty(), "cannot fit quantizer on empty sample");
}

/**
 * Emit fit-time bin-occupancy telemetry for a freshly fitted
 * quantizer (quant.fit.* counters/gauges; see ARCHITECTURE.md's
 * quality-metric taxonomy). No-op when observability is compiled
 * out or disabled at runtime.
 */
void
recordFitTelemetry(const Quantizer &q, std::span<const double> sample)
{
#if LOOKHD_OBS_ENABLED
    if (!obs::enabled())
        return;
    const std::vector<std::size_t> counts = occupancy(q, sample);
    std::size_t collapsed = 0;
    std::size_t peak = 0;
    for (const std::size_t c : counts) {
        if (c == 0)
            ++collapsed;
        peak = std::max(peak, c);
    }
    LOOKHD_COUNT_ADD("quant.fit.calls", 1);
    LOOKHD_COUNT_ADD("quant.fit.collapsed_bins", collapsed);
    LOOKHD_GAUGE_SET("quant.fit.occupancy_entropy",
                     occupancyEntropy(counts));
    if (!sample.empty())
        LOOKHD_GAUGE_SET("quant.fit.occupancy_peak_frac",
                         static_cast<double>(peak) /
                             static_cast<double>(sample.size()));
#else
    (void)q;
    (void)sample;
#endif
}

} // namespace

Quantizer::Quantizer(std::vector<double> bounds)
    : bounds_(std::move(bounds))
{
    LOOKHD_CHECK(!bounds_.empty(), "quantizer needs at least one boundary");
    LOOKHD_CHECK(std::is_sorted(bounds_.begin(), bounds_.end()),
                 "boundaries must be ascending");
}

std::vector<std::size_t>
Quantizer::levelsOf(std::span<const double> values) const
{
    std::vector<std::size_t> out(values.size());
    for (std::size_t i = 0; i < values.size(); ++i)
        out[i] = level(values[i]);
    return out;
}

Quantizer
fitLinear(std::span<const double> sample, std::size_t levels)
{
    checkFitArgs(sample, levels);
    const auto [lo, hi] = std::minmax_element(sample.begin(), sample.end());
    const double min = *lo;
    const double max = *hi;
    std::vector<double> bounds(levels - 1,
                               std::numeric_limits<double>::infinity());
    if (max != min) {
        const double width = (max - min) / static_cast<double>(levels);
        for (std::size_t i = 1; i < levels; ++i)
            bounds[i - 1] = min + width * static_cast<double>(i);
    }
    Quantizer q(std::move(bounds));
    recordFitTelemetry(q, sample);
    return q;
}

Quantizer
fitEqualized(std::span<const double> sample, std::size_t levels)
{
    checkFitArgs(sample, levels);
    std::vector<double> sorted(sample.begin(), sample.end());
    std::sort(sorted.begin(), sorted.end());

    std::vector<double> bounds;
    bounds.reserve(levels - 1);
    for (std::size_t i = 1; i < levels; ++i) {
        // Boundary at the i/q quantile: index into the sorted sample.
        const std::size_t idx = std::min(
            sorted.size() - 1, i * sorted.size() / levels);
        bounds.push_back(sorted[idx]);
    }
    Quantizer q(std::move(bounds));
    recordFitTelemetry(q, sample);
    return q;
}

std::vector<std::size_t>
occupancy(const Quantizer &q, std::span<const double> sample)
{
    std::vector<std::size_t> counts(q.levels(), 0);
    for (const double v : sample)
        ++counts[q.level(v)];
    return counts;
}

double
occupancyEntropy(const std::vector<std::size_t> &counts)
{
    if (counts.size() < 2)
        return 0.0;
    std::size_t total = 0;
    for (const std::size_t c : counts)
        total += c;
    if (total == 0)
        return 0.0;
    double entropy = 0.0;
    for (const std::size_t c : counts) {
        if (c == 0)
            continue;
        const double p =
            static_cast<double>(c) / static_cast<double>(total);
        entropy -= p * std::log2(p);
    }
    return entropy / std::log2(static_cast<double>(counts.size()));
}

} // namespace lookhd::quant
