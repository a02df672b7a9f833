#include "stats.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <utility>
#include <stdexcept>

namespace perfbench {

namespace {

/** 1-based nearest rank of the p-th percentile of n samples. */
std::size_t
nearestRank(std::size_t n, double p)
{
    if (n == 0 || !(p > 0 && p <= 100))
        throw std::invalid_argument("percentile of an empty sample or "
                                    "with p outside (0, 100]");
    // p / 100 * n rounded up; the epsilon keeps 99 * 1000 / 100 == 990
    // exact despite binary rounding of p / 100.
    const double exact = p / 100.0 * static_cast<double>(n);
    const auto rank = static_cast<std::size_t>(std::ceil(exact - 1e-9));
    return std::clamp<std::size_t>(rank, 1, n);
}

} // namespace

double
percentile(std::vector<double> samples, double p)
{
    const std::size_t rank = nearestRank(samples.size(), p);
    const auto nth = samples.begin() + static_cast<std::ptrdiff_t>(rank - 1);
    std::nth_element(samples.begin(), nth, samples.end());
    return *nth;
}

std::size_t
samplesBeyond(std::size_t n, double p)
{
    return n == 0 ? 0 : n - nearestRank(n, p);
}

double
median(std::vector<double> samples)
{
    if (samples.empty())
        return 0;
    std::sort(samples.begin(), samples.end());
    const std::size_t n = samples.size();
    return n % 2 == 1 ? samples[n / 2]
                      : (samples[n / 2 - 1] + samples[n / 2]) / 2;
}

Quantiles
quantiles(const std::vector<double> &samples)
{
    Quantiles q;
    q.n = samples.size();
    if (q.n == 0)
        return q;
    q.p99 = percentile(samples, 99);
    q.p99Valid = samplesBeyond(q.n, 99) >= 10;
    return q;
}

std::vector<std::int64_t>
selfTimesNs(const std::vector<Span> &spans)
{
    std::vector<std::vector<std::size_t>> children(spans.size());
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const std::int32_t p = spans[i].parent;
        if (p < 0)
            continue;
        if (static_cast<std::size_t>(p) >= spans.size())
            throw std::invalid_argument("span parent out of range");
        children[static_cast<std::size_t>(p)].push_back(i);
    }
    std::vector<std::int64_t> self(spans.size());
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const Span &s = spans[i];
        std::vector<std::pair<std::int64_t, std::int64_t>> cover;
        for (const std::size_t c : children[i]) {
            const std::int64_t lo = std::max(spans[c].startNs, s.startNs);
            const std::int64_t hi = std::min(spans[c].endNs, s.endNs);
            if (hi > lo)
                cover.emplace_back(lo, hi);
        }
        std::sort(cover.begin(), cover.end());
        std::int64_t covered = 0;
        std::int64_t reach = s.startNs;
        for (const auto &[lo, hi] : cover) {
            const std::int64_t from = std::max(lo, reach);
            if (hi > from)
                covered += hi - from;
            reach = std::max(reach, hi);
        }
        self[i] = (s.endNs - s.startNs) - covered;
    }
    return self;
}

std::string
judgeStep(const LadderStep &step, const LadderLimits &limits)
{
    if (step.sent == 0)
        return "no requests sent";
    if (step.failed > 0)
        return "failed responses";
    if (step.rejected > 0)
        return "overloaded rejections";
    if (step.p99Us > limits.p99LimitUs)
        return "p99 over the latency limit";
    const double allowed =
        std::max(static_cast<double>(limits.minGrowth),
                 limits.growthFraction * static_cast<double>(step.sent));
    if (static_cast<double>(step.backlogEnd) -
            static_cast<double>(step.backlogEarly) >
        allowed)
        return "growing backlog";
    return "ok";
}

namespace {

/** Highest passing and lowest failing targets (0 / +inf when none). */
std::pair<double, double>
ladderBounds(const std::vector<LadderStep> &steps, const LadderLimits &limits)
{
    double bestPass = 0;
    double lowFail = std::numeric_limits<double>::infinity();
    for (const LadderStep &step : steps) {
        if (judgeStep(step, limits) == "ok")
            bestPass = std::max(bestPass, step.targetRps);
        else
            lowFail = std::min(lowFail, step.targetRps);
    }
    return {bestPass, lowFail};
}

} // namespace

double
nextLadderRate(const std::vector<LadderStep> &steps,
               const LadderLimits &limits, const LadderPlan &plan)
{
    if (steps.empty())
        return plan.startRps;
    const auto [bestPass, lowFail] = ladderBounds(steps, limits);
    if (std::isinf(lowFail))
        return steps.back().targetRps * plan.coarse;
    if (bestPass == 0) {
        const double down = lowFail / plan.coarse;
        return down >= plan.floorRps ? down : 0;
    }
    return lowFail / bestPass > plan.resolution
               ? std::sqrt(bestPass * lowFail)
               : 0;
}

double
maxSustainedRps(const std::vector<LadderStep> &steps,
                const LadderLimits &limits)
{
    const double lowFail = ladderBounds(steps, limits).second;
    double best = 0;
    double bestTarget = 0;
    for (const LadderStep &step : steps) {
        if (step.targetRps < lowFail && step.targetRps > bestTarget &&
            judgeStep(step, limits) == "ok") {
            bestTarget = step.targetRps;
            best = step.achievedRps;
        }
    }
    return best;
}

} // namespace perfbench
