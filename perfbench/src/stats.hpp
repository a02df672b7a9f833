/**
 * @file
 * The benchmark's own arithmetic: percentiles with their sample
 * counts, self time from nested spans, and the rate-ladder rule
 * behind serve_max_rps. Pure functions, unit-tested in
 * tests/stats_test.cpp.
 */

#ifndef PERFBENCH_STATS_HPP
#define PERFBENCH_STATS_HPP

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/**
 * Nearest-rank percentile: the smallest sample with at least
 * p percent of the sample at or below it. @p p in (0, 100];
 * @pre !samples.empty().
 */
double percentile(std::vector<double> samples, double p);

/**
 * How many of @p n samples lie beyond the nearest-rank @p p-th
 * percentile; a percentile is reported only when this is >= 10.
 */
std::size_t samplesBeyond(std::size_t n, double p);

/** Median of a sample (0 when empty). */
double median(std::vector<double> samples);

/** The p99 of one timing, with the sample count. */
struct Quantiles
{
    std::size_t n = 0;
    double p99 = 0;
    /** samplesBeyond(n, 99) >= 10, so the p99 is reportable. */
    bool p99Valid = false;
};

Quantiles quantiles(const std::vector<double> &samples);

/**
 * One timed interval of the traced run. Spans of one row share
 * @p row; @p parent indexes the enclosing span in the same vector
 * (-1 for a root).
 */
struct Span
{
    std::uint16_t name = 0;
    std::uint32_t row = 0;
    std::int32_t parent = -1;
    std::int64_t startNs = 0;
    std::int64_t endNs = 0;
};

/**
 * Self time of every span: its duration minus the part of its
 * interval covered by its direct children (overlapping children
 * counted once, children clipped to the parent's interval).
 */
std::vector<std::int64_t> selfTimesNs(const std::vector<Span> &spans);

/** One step of the serve rate ladder, as measured. */
struct LadderStep
{
    double targetRps = 0;
    /** Requests sent over the time from the step's start to its last
     * send. */
    double achievedRps = 0;
    std::size_t sent = 0;
    /** Responses that were "overloaded" rejections. */
    std::size_t rejected = 0;
    /** Malformed, missing, wrong-id or wrong-label responses. */
    std::size_t failed = 0;
    /** Latency p99 from due time to response, µs. */
    double p99Us = 0;
    /** Requests due minus requests answered, a quarter of the way
     * into the step's schedule and at its end. */
    std::size_t backlogEarly = 0;
    std::size_t backlogEnd = 0;
};

/** Limits a ladder step must meet to count as sustained. */
struct LadderLimits
{
    double p99LimitUs = 50'000;
    /** Backlog growth beyond max(minGrowth, growthFraction * sent)
     * between the early and end marks counts as growing. */
    std::size_t minGrowth = 64;
    double growthFraction = 0.02;
};

/** Why a step failed, or "ok". */
std::string judgeStep(const LadderStep &step, const LadderLimits &limits);

/**
 * The ladder's rates: from @p startRps up by @p coarse while steps
 * pass; after the first failure, the geometric midpoint of the highest
 * passing and the lowest failing rate, until they lie within
 * @p resolution of each other. When no step has passed yet, down by
 * @p coarse, until the rate would drop below @p floorRps.
 */
struct LadderPlan
{
    double startRps = 2500;
    double coarse = 1.5;
    double resolution = 1.05;
    double floorRps = 100;
};

/** The next target rate, or 0 when the ladder is done. */
double nextLadderRate(const std::vector<LadderStep> &steps,
                      const LadderLimits &limits, const LadderPlan &plan);

/**
 * serve_max_rps: the achieved rate of the highest-target passing step
 * below the lowest failing target (0 when no step passed).
 */
double maxSustainedRps(const std::vector<LadderStep> &steps,
                       const LadderLimits &limits);

} // namespace perfbench

#endif // PERFBENCH_STATS_HPP
