/**
 * @file
 * Tests of the benchmark's own arithmetic: percentiles and their
 * sample counts, self time from nested spans, the rate ladder and its
 * backlog rule, and the /metrics parser the serve stages come from.
 *
 *   cmake --build .bench_build --target perfbench_tests
 *   .bench_build/perfbench_tests
 */

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <stdexcept>
#include <string>
#include <vector>

#include "loadgen.hpp"
#include "stats.hpp"

namespace {

int failures = 0;

void
check(bool ok, const char *what, int line)
{
    if (!ok) {
        std::printf("FAIL line %d: %s\n", line, what);
        ++failures;
    }
}

#define CHECK(cond) check((cond), #cond, __LINE__)

bool
near(double a, double b)
{
    return std::fabs(a - b) <= 1e-9 * std::max(1.0, std::fabs(b));
}

std::vector<double>
oneTo(int n)
{
    std::vector<double> v;
    for (int i = n; i >= 1; --i) // unsorted on purpose
        v.push_back(i);
    return v;
}

void
testPercentiles()
{
    using namespace perfbench;
    const std::vector<double> hundred = oneTo(100);
    CHECK(percentile(hundred, 50) == 50);
    CHECK(percentile(hundred, 99) == 99);
    CHECK(percentile(hundred, 100) == 100);
    CHECK(percentile({7.0}, 99) == 7);
    CHECK(percentile(oneTo(1000), 99) == 990);

    // Samples strictly beyond the nearest-rank percentile.
    CHECK(samplesBeyond(100, 99) == 1);
    CHECK(samplesBeyond(1000, 99) == 10);
    CHECK(samplesBeyond(999, 99) == 9);
    CHECK(samplesBeyond(0, 99) == 0);

    // p99 is reportable only with at least ten samples beyond it.
    CHECK(!quantiles(oneTo(999)).p99Valid);
    const Quantiles q = quantiles(oneTo(1000));
    CHECK(q.p99Valid && q.n == 1000 && q.p99 == 990);

    CHECK(median({3.0, 1.0, 2.0}) == 2);
    CHECK(median({4.0, 1.0, 3.0, 2.0}) == 2.5);
    CHECK(median({}) == 0);

    bool threw = false;
    try {
        percentile({}, 50);
    } catch (const std::invalid_argument &) {
        threw = true;
    }
    CHECK(threw);
}

void
testSelfTimes()
{
    using perfbench::Span;
    // 0: root [0, 100]
    //   1: child [10, 30] with grandchild 2 [15, 20]
    //   3: child [20, 50], overlapping child 1
    //   4: child [90, 120], clipped to the root's end
    // 5: a second root [200, 210] with no children
    const std::vector<Span> spans = {
        {0, 1, -1, 0, 100},  {1, 1, 0, 10, 30},  {2, 1, 1, 15, 20},
        {3, 1, 0, 20, 50},   {4, 1, 0, 90, 120}, {0, 2, -1, 200, 210},
    };
    const std::vector<std::int64_t> self = perfbench::selfTimesNs(spans);
    CHECK(self.size() == spans.size());
    // Root: 100 minus [10, 50] (40) minus [90, 100] (10); the grandchild
    // is the child's business, not the root's.
    CHECK(self[0] == 50);
    CHECK(self[1] == 15);
    CHECK(self[2] == 5);
    CHECK(self[3] == 30);
    CHECK(self[4] == 30);
    CHECK(self[5] == 10);

    // Children covering the parent exactly leave no self time.
    const std::vector<Span> tiled = {
        {0, 0, -1, 0, 10}, {1, 0, 0, 0, 4}, {2, 0, 0, 4, 10}};
    CHECK(perfbench::selfTimesNs(tiled)[0] == 0);

    bool threw = false;
    try {
        perfbench::selfTimesNs({{0, 0, 3, 0, 1}});
    } catch (const std::invalid_argument &) {
        threw = true;
    }
    CHECK(threw);
}

perfbench::LadderStep
step(double target, bool ok)
{
    perfbench::LadderStep s;
    s.targetRps = target;
    s.achievedRps = target * 1.01;
    s.sent = 1000;
    s.p99Us = ok ? 2000 : 80'000;
    return s;
}

void
testLadderRule()
{
    using namespace perfbench;
    const LadderLimits limits;
    LadderStep s = step(2500, true);
    CHECK(judgeStep(s, limits) == "ok");

    LadderStep bad = s;
    bad.failed = 1;
    CHECK(judgeStep(bad, limits) == "failed responses");
    bad = s;
    bad.rejected = 1;
    CHECK(judgeStep(bad, limits) == "overloaded rejections");
    bad = s;
    bad.p99Us = 50'001;
    CHECK(judgeStep(bad, limits) == "p99 over the latency limit");
    bad = s;
    bad.sent = 0;
    CHECK(judgeStep(bad, limits) == "no requests sent");

    // Backlog: growth beyond max(64, 2% of sent) between the marks.
    LadderStep backlog = s;
    backlog.sent = 10'000;
    backlog.backlogEarly = 30;
    backlog.backlogEnd = 30 + 200;
    CHECK(judgeStep(backlog, limits) == "ok");
    backlog.backlogEnd = 30 + 201;
    CHECK(judgeStep(backlog, limits) == "growing backlog");
    backlog.sent = 1000;
    backlog.backlogEnd = 30 + 64;
    CHECK(judgeStep(backlog, limits) == "ok");
    backlog.backlogEnd = 30 + 65;
    CHECK(judgeStep(backlog, limits) == "growing backlog");
    // A backlog that shrinks is not growing.
    backlog.backlogEarly = 500;
    backlog.backlogEnd = 10;
    CHECK(judgeStep(backlog, limits) == "ok");
}

void
testLadderRates()
{
    using namespace perfbench;
    const LadderLimits limits;
    const LadderPlan plan;
    std::vector<LadderStep> steps;
    CHECK(nextLadderRate(steps, limits, plan) == 2500);

    // Coarse while passing.
    steps.push_back(step(2500, true));
    CHECK(near(nextLadderRate(steps, limits, plan), 3750));
    steps.push_back(step(3750, true));
    steps.push_back(step(5625, false));
    // Then bisect between the best pass and the lowest failure.
    const double mid = std::sqrt(3750.0 * 5625.0);
    CHECK(near(nextLadderRate(steps, limits, plan), mid));
    steps.push_back(step(mid, true));
    const double mid2 = std::sqrt(mid * 5625.0);
    CHECK(near(nextLadderRate(steps, limits, plan), mid2));
    steps.push_back(step(mid2, false));
    // Until the bracket is within the resolution.
    double next = nextLadderRate(steps, limits, plan);
    while (next > 0) {
        steps.push_back(step(next, true));
        next = nextLadderRate(steps, limits, plan);
    }
    double bestPass = 0;
    for (const LadderStep &s : steps)
        if (judgeStep(s, limits) == "ok")
            bestPass = std::max(bestPass, s.targetRps);
    CHECK(mid2 / bestPass <= plan.resolution);
    CHECK(near(maxSustainedRps(steps, limits), bestPass * 1.01));

    // A first failure sends the ladder down, not below the floor.
    std::vector<LadderStep> down = {step(2500, false)};
    CHECK(near(nextLadderRate(down, limits, plan), 2500 / 1.5));
    std::vector<LadderStep> floor = {step(120, false)};
    CHECK(nextLadderRate(floor, limits, plan) == 0);
    CHECK(maxSustainedRps(floor, limits) == 0);

    // A pass above the lowest failure does not count.
    const std::vector<LadderStep> noisy = {step(2500, true), step(3000, false),
                                           step(4000, true)};
    CHECK(near(maxSustainedRps(noisy, limits), 2500 * 1.01));
}

void
testPrometheusParse()
{
    const std::string text =
        "# HELP lookhd_serve_requests_total requests\n"
        "# TYPE lookhd_serve_requests_total counter\n"
        "lookhd_serve_requests_total 1234\n"
        "lookhd_serve_stage_ns_sum{stage=\"parse\"} 5.5e+06\n"
        "lookhd_build_info{app=\"a b\",precision=\"int8\"} 1\n"
        "lookhd_x_bucket{le=\"+Inf\"} 7 # {trace_id=\"ab\"} 3\n"
        "lookhd_odd{v=\"has } and \\\" inside\"} 2\n"
        "garbage_without_value\n";
    const auto m = perfbench::parsePrometheus(text);
    CHECK(m.size() == 5);
    CHECK(m.at("lookhd_serve_requests_total") == 1234);
    CHECK(m.at("lookhd_serve_stage_ns_sum{stage=\"parse\"}") == 5.5e6);
    CHECK(m.at("lookhd_build_info{app=\"a b\",precision=\"int8\"}") == 1);
    CHECK(m.at("lookhd_x_bucket{le=\"+Inf\"}") == 7);
    CHECK(m.at("lookhd_odd{v=\"has } and \\\" inside\"}") == 2);
}

} // namespace

int
main()
{
    testPercentiles();
    testSelfTimes();
    testLadderRule();
    testLadderRates();
    testPrometheusParse();
    if (failures == 0)
        std::printf("perfbench_tests: all passed\n");
    return failures == 0 ? 0 : 1;
}
