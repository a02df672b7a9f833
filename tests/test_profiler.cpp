/**
 * @file
 * Tests for the sampling CPU profiler (obs/profiler.hpp).
 *
 * The profiler samples thread CPU time, so the workload burns a
 * known amount of CPU (self-timed on CLOCK_THREAD_CPUTIME_ID) and
 * the assertions are phrased against the sampling math: at rate hz,
 * samples ~= cpu_seconds * hz, never more than the wall-clock
 * ceiling. The workload function has C linkage and external
 * visibility on purpose - dladdr can only name exported symbols, and
 * the dominant-frame assertion needs its name in the stacks.
 *
 * The export paths (collapsed / speedscope) are tested on hand-built
 * reports so they run on every build, including -DLOOKHD_OBS=OFF
 * where start() must refuse.
 */

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <ctime>
#include <string>

#include "obs/exposition.hpp"
#include "obs/metrics.hpp"
#include "obs/profiler.hpp"
#include "obs/reqtrace.hpp"

/**
 * Burn @p cpuSeconds of this thread's CPU time. extern "C" +
 * noinline so the symbol survives into every build's export table
 * and the profiler's stacks name it exactly.
 */
extern "C" __attribute__((noinline)) std::uint64_t
lookhdProfilerSpinWorkload(double cpuSeconds)
{
#if defined(__linux__)
    timespec start{};
    clock_gettime(CLOCK_THREAD_CPUTIME_ID, &start);
    std::uint64_t acc = 1469598103934665603ULL;
    for (;;) {
        for (int i = 0; i < (1 << 14); ++i) {
            acc ^= acc >> 33;
            acc *= 0xff51afd7ed558ccdULL;
        }
        timespec now{};
        clock_gettime(CLOCK_THREAD_CPUTIME_ID, &now);
        const double spent =
            static_cast<double>(now.tv_sec - start.tv_sec) +
            static_cast<double>(now.tv_nsec - start.tv_nsec) * 1e-9;
        if (spent >= cpuSeconds)
            return acc;
    }
#else
    (void)cpuSeconds;
    return 0;
#endif
}

namespace {

using namespace lookhd;

/** Samples whose stack mentions @p needle in any frame. */
std::uint64_t
samplesContaining(const obs::ProfileReport &report,
                  const std::string &needle)
{
    std::uint64_t hits = 0;
    for (const obs::ProfileStack &stack : report.stacks) {
        for (const std::string &frame : stack.frames) {
            if (frame.find(needle) != std::string::npos) {
                hits += stack.samples;
                break;
            }
        }
    }
    return hits;
}

TEST(ProfilerTest, SpinWorkloadDominatesSamples)
{
    if (!obs::kProfilerCompiled)
        GTEST_SKIP() << "profiler compiled out";
    obs::Profiler &profiler = obs::Profiler::global();
    obs::ProfileOptions opts;
    opts.hz = 199;
    ASSERT_TRUE(profiler.start(opts));
    lookhdProfilerSpinWorkload(1.0);
    profiler.stop();
    const obs::ProfileReport report = profiler.collect();

    EXPECT_EQ(report.hz, 199u);
    // 1.0 s of CPU at 199 Hz. The floor is deliberately loose (the
    // kernel may batch expirations under load); the ceiling is the
    // sampling-math bound plus slack for the test harness's own CPU.
    EXPECT_GE(report.samples, 60u);
    EXPECT_LE(report.samples + report.dropped, 300u);
    EXPECT_EQ(report.dropped, 0u)
        << "default ring overflowed a 1 s session";
    EXPECT_GT(report.durationNs, 500'000'000ull);

    const std::uint64_t hits =
        samplesContaining(report, "lookhdProfilerSpinWorkload");
    EXPECT_GE(hits * 10, report.samples * 9)
        << "only " << hits << " of " << report.samples
        << " samples hit the spin workload";
}

TEST(ProfilerTest, RingOverflowCountsDropsLosslessly)
{
    if (!obs::kProfilerCompiled)
        GTEST_SKIP() << "profiler compiled out";
    obs::Profiler &profiler = obs::Profiler::global();
    obs::ProfileOptions opts;
    opts.hz = 499;
    opts.ringCapacity = 8; // clamp floor: overflows in ~16 ms
    ASSERT_TRUE(profiler.start(opts));
    lookhdProfilerSpinWorkload(0.5);
    profiler.stop();
    const obs::ProfileReport report = profiler.collect();

    // ~250 expirations against an 8-deep ring drained only at stop:
    // the ring bounds what is kept, the drop counter owns the rest,
    // and nothing vanishes without being counted.
    EXPECT_LE(report.samples, 16u);
    EXPECT_GE(report.dropped, 1u);
    EXPECT_GE(report.samples + report.dropped, 9u);
}

TEST(ProfilerTest, StartIsExclusiveAndStopIdempotent)
{
    obs::Profiler &profiler = obs::Profiler::global();
    if (!obs::kProfilerCompiled) {
        EXPECT_FALSE(profiler.start());
        profiler.stop(); // must be harmless when compiled out
        EXPECT_TRUE(profiler.collect().empty());
        EXPECT_EQ(profiler.profileFor(0.05).hz, 0u);
        return;
    }
    ASSERT_TRUE(profiler.start());
    EXPECT_TRUE(profiler.running());
    EXPECT_FALSE(profiler.start()) << "second session while running";
    EXPECT_EQ(profiler.profileFor(0.05).hz, 0u)
        << "profileFor must refuse while a session runs";
    profiler.stop();
    profiler.stop(); // idempotent
    EXPECT_FALSE(profiler.running());
    ASSERT_TRUE(profiler.start()) << "restart after stop";
    profiler.stop();
    profiler.collect(); // leave no pending samples behind
}

TEST(ProfilerTest, StageAttributionFoldsIntoGauges)
{
    if (!obs::kProfilerCompiled)
        GTEST_SKIP() << "profiler compiled out";
    obs::Profiler &profiler = obs::Profiler::global();
    obs::ProfileOptions opts;
    opts.hz = 199;
    ASSERT_TRUE(profiler.start(opts));
    obs::profilerPublishStage(obs::ReqStage::kScore);
    lookhdProfilerSpinWorkload(0.5);
    obs::profilerPublishStage(obs::kProfileStageNone);
    profiler.stop();
    const obs::ProfileReport report = profiler.collect();

    ASSERT_GT(report.samples, 0u);
    const std::uint64_t score = report.stageSamples[
        static_cast<std::size_t>(obs::ReqStage::kScore)];
    EXPECT_GE(score * 10, report.samples * 9)
        << "spin under kScore attributed only " << score << " of "
        << report.samples << " samples to the score stage";

    const std::string prom = obs::renderPrometheus(
        obs::MetricRegistry::global().snapshot());
    EXPECT_NE(prom.find("lookhd_profile_stage_cpu_ns{stage=\"score\"}"),
              std::string::npos)
        << prom.substr(0, 400);
    EXPECT_NE(prom.find("lookhd_profile_samples"), std::string::npos);
    EXPECT_NE(prom.find("lookhd_profile_dropped"), std::string::npos);
}

TEST(ProfilerTest, ProfileForReturnsABoundedSession)
{
    obs::Profiler &profiler = obs::Profiler::global();
    const obs::ProfileReport report = profiler.profileFor(0.1, 97);
    if (!obs::kProfilerCompiled) {
        EXPECT_EQ(report.hz, 0u);
        return;
    }
    EXPECT_EQ(report.hz, 97u);
    EXPECT_FALSE(profiler.running());
    // A mostly-idle thread may legally produce zero samples; the
    // session itself must still report its rate and window.
    EXPECT_GT(report.durationNs, 50'000'000ull);
}

// The export paths have no OS or obs-gate dependency and must stay
// linked (and correct) on every build, including -DLOOKHD_OBS=OFF.
TEST(ProfilerTest, CollapsedAndSpeedscopeExports)
{
    obs::ProfileReport report;
    report.hz = 100;
    report.samples = 5;
    report.stacks.push_back({{"main", "kernel"}, 3});
    report.stacks.push_back({{"main"}, 2});

    EXPECT_EQ(report.collapsed(), "main;kernel 3\nmain 2\n");
    EXPECT_EQ(report.periodNs(), 10'000'000ull);

    const std::string json = report.speedscopeJson();
    EXPECT_NE(json.find("speedscope.app/file-format-schema.json"),
              std::string::npos);
    EXPECT_NE(json.find("\"type\":\"sampled\""), std::string::npos);
    EXPECT_NE(json.find("\"unit\":\"nanoseconds\""),
              std::string::npos);
    // endValue = total samples * period = 5 * 10 ms.
    EXPECT_NE(json.find("\"endValue\":50000000"), std::string::npos);
}

} // namespace
