/**
 * @file
 * Tests for the observability layer: metric registry semantics, span
 * rollups and nesting, JSON emission, thread safety, and the
 * compiled-out gate.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "obs/json.hpp"
#include "obs/obs.hpp"

namespace {

using namespace lookhd;

// ---------------------------------------------------------------- JSON

TEST(JsonWriter, EmitsNestedDocument)
{
    obs::JsonWriter w;
    w.beginObject();
    w.kv("a", std::uint64_t{7});
    w.key("b").beginArray();
    w.value(1.5).value(true).null();
    w.endArray();
    w.kv("c", "x\"y\n");
    w.endObject();
    EXPECT_EQ(w.str(),
              "{\"a\":7,\"b\":[1.5,true,null],\"c\":\"x\\\"y\\n\"}");
}

TEST(JsonWriter, NonFiniteDoublesBecomeNull)
{
    obs::JsonWriter w;
    w.beginObject();
    w.kv("nan", std::nan(""));
    w.kv("inf", std::numeric_limits<double>::infinity());
    w.endObject();
    EXPECT_EQ(w.str(), "{\"nan\":null,\"inf\":null}");
}

TEST(JsonWriter, MisuseThrows)
{
    {
        obs::JsonWriter w;
        w.beginObject();
        // Value without a key inside an object.
        EXPECT_THROW(w.value(1.0), std::logic_error);
    }
    {
        obs::JsonWriter w;
        w.beginArray();
        // key() is only valid directly inside an object.
        EXPECT_THROW(w.key("k"), std::logic_error);
    }
    {
        obs::JsonWriter w;
        w.beginObject();
        w.key("k");
        // Two keys in a row.
        EXPECT_THROW(w.key("again"), std::logic_error);
    }
    {
        obs::JsonWriter w;
        w.beginObject();
        // Mismatched close.
        EXPECT_THROW(w.endArray(), std::logic_error);
    }
    {
        obs::JsonWriter w;
        w.beginObject();
        // Unfinished document.
        EXPECT_THROW(w.str(), std::logic_error);
    }
}

// ------------------------------------------------------------- metrics

TEST(Metrics, CounterAccumulatesAndResets)
{
    obs::MetricRegistry reg;
    obs::Counter &c = reg.counter("t.calls");
    c.add();
    c.add(41);
    EXPECT_EQ(c.value(), 42u);
    // Find-or-create returns the same handle.
    EXPECT_EQ(&reg.counter("t.calls"), &c);
    reg.reset();
    EXPECT_EQ(c.value(), 0u); // handle survives reset
}

TEST(Metrics, GaugeIsLastWriteWins)
{
    obs::MetricRegistry reg;
    obs::Gauge &g = reg.gauge("t.level");
    g.set(1.5);
    g.set(-3.0);
    EXPECT_DOUBLE_EQ(g.value(), -3.0);
}

TEST(Metrics, LatencyHistogramTracksExactMomentsAndPercentiles)
{
    obs::MetricRegistry reg;
    obs::LatencyHistogram &h = reg.latency("t.dur");
    EXPECT_EQ(h.count(), 0u);
    EXPECT_EQ(h.minNs(), 0u);
    EXPECT_DOUBLE_EQ(h.percentileNs(0.5), 0.0);

    const std::vector<std::uint64_t> samples{100, 200, 400, 800, 1600};
    for (auto s : samples)
        h.record(s);
    EXPECT_EQ(h.count(), samples.size());
    EXPECT_EQ(h.minNs(), 100u);
    EXPECT_EQ(h.maxNs(), 1600u);
    EXPECT_DOUBLE_EQ(h.meanNs(), 620.0);
    // Percentiles come from log-scale bins: one-bin accuracy, so
    // check the median lands within a bin width (~1.33x) of 400 ns
    // and the tails stay inside the observed range.
    const double p50 = h.percentileNs(0.5);
    EXPECT_GT(p50, 400.0 / 1.5);
    EXPECT_LT(p50, 400.0 * 1.5);
    EXPECT_GE(h.percentileNs(1.0), h.percentileNs(0.0));

    h.record(0); // zero clamps to 1 ns instead of breaking log10
    EXPECT_EQ(h.minNs(), 1u);
}

TEST(Metrics, RegistryJsonHasAllSections)
{
    obs::MetricRegistry reg;
    reg.counter("c.one").add(3);
    reg.gauge("g.one").set(2.5);
    reg.latency("l.one").record(1000);
    reg.setLabel("app", "unit-test");
    const std::string json = reg.toJson();
    EXPECT_NE(json.find("\"counters\":{\"c.one\":3}"),
              std::string::npos)
        << json;
    EXPECT_NE(json.find("\"g.one\":2.5"), std::string::npos) << json;
    EXPECT_NE(json.find("\"l.one\":{\"count\":1"), std::string::npos)
        << json;
    for (const char *field :
         {"min_ns", "max_ns", "mean_ns", "p50_ns", "p90_ns", "p99_ns"})
        EXPECT_NE(json.find(field), std::string::npos) << field;
    EXPECT_NE(json.find("\"labels\":{\"app\":\"unit-test\"}"),
              std::string::npos)
        << json;
}

TEST(Metrics, ConcurrentCounterIncrementsAreLossless)
{
    obs::MetricRegistry reg;
    constexpr int kThreads = 8;
    constexpr int kPerThread = 20000;
    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&reg] {
            // Exercise registration races too: every thread resolves
            // the same names itself.
            obs::Counter &c = reg.counter("mt.calls");
            obs::LatencyHistogram &h = reg.latency("mt.dur");
            for (int i = 0; i < kPerThread; ++i) {
                c.add();
                if (i % 100 == 0)
                    h.record(static_cast<std::uint64_t>(i + 1));
            }
        });
    }
    for (auto &t : threads)
        t.join();
    EXPECT_EQ(reg.counter("mt.calls").value(),
              static_cast<std::uint64_t>(kThreads) * kPerThread);
    EXPECT_EQ(reg.latency("mt.dur").count(),
              static_cast<std::uint64_t>(kThreads) * (kPerThread / 100));
}

// --------------------------------------------------------------- spans

#if LOOKHD_OBS_ENABLED

std::uint64_t
busyWork(std::uint64_t n)
{
    volatile std::uint64_t acc = 0;
    for (std::uint64_t i = 0; i < n; ++i)
        acc += i * i;
    return acc;
}

void
innerPhase()
{
    LOOKHD_SPAN("test.obs.inner", "train");
    busyWork(20000);
}

void
outerPhase()
{
    LOOKHD_SPAN("test.obs.outer", "train");
    busyWork(20000);
    innerPhase();
    innerPhase();
}

const obs::SpanStats *
findSpan(const std::vector<obs::SpanStats> &rollup,
         const std::string &name)
{
    for (const auto &s : rollup)
        if (s.name == name)
            return &s;
    return nullptr;
}

TEST(Spans, NestedSpansSplitSelfAndTotalTime)
{
    obs::resetSpans();
    outerPhase();
    const auto rollup = obs::spanRollup();
    const obs::SpanStats *outer = findSpan(rollup, "test.obs.outer");
    const obs::SpanStats *inner = findSpan(rollup, "test.obs.inner");
    ASSERT_NE(outer, nullptr);
    ASSERT_NE(inner, nullptr);
    EXPECT_EQ(outer->count, 1u);
    EXPECT_EQ(inner->count, 2u);
    EXPECT_EQ(outer->category, "train");
    // The child's total is exactly what the parent does not count as
    // self time: rollups sum to wall time without double counting.
    EXPECT_EQ(outer->selfNs + inner->totalNs, outer->totalNs);
    EXPECT_EQ(inner->selfNs, inner->totalNs); // leaf span
    EXPECT_EQ(obs::totalNsOf(rollup, "test.obs.outer"),
              outer->totalNs);
    EXPECT_EQ(obs::totalNsOf(rollup, "test.obs.absent"), 0u);
}

void
dupSiteA()
{
    LOOKHD_SPAN("test.obs.dup", "train");
}

void
dupSiteB()
{
    LOOKHD_SPAN("test.obs.dup", "train");
}

TEST(Spans, RollupMergesSitesSharingAName)
{
    obs::resetSpans();
    dupSiteA();
    dupSiteB();
    dupSiteB();
    const auto rollup = obs::spanRollup();
    std::size_t entries = 0;
    for (const auto &s : rollup)
        entries += s.name == "test.obs.dup";
    EXPECT_EQ(entries, 1u);
    const obs::SpanStats *dup = findSpan(rollup, "test.obs.dup");
    ASSERT_NE(dup, nullptr);
    EXPECT_EQ(dup->count, 3u);
}

TEST(Spans, RuntimeKillSwitchStopsAccumulation)
{
    obs::resetSpans();
    obs::setEnabled(false);
    outerPhase();
    const auto while_off = obs::spanRollup();
    EXPECT_EQ(findSpan(while_off, "test.obs.outer"), nullptr);
    obs::setEnabled(true);
    outerPhase();
    const auto while_on = obs::spanRollup();
    const obs::SpanStats *outer = findSpan(while_on, "test.obs.outer");
    ASSERT_NE(outer, nullptr);
    EXPECT_EQ(outer->count, 1u);
}

TEST(Spans, ChromeTraceExportsRecordedEvents)
{
    obs::resetSpans();
    // Events are opt-in; without tracing the ring stays empty.
    outerPhase();
    obs::setTracing(true);
    outerPhase();
    obs::setTracing(false);
    std::ostringstream out;
    obs::writeChromeTrace(out);
    const std::string doc = out.str();
    EXPECT_NE(doc.find("\"traceEvents\":["), std::string::npos);
    EXPECT_NE(doc.find("\"test.obs.inner\""), std::string::npos);
    EXPECT_NE(doc.find("\"ph\":\"X\""), std::string::npos);
    // One enabled outerPhase() = 3 events (outer + 2 inner).
    std::size_t events = 0;
    for (std::size_t pos = doc.find("\"ph\":\"X\"");
         pos != std::string::npos;
         pos = doc.find("\"ph\":\"X\"", pos + 1))
        ++events;
    EXPECT_EQ(events, 3u);
}

void
leafPhase()
{
    LOOKHD_SPAN("test.obs.leaf", "train");
}

TEST(Spans, ChromeTraceCountsDropsOfExitedThreads)
{
    // Overflow the per-thread event ring (2^14 events) by 100 on a
    // thread that then exits and by 100 on this one: the exported
    // drop count must include the exited thread's drops.
    constexpr int kSpans = (1 << 14) + 100;
    obs::resetSpans();
    obs::setTracing(true);
    std::thread exited([] {
        for (int i = 0; i < kSpans; ++i)
            leafPhase();
    });
    exited.join();
    for (int i = 0; i < kSpans; ++i)
        leafPhase();
    obs::setTracing(false);
    std::ostringstream out;
    obs::writeChromeTrace(out);
    const std::string doc = out.str();
    const std::size_t meta = doc.find("\"otherData\"");
    ASSERT_NE(meta, std::string::npos);
    EXPECT_NE(doc.find("\"dropped_events\":200", meta),
              std::string::npos)
        << doc.substr(meta);
}

TEST(Spans, ConcurrentSpansAccumulateLosslessly)
{
    obs::resetSpans();
    constexpr int kThreads = 4;
    constexpr int kPerThread = 500;
    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([] {
            for (int i = 0; i < kPerThread; ++i)
                outerPhase();
        });
    }
    for (auto &t : threads)
        t.join();
    const auto rollup = obs::spanRollup();
    const obs::SpanStats *outer = findSpan(rollup, "test.obs.outer");
    const obs::SpanStats *inner = findSpan(rollup, "test.obs.inner");
    ASSERT_NE(outer, nullptr);
    ASSERT_NE(inner, nullptr);
    EXPECT_EQ(outer->count,
              static_cast<std::uint64_t>(kThreads) * kPerThread);
    EXPECT_EQ(inner->count,
              static_cast<std::uint64_t>(kThreads) * kPerThread * 2);
    EXPECT_EQ(outer->selfNs + inner->totalNs, outer->totalNs);
}

TEST(ObsGate, MacrosRecordWhenCompiledIn)
{
    obs::MetricRegistry &reg = obs::MetricRegistry::global();
    const std::uint64_t before = reg.counter("test.gate.calls").value();
    LOOKHD_COUNT_ADD("test.gate.calls", 2);
    LOOKHD_GAUGE_SET("test.gate.level", 7);
    LOOKHD_LATENCY_NS("test.gate.dur", 1234);
    EXPECT_EQ(reg.counter("test.gate.calls").value(), before + 2);
    EXPECT_DOUBLE_EQ(reg.gauge("test.gate.level").value(), 7.0);
    EXPECT_GE(reg.latency("test.gate.dur").count(), 1u);
}

#else // !LOOKHD_OBS_ENABLED

TEST(ObsGate, MacrosAreNoOpsWhenCompiledOut)
{
    int evaluations = 0;
    auto touch = [&evaluations] {
        ++evaluations;
        return 1;
    };
    (void)touch;
    LOOKHD_SPAN("test.gate.span", "train");
    LOOKHD_COUNT_ADD("test.gate.calls", touch());
    LOOKHD_GAUGE_SET("test.gate.level", touch());
    LOOKHD_LATENCY_NS("test.gate.dur", touch());
    // Arguments must not be evaluated: no side effects when off.
    EXPECT_EQ(evaluations, 0);
    // And nothing reaches the registry or the span rollup.
    EXPECT_TRUE(obs::spanRollup().empty());
}

#endif // LOOKHD_OBS_ENABLED

} // namespace
