/**
 * @file
 * Tests for the windowed time-series layer (obs/timeseries.hpp):
 * cumulative-to-delta collection, per-window quantiles from bin
 * deltas, and ring retention. Everything
 * runs on a local registry/telemetry with synthetic clocks, so the
 * expectations are exact.
 */

#include <gtest/gtest.h>

#include <cstdint>

#include "obs/metrics.hpp"
#include "obs/quality.hpp"
#include "obs/timeseries.hpp"

namespace {

using namespace lookhd;
using namespace lookhd::obs;

constexpr std::uint64_t kSecondNs = 1'000'000'000ULL;

class CollectorTest : public ::testing::Test
{
  protected:
    MetricRegistry reg;
    QualityTelemetry quality;
    WindowCollector collector{reg, quality};
};

TEST_F(CollectorTest, FirstWindowReportsCumulativeAsDelta)
{
    reg.counter("serve.requests").add(10);
    reg.counter("serve.requests.bad").add(2);
    reg.latency("serve.request.latency").record(1000);

    const WindowStats w = collector.sample(kSecondNs, 1234);
    EXPECT_EQ(w.seq, 1u);
    EXPECT_EQ(w.wallMs, 1234u);
    EXPECT_EQ(w.durationS, 0.0); // no previous sample to span from
    EXPECT_EQ(w.ok, 10u);
    EXPECT_EQ(w.bad, 2u);
    EXPECT_EQ(w.overload, 0u);
    EXPECT_EQ(w.requests(), 12u);
    EXPECT_EQ(w.errors(), 2u);
    EXPECT_EQ(w.latencyCount, 1u);
}

TEST_F(CollectorTest, SecondWindowSeesOnlyTheDelta)
{
    reg.counter("serve.requests").add(10);
    collector.sample(kSecondNs);

    reg.counter("serve.requests").add(7);
    reg.counter("serve.requests.overload").add(3);
    const WindowStats w = collector.sample(3 * kSecondNs);
    EXPECT_EQ(w.seq, 2u);
    EXPECT_DOUBLE_EQ(w.durationS, 2.0);
    EXPECT_EQ(w.ok, 7u);
    EXPECT_EQ(w.overload, 3u);
    EXPECT_EQ(w.requests(), 10u);
    EXPECT_DOUBLE_EQ(w.ratePerS(), 5.0);
    EXPECT_DOUBLE_EQ(w.errorRatio(), 0.3);
}

TEST_F(CollectorTest, WindowQuantilesComeFromBinDeltas)
{
    // 1us traffic before the first window, 1ms traffic inside the
    // second: a cumulative histogram would put the second window's
    // p50 near 1us; the delta view must report ~1ms.
    LatencyHistogram &lat = reg.latency("serve.request.latency");
    for (int i = 0; i < 1000; ++i)
        lat.record(1'000);
    collector.sample(kSecondNs);

    for (int i = 0; i < 100; ++i)
        lat.record(1'000'000);
    const WindowStats w = collector.sample(2 * kSecondNs);
    EXPECT_EQ(w.latencyCount, 100u);
    EXPECT_GT(w.p50Ns, 300'000.0);
    EXPECT_GT(w.p99Ns, 300'000.0);
}

TEST_F(CollectorTest, MarginDeltasTrackTheWindowNotTheTotal)
{
    MarginHistogram &margins = quality.margins("serve.predict");
    for (int i = 0; i < 50; ++i)
        margins.record(0.8);
    collector.sample(kSecondNs);

    for (int i = 0; i < 30; ++i)
        margins.record(-0.5);
    const WindowStats w = collector.sample(2 * kSecondNs);
    EXPECT_EQ(w.marginCount, 30u);
    EXPECT_NEAR(w.marginMean, -0.5, 1e-9);
    EXPECT_DOUBLE_EQ(w.marginNegFrac, 1.0);
}

TEST_F(CollectorTest, CounterResetClampsAtZero)
{
    reg.counter("serve.requests").add(10);
    collector.sample(kSecondNs);
    reg.reset(); // test-only counter rollback
    reg.counter("serve.requests").add(4);
    const WindowStats w = collector.sample(2 * kSecondNs);
    // The 10 -> 4 step back must not underflow into a huge delta.
    EXPECT_EQ(w.ok, 4u);
}

TEST(WindowRing, WrapsKeepingTheNewestWindows)
{
    WindowRing ring(3);
    EXPECT_EQ(ring.capacity(), 3u);
    for (std::uint64_t s = 1; s <= 5; ++s) {
        WindowStats w;
        w.seq = s;
        ring.push(w);
    }
    ASSERT_EQ(ring.size(), 3u);
    EXPECT_EQ(ring.at(0).seq, 3u);
    EXPECT_EQ(ring.at(1).seq, 4u);
    EXPECT_EQ(ring.at(2).seq, 5u);
    EXPECT_EQ(ring.newest().seq, 5u);

    const std::vector<WindowStats> last = ring.lastN(2);
    ASSERT_EQ(last.size(), 2u);
    EXPECT_EQ(last[0].seq, 4u);
    EXPECT_EQ(last[1].seq, 5u);
    // Asking for more than retained returns what exists.
    EXPECT_EQ(ring.lastN(10).size(), 3u);
}

TEST(WindowRing, CapacityClampedToAtLeastOne)
{
    WindowRing ring(0);
    EXPECT_EQ(ring.capacity(), 1u);
    WindowStats w;
    w.seq = 9;
    ring.push(w);
    EXPECT_EQ(ring.newest().seq, 9u);
}

} // namespace
