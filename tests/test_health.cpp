/**
 * @file
 * Tests for the drift rule (obs/health.hpp): PSI units, the
 * deterministic margin-shift drift trip against the warm-up
 * reference, and the published gauges and JSON bodies. Every test
 * drives a local registry/telemetry with a synthetic clock; no
 * threads, no wall time.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "obs/health.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "obs/quality.hpp"
#include "serve/jsonin.hpp"

namespace {

using namespace lookhd;
using namespace lookhd::obs;

constexpr std::uint64_t kSecondNs = 1'000'000'000ULL;

// ------------------------------------------------------------------- PSI

TEST(Psi, IdenticalDistributionsScoreNearZero)
{
    const std::vector<double> ref = {0.25, 0.25, 0.25, 0.25};
    EXPECT_NEAR(populationStabilityIndex(ref, ref), 0.0, 1e-12);
}

TEST(Psi, ShiftedDistributionScoresAboveDriftBand)
{
    const std::vector<double> ref = {0.7, 0.2, 0.1, 0.0};
    const std::vector<double> live = {0.05, 0.1, 0.25, 0.6};
    EXPECT_GT(populationStabilityIndex(ref, live), 0.25);
}

TEST(Psi, EmptyOrMismatchedSidesScoreZero)
{
    EXPECT_EQ(populationStabilityIndex({}, {}), 0.0);
    EXPECT_EQ(populationStabilityIndex({0.5, 0.5}, {1.0}), 0.0);
}

TEST(Psi, BucketFractionsNormalize)
{
    const std::uint64_t counts[4] = {1, 1, 2, 0};
    const std::vector<double> f = bucketFractions(counts, 4);
    ASSERT_EQ(f.size(), 4u);
    EXPECT_DOUBLE_EQ(f[0], 0.25);
    EXPECT_DOUBLE_EQ(f[2], 0.5);
    EXPECT_DOUBLE_EQ(f[3], 0.0);

    const std::uint64_t zeros[2] = {0, 0};
    for (const double v : bucketFractions(zeros, 2))
        EXPECT_EQ(v, 0.0);
}

// --------------------------------------------------------- HealthMonitor

class HealthTest : public ::testing::Test
{
  protected:
    MetricRegistry reg;
    QualityTelemetry quality;
    std::uint64_t nowNs = 0;

    /** Advance the synthetic clock one window and sample. */
    WindowStats tick(HealthMonitor &mon)
    {
        nowNs += kSecondNs;
        return mon.sample(nowNs);
    }

    void recordMargins(double value, int n)
    {
        MarginHistogram &m = quality.margins("serve.predict");
        for (int i = 0; i < n; ++i)
            m.record(value);
    }

    double counterValue(const std::string &name)
    {
        const RegistrySnapshot snap = reg.snapshot();
        const auto it = snap.counters.find(name);
        return it == snap.counters.end()
                   ? 0.0
                   : static_cast<double>(it->second);
    }

    double gaugeValue(const std::string &name)
    {
        const RegistrySnapshot snap = reg.snapshot();
        const auto it = snap.gauges.find(name);
        return it == snap.gauges.end() ? 0.0 : it->second;
    }
};

TEST_F(HealthTest, MarginShiftTripsDriftDeterministically)
{
    HealthMonitor mon(reg, quality, 1.0);

    // Warm-up traffic: confident margins around 0.8.
    for (std::size_t w = 0; w < kDriftWarmupWindows; ++w) {
        recordMargins(0.8, 100);
        tick(mon);
    }
    DriftState d = mon.driftState();
    EXPECT_TRUE(d.referenceReady);
    EXPECT_EQ(d.referenceCount, 100u * kDriftWarmupWindows);
    EXPECT_FALSE(d.violated);

    // Matching traffic after warm-up stays clean.
    recordMargins(0.8, 100);
    tick(mon);
    d = mon.driftState();
    EXPECT_FALSE(d.violated);
    EXPECT_LT(d.psi, 0.1);
    EXPECT_TRUE(mon.verdict().ready);

    // Collapsed margins: the whole distribution jumps to the
    // negative bucket, PSI blows through the threshold, and the
    // trip counter increments exactly once while violated holds.
    recordMargins(-0.5, 100);
    tick(mon);
    d = mon.driftState();
    EXPECT_TRUE(d.violated);
    EXPECT_GT(d.psi, 0.25);
    EXPECT_EQ(d.trips, 1u);
    EXPECT_EQ(counterValue("serve.health.drift_trips"), 1.0);
    EXPECT_FALSE(mon.verdict().ready);
    EXPECT_EQ(mon.verdict().reason, "drift");
    EXPECT_EQ(gaugeValue("serve.health.ok"), 0.0);
    EXPECT_EQ(gaugeValue("drift.violated"), 1.0);

    recordMargins(-0.5, 100);
    tick(mon);
    EXPECT_EQ(mon.driftState().trips, 1u) << "still one episode";

    // Distribution returns to the reference: violated clears, and a
    // second shift is a second, separately counted episode.
    recordMargins(0.8, 100);
    tick(mon);
    EXPECT_FALSE(mon.driftState().violated);
    EXPECT_TRUE(mon.verdict().ready);

    recordMargins(-0.5, 100);
    tick(mon);
    EXPECT_EQ(mon.driftState().trips, 2u);
    EXPECT_EQ(counterValue("serve.health.drift_trips"), 2.0);
}

TEST_F(HealthTest, SparseWindowsAreSkippedNotJudged)
{
    HealthMonitor mon(reg, quality, 1.0);

    for (std::size_t w = 0; w < kDriftWarmupWindows; ++w) {
        recordMargins(0.8, 100);
        tick(mon);
    }
    ASSERT_TRUE(mon.driftState().referenceReady);

    // Wildly-shifted margins one short of kDriftMinMargins: no
    // evaluation, no violation.
    recordMargins(-0.9, static_cast<int>(kDriftMinMargins) - 1);
    tick(mon);
    EXPECT_FALSE(mon.driftState().violated);
    EXPECT_EQ(mon.driftState().evaluatedWindows, 0u);
}

TEST_F(HealthTest, PublishesWindowAndDriftGauges)
{
    HealthMonitor mon(reg, quality, 1.0);
    reg.counter("serve.requests").add(8);
    reg.counter("serve.requests.bad").add(2);
    tick(mon);

    EXPECT_EQ(gaugeValue("window.seq"), 1.0);
    EXPECT_EQ(gaugeValue("window.requests"), 10.0);
    EXPECT_DOUBLE_EQ(gaugeValue("window.error_ratio"), 0.2);
    EXPECT_EQ(gaugeValue("drift.reference_ready"), 0.0);
    EXPECT_EQ(gaugeValue("serve.health.ok"), 1.0);
    EXPECT_EQ(mon.windowsSampled(), 1u);
}

TEST_F(HealthTest, HealthAndWindowsJsonParse)
{
    HealthMonitor mon(reg, quality, 1.0);
    reg.counter("serve.requests").add(20);
    tick(mon);
    tick(mon);

    JsonWriter hw;
    mon.writeHealthJson(hw);
    std::string error;
    const auto health = serve::parseJson(hw.str(), error);
    ASSERT_NE(health, nullptr) << error << "\n" << hw.str();
    ASSERT_NE(health->find("ready"), nullptr);
    EXPECT_NE(health->find("reason"), nullptr);
    const serve::JsonValue *drift = health->find("drift");
    ASSERT_NE(drift, nullptr);
    EXPECT_NE(drift->find("psi"), nullptr);
    EXPECT_NE(drift->find("reference_ready"), nullptr);

    JsonWriter ww;
    mon.writeWindowsJson(ww, 0.0);
    const auto windows = serve::parseJson(ww.str(), error);
    ASSERT_NE(windows, nullptr) << error << "\n" << ww.str();
    const serve::JsonValue *list = windows->find("windows");
    ASSERT_NE(list, nullptr);
    ASSERT_TRUE(list->isArray());
    EXPECT_EQ(list->array.size(), 2u);

    // lastSeconds clips to ceil(s / windowSeconds) newest windows.
    JsonWriter wc;
    mon.writeWindowsJson(wc, 1.0);
    const auto clipped = serve::parseJson(wc.str(), error);
    ASSERT_NE(clipped, nullptr) << error;
    EXPECT_EQ(clipped->find("windows")->array.size(), 1u);
    EXPECT_EQ(clipped->find("windows")->array[0].find("seq")->number,
              2.0);
}

TEST_F(HealthTest, DisabledRulesNeverUnready)
{
    // Error traffic alone never makes the instance unready, and no
    // margin traffic ever reaches kDriftMinMargins.
    HealthMonitor mon(reg, quality, 1.0);
    for (int i = 0; i < 10; ++i) {
        reg.counter("serve.requests.bad").add(100);
        tick(mon);
    }
    EXPECT_TRUE(mon.verdict().ready);
    EXPECT_EQ(mon.verdict().reason, "ok");
}

} // namespace
