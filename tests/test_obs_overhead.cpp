/**
 * @file
 * Acceptance check for the observability layer's cost: with the obs
 * gate compiled in and enabled, Classifier::predict must run within
 * 2% of its cost with instrumentation disabled at runtime (the issue
 * budget for always-on telemetry).
 *
 * Microbenchmark noise is the enemy here. On a shared host the
 * clock speed and the neighbours' load drift over tens of
 * milliseconds, so the test times the two modes back to back in
 * pairs (alternating which goes first), takes the enabled/disabled
 * ratio within each pair, where both samples saw the same host
 * state, and reads the median ratio of many pairs. It retries the
 * whole measurement a few times before declaring failure. Debug and
 * sanitized builds time very different code, so the threshold widens
 * there; the 2% bar is enforced on optimized NDEBUG builds - the CI
 * release preset.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "data/apps.hpp"
#include "data/synthetic.hpp"
#include "lookhd/classifier.hpp"
#include "obs/obs.hpp"
#include "util/timer.hpp"

#if defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#define LOOKHD_TEST_SANITIZED 1
#endif
#endif
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define LOOKHD_TEST_SANITIZED 1
#endif

namespace {

using namespace lookhd;

#if defined(NDEBUG) && !defined(LOOKHD_TEST_SANITIZED)
constexpr double kMaxOverhead = 0.02; // the issue's 2% budget
#else
// Unoptimized / sanitized builds pay rather different relative costs;
// keep the regression net but don't fail on build-mode noise.
constexpr double kMaxOverhead = 0.15;
#endif

/** Seconds for one full pass of predict() over the test split. */
double
batchSeconds(const Classifier &clf, const data::TrainTest &tt)
{
    util::Timer timer;
    std::size_t sink = 0;
    for (std::size_t i = 0; i < tt.test.size(); ++i)
        sink += clf.predict(tt.test.row(i));
    const double s = timer.seconds();
    // Keep the loop observable so the optimizer can't drop it.
    EXPECT_LT(sink, tt.test.size() * 1000);
    return s;
}

/**
 * Median over @p pairs of (enabled pass / disabled pass) - 1, the two
 * passes of a pair timed back to back; odd pairs time the enabled
 * mode first, so neither mode always runs on the state the other
 * left. A minimum per mode compares samples taken at different
 * moments; on a shared host that read anywhere from -14% to +5%
 * where this median stayed within +-2%.
 */
double
medianOverhead(const Classifier &clf, const data::TrainTest &tt,
               std::size_t pairs)
{
    std::vector<double> ratios;
    for (std::size_t t = 0; t < pairs; ++t) {
        double seconds[2] = {0.0, 0.0}; // [disabled, enabled]
        const bool enabled_first = t % 2 == 1;
        for (const bool enabled : {enabled_first, !enabled_first}) {
            obs::setEnabled(enabled);
            seconds[enabled ? 1 : 0] = batchSeconds(clf, tt);
        }
        EXPECT_GT(seconds[0], 0.0);
        ratios.push_back(seconds[1] / seconds[0] - 1.0);
    }
    std::nth_element(ratios.begin(), ratios.begin() + pairs / 2,
                     ratios.end());
    return ratios[pairs / 2];
}

TEST(ObsOverhead, PredictWithinBudget)
{
    const data::AppSpec app = data::paperApps()[0];
    const data::TrainTest tt = data::makeTrainTest(
        app.synthetic(7), 40 * app.numClasses, 60 * app.numClasses);
    ClassifierConfig cfg;
    cfg.dim = 2000;
    cfg.quantLevels = app.lookhdQ;
    cfg.chunkSize = app.chunkSize;
    cfg.retrainEpochs = 2;
    Classifier clf(cfg);
    clf.fit(tt.train);

    batchSeconds(clf, tt); // warm caches before timing anything

    double best_overhead = 1e9;
    for (int attempt = 0; attempt < 4; ++attempt) {
        best_overhead =
            std::min(best_overhead, medianOverhead(clf, tt, 15));
        if (best_overhead <= kMaxOverhead)
            break; // measured under budget; no need to keep retrying
    }
    EXPECT_LE(best_overhead, kMaxOverhead)
        << "Classifier::predict with obs enabled is "
        << 100.0 * best_overhead
        << "% slower than with obs disabled (budget "
        << 100.0 * kMaxOverhead << "%)";
    obs::setEnabled(true); // leave global state as other tests expect
}

} // namespace
