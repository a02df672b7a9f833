/**
 * @file
 * End-to-end integration tests on scaled-down versions of the paper's
 * five applications: the cross-module claims of the paper in test
 * form.
 */

#include <gtest/gtest.h>

#include <memory>

#include "data/apps.hpp"
#include "hdc/encoder.hpp"
#include "hdc/trainer.hpp"
#include "lookhd/classifier.hpp"
#include "quant/quantizer.hpp"

namespace {

using namespace lookhd;

/** Scaled-down train/test pair for one paper app. */
data::TrainTest
appData(const std::string &name, std::size_t train_count,
        std::size_t test_count, std::uint64_t seed = 1)
{
    const data::AppSpec &app = data::appByName(name);
    return data::makeTrainTest(app.synthetic(seed), train_count,
                               test_count);
}

ClassifierConfig
appConfig(const std::string &name)
{
    const data::AppSpec &app = data::appByName(name);
    ClassifierConfig cfg;
    cfg.dim = 1000;
    cfg.quantLevels = app.lookhdQ;
    cfg.chunkSize = app.chunkSize;
    cfg.retrainEpochs = 5;
    return cfg;
}

TEST(Integration, LookhdLearnsEveryPaperApp)
{
    // Every app must train to something far above chance.
    for (const auto &app : data::paperApps()) {
        auto tt = appData(app.name, 60 * app.numClasses,
                          20 * app.numClasses);
        Classifier clf(appConfig(app.name));
        clf.fit(tt.train);
        const double acc = clf.evaluate(tt.test);
        const double chance = 1.0 / static_cast<double>(app.numClasses);
        EXPECT_GT(acc, chance + 0.25) << app.name;
    }
}

TEST(Integration, LookhdTracksBaselineHdcAccuracy)
{
    // The paper's accuracy claim: lookup encoding + equalized q = 4
    // matches (or beats) the conventional encoder with its larger q.
    const data::AppSpec &app = data::appByName("ACTIVITY");
    auto tt = appData("ACTIVITY", 360, 240, 3);

    Classifier look(appConfig("ACTIVITY"));
    look.fit(tt.train);
    const double look_acc = look.evaluate(tt.test);

    // Conventional HDC: full-vector rotation encoding, linear q = 8.
    util::Rng rng(7);
    auto levels =
        std::make_shared<hdc::LevelMemory>(1000, app.paperQ, rng);
    hdc::BaselineEncoder encoder(
        levels, quant::fitLinear(tt.train.allValues(), app.paperQ));
    hdc::BaselineTrainer trainer(encoder);
    hdc::TrainOptions opts;
    opts.retrainEpochs = 5;
    const auto result = trainer.train(tt.train, opts);
    const double base_acc = trainer.evaluate(result.model, tt.test);

    EXPECT_GT(look_acc, base_acc - 0.05);
}

TEST(Integration, CompressionLossSmallForFewClasses)
{
    // Fig. 15a: no meaningful loss at or below ~12 classes.
    for (const char *name : {"ACTIVITY", "FACE", "EXTRA"}) {
        auto tt = appData(name, 300, 200, 5);
        ClassifierConfig cfg = appConfig(name);
        Classifier compressed(cfg);
        cfg.compressModel = false;
        Classifier exact(cfg);
        compressed.fit(tt.train);
        exact.fit(tt.train);
        EXPECT_NEAR(compressed.evaluate(tt.test),
                    exact.evaluate(tt.test), 0.09)
            << name;
    }
}

TEST(Integration, GroupedCompressionRecoversSpeechAccuracy)
{
    // SPEECH has 26 classes; single-hypervector compression may lose
    // accuracy, grouped (<= 12 per group) must stay close to exact.
    auto tt = appData("SPEECH", 780, 520, 7);

    ClassifierConfig cfg = appConfig("SPEECH");
    cfg.dim = 2000; // 26 classes need the paper's D for compression
    cfg.compressModel = false;
    Classifier exact(cfg);
    exact.fit(tt.train);
    const double exact_acc = exact.evaluate(tt.test);

    cfg.compressModel = true;
    cfg.compression.maxClassesPerGroup = 12;
    Classifier grouped(cfg);
    grouped.fit(tt.train);
    const double grouped_acc = grouped.evaluate(tt.test);

    EXPECT_GT(grouped_acc, exact_acc - 0.10);
    EXPECT_EQ(grouped.compressedModel().numGroups(), 3u);
}

TEST(Integration, ModelSizeOrderingAcrossApps)
{
    // Model size reduction grows with class count (Fig. 15b): the
    // 26-class app compresses much harder than the 2-class app.
    auto speech = appData("SPEECH", 260, 26, 9);
    auto face = appData("FACE", 80, 20, 9);

    Classifier s(appConfig("SPEECH")), f(appConfig("FACE"));
    s.fit(speech.train);
    f.fit(face.train);

    const double s_ratio =
        static_cast<double>(s.uncompressedModel().sizeBytes()) /
        static_cast<double>(s.modelSizeBytes());
    const double f_ratio =
        static_cast<double>(f.uncompressedModel().sizeBytes()) /
        static_cast<double>(f.modelSizeBytes());
    EXPECT_GT(s_ratio, f_ratio * 2.0);
}

TEST(Integration, RetrainingCurveSaturatesWithinTenEpochs)
{
    // Fig. 9: ~10 iterations suffice.
    auto tt = appData("PHYSICAL", 360, 120, 11);
    ClassifierConfig cfg = appConfig("PHYSICAL");
    cfg.retrainEpochs = 10;
    Classifier clf(cfg);
    clf.fit(tt.train);
    const auto &hist = clf.retrainHistory();
    ASSERT_EQ(hist.size(), 11u);
    // Retraining converges: the final accuracy improves on the
    // initial model and sits within a hair of the best epoch (no
    // divergence or oscillation blow-up).
    const double best = *std::max_element(hist.begin(), hist.end());
    EXPECT_GT(hist.back(), hist.front());
    EXPECT_GE(hist.back(), best - 0.05);
}

TEST(Integration, DeterministicEndToEnd)
{
    auto tt = appData("EXTRA", 160, 80, 13);
    Classifier a(appConfig("EXTRA")), b(appConfig("EXTRA"));
    a.fit(tt.train);
    b.fit(tt.train);
    EXPECT_DOUBLE_EQ(a.evaluate(tt.test), b.evaluate(tt.test));
}

} // namespace
