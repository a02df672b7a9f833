/**
 * @file
 * Tests for the OnlineHD-style adaptive single-pass trainer.
 */

#include <gtest/gtest.h>

#include <memory>

#include "data/synthetic.hpp"
#include "hdc/encoder.hpp"
#include "hdc/online_trainer.hpp"
#include "hdc/trainer.hpp"
#include "quant/quantizer.hpp"
#include "util/check.hpp"

namespace {

using namespace lookhd;
using namespace lookhd::hdc;

struct Fixture
{
    data::Dataset train;
    data::Dataset test;
    std::shared_ptr<LevelMemory> levels;
    std::unique_ptr<BaselineEncoder> encoder;
    std::vector<IntHv> encodedTrain;

    explicit Fixture(double separation, std::uint64_t seed = 1)
        : train(1, 1), test(1, 1)
    {
        data::SyntheticSpec spec;
        spec.numFeatures = 30;
        spec.numClasses = 5;
        spec.classSeparation = separation;
        spec.informativeFraction = 0.6;
        spec.seed = seed;
        data::SyntheticProblem problem(spec);
        train = problem.sample(400);
        test = problem.sample(200);

        util::Rng rng(seed + 100);
        levels = std::make_shared<LevelMemory>(1000, 4, rng);
        encoder = std::make_unique<BaselineEncoder>(
            levels, quant::fitEqualized(train.allValues(), 4));
        BaselineTrainer bt(*encoder);
        encodedTrain = bt.encodeAll(train);
    }

    double
    testAccuracy(const ClassModel &model) const
    {
        std::size_t ok = 0;
        for (std::size_t i = 0; i < test.size(); ++i)
            ok += model.predict(encoder->encode(test.row(i))) ==
                  test.label(i);
        return static_cast<double>(ok) /
               static_cast<double>(test.size());
    }
};

TEST(OnlineTrainer, SinglePassLearns)
{
    Fixture fx(1.0);
    const OnlineTrainResult result = onlineTrain(
        fx.encodedTrain, fx.train.labels(), 1000, 5, {});
    ASSERT_EQ(result.accuracyHistory.size(), 1u);
    EXPECT_GT(result.accuracyHistory[0], 0.85);
    EXPECT_GT(fx.testAccuracy(result.model), 0.8);
}

TEST(OnlineTrainer, SinglePassBeatsPlainInitialTraining)
{
    // The OnlineHD claim: adaptive weighting in one pass beats the
    // plain class-sum initial model on a hard problem.
    Fixture fx(0.5, 3);

    OnlineTrainOptions opts;
    opts.epochs = 1;
    const OnlineTrainResult adaptive = onlineTrain(
        fx.encodedTrain, fx.train.labels(), 1000, 5, opts);

    BaselineTrainer bt(*fx.encoder);
    TrainOptions plain_opts;
    plain_opts.retrainEpochs = 0; // initial training only
    const TrainResult plain = bt.trainEncoded(
        fx.encodedTrain, fx.train.labels(), 5, plain_opts);

    EXPECT_GT(fx.testAccuracy(adaptive.model),
              fx.testAccuracy(plain.model) - 0.02);
    EXPECT_GT(adaptive.accuracyHistory.back(),
              plain.accuracyHistory.front());
}

TEST(OnlineTrainer, SecondPassDoesNotHurt)
{
    Fixture fx(0.6, 5);
    OnlineTrainOptions opts;
    opts.epochs = 3;
    const OnlineTrainResult result = onlineTrain(
        fx.encodedTrain, fx.train.labels(), 1000, 5, opts);
    ASSERT_EQ(result.accuracyHistory.size(), 3u);
    EXPECT_GE(result.accuracyHistory.back(),
              result.accuracyHistory.front() - 0.05);
}

TEST(OnlineTrainer, SkipCorrectModeAlsoWorks)
{
    Fixture fx(0.8, 7);
    OnlineTrainOptions opts;
    opts.updateOnCorrect = false;
    opts.epochs = 2;
    const OnlineTrainResult result = onlineTrain(
        fx.encodedTrain, fx.train.labels(), 1000, 5, opts);
    EXPECT_GT(result.accuracyHistory.back(), 0.8);
}

TEST(OnlineTrainer, Validation)
{
    EXPECT_THROW(onlineTrain({}, {}, 100, 2, {}),
                 util::ContractViolation);
    std::vector<IntHv> one{IntHv(100, 1)};
    OnlineTrainOptions opts;
    opts.epochs = 0;
    EXPECT_THROW(onlineTrain(one, {0}, 100, 2, opts),
                 util::ContractViolation);
}

} // namespace
