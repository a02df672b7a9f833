/**
 * @file
 * Tests for compressed-domain retraining (Sec. IV-D).
 */

#include <gtest/gtest.h>

#include <memory>

#include "data/synthetic.hpp"
#include "lookhd/counter_trainer.hpp"
#include "lookhd/retrainer.hpp"
#include "quant/quantizer_bank.hpp"
#include "util/check.hpp"

namespace {

using namespace lookhd;
using namespace lookhd::hdc;

struct Pipeline
{
    std::shared_ptr<LevelMemory> levels;
    std::unique_ptr<LookupEncoder> encoder;
    data::Dataset train;
    data::Dataset test;
    std::unique_ptr<CompressedModel> model;

    Pipeline(Dim dim, std::size_t q, std::size_t r,
             const data::SyntheticSpec &spec, std::size_t n_train,
             std::size_t n_test, std::uint64_t seed = 1)
        : train(1, 1), test(1, 1)
    {
        data::SyntheticProblem problem(spec);
        train = problem.sample(n_train);
        test = problem.sample(n_test);

        util::Rng rng(seed);
        levels = std::make_shared<LevelMemory>(dim, q, rng);
        encoder = std::make_unique<LookupEncoder>(
            levels,
            quant::QuantizerBank(quant::fitEqualized(train.allValues(), q),
                                 spec.numFeatures),
            ChunkSpec(spec.numFeatures, r), rng);

        CounterTrainer trainer(*encoder);
        const ClassModel trained = trainer.train(train);
        util::Rng key_rng = rng.split();
        model = std::make_unique<CompressedModel>(trained, key_rng,
                                                  CompressionConfig{});
    }
};

data::SyntheticSpec
hardSpec(std::uint64_t seed)
{
    data::SyntheticSpec spec;
    spec.numFeatures = 30;
    spec.numClasses = 5;
    spec.classSeparation = 0.8;
    spec.seed = seed;
    return spec;
}

TEST(Retrainer, ImprovesTrainingAccuracy)
{
    Pipeline p(2000, 4, 5, hardSpec(1), 400, 100, 3);
    Retrainer retrainer(*p.encoder);
    RetrainOptions opts;
    opts.epochs = 8;
    const RetrainResult result = retrainer.retrain(*p.model, p.train, opts);
    ASSERT_EQ(result.accuracyHistory.size(), 9u);
    EXPECT_GT(result.accuracyHistory.back(),
              result.accuracyHistory.front() - 1e-9);
    EXPECT_GT(result.accuracyHistory.back(), 0.85);
    EXPECT_EQ(result.epochsRun, 8u);
}

TEST(Retrainer, NoUpdatesWhenAlreadyPerfect)
{
    data::SyntheticSpec spec = hardSpec(5);
    spec.classSeparation = 4.0; // trivially separable
    Pipeline p(1000, 4, 5, spec, 100, 20, 5);
    Retrainer retrainer(*p.encoder);
    RetrainOptions opts;
    opts.epochs = 2;
    const RetrainResult result =
        retrainer.retrain(*p.model, p.train, opts);
    EXPECT_EQ(result.updates, 0u);
    EXPECT_DOUBLE_EQ(result.accuracyHistory.front(), 1.0);
}

TEST(Retrainer, ImmediateModeAlsoConverges)
{
    Pipeline p(2000, 4, 5, hardSpec(7), 300, 50, 7);
    Retrainer retrainer(*p.encoder);
    RetrainOptions opts;
    opts.epochs = 6;
    opts.deferredSwap = false;
    const RetrainResult result =
        retrainer.retrain(*p.model, p.train, opts);
    EXPECT_GT(result.accuracyHistory.back(), 0.85);
}

TEST(Retrainer, RetrainingHelpsTestAccuracy)
{
    Pipeline p(2000, 4, 5, hardSpec(9), 500, 200, 9);
    Retrainer retrainer(*p.encoder);
    const double before = retrainer.evaluate(*p.model, p.test);
    RetrainOptions opts;
    opts.epochs = 10;
    retrainer.retrain(*p.model, p.train, opts);
    const double after = retrainer.evaluate(*p.model, p.test);
    EXPECT_GE(after, before - 0.05);
    EXPECT_GT(after, 0.7);
}

TEST(Retrainer, EncodedPathMatchesDatasetPath)
{
    Pipeline p1(1000, 4, 5, hardSpec(11), 150, 10, 11);
    Pipeline p2(1000, 4, 5, hardSpec(11), 150, 10, 11);
    Retrainer retrainer1(*p1.encoder);
    Retrainer retrainer2(*p2.encoder);
    RetrainOptions opts;
    opts.epochs = 3;
    const RetrainResult a =
        retrainer1.retrain(*p1.model, p1.train, opts);
    const RetrainResult b = retrainer2.retrainEncoded(
        *p2.model, retrainer2.encodeAll(p2.train), p2.train.labels(),
        opts);
    EXPECT_EQ(a.accuracyHistory, b.accuracyHistory);
    EXPECT_EQ(a.updates, b.updates);
}

TEST(Retrainer, RejectsEmptyInput)
{
    Pipeline p(500, 2, 5, hardSpec(13), 50, 10, 13);
    Retrainer retrainer(*p.encoder);
    EXPECT_THROW(retrainer.retrainEncoded(*p.model, {}, {}, {}),
                 util::ContractViolation);
}

TEST(Retrainer, ValidationEarlyStopHaltsOnPlateau)
{
    data::SyntheticSpec spec = hardSpec(21);
    spec.classSeparation = 3.0; // converges immediately
    Pipeline p(1000, 4, 5, spec, 200, 10, 21);
    Retrainer retrainer(*p.encoder);
    RetrainOptions opts;
    opts.epochs = 40;
    opts.validationFraction = 0.2;
    opts.earlyStopPatience = 2;
    const RetrainResult result =
        retrainer.retrain(*p.model, p.train, opts);
    EXPECT_TRUE(result.stoppedEarly);
    EXPECT_LT(result.epochsRun, 40u);
    EXPECT_EQ(result.validationHistory.size(), result.epochsRun);
}

TEST(Retrainer, ValidationKeepsBestModel)
{
    Pipeline p(2000, 4, 5, hardSpec(23), 400, 100, 23);
    Retrainer retrainer(*p.encoder);
    RetrainOptions opts;
    opts.epochs = 8;
    opts.validationFraction = 0.25;
    const RetrainResult result =
        retrainer.retrain(*p.model, p.train, opts);
    // The swapped-in model must reach the best observed validation
    // accuracy, i.e. retraining never ends on a regressed epoch.
    ASSERT_FALSE(result.validationHistory.empty());
    const double best = *std::max_element(
        result.validationHistory.begin(),
        result.validationHistory.end());
    // Re-measure on the validation split is not exposed; use test-set
    // accuracy as a proxy: it should be near the unstopped run's.
    EXPECT_GT(retrainer.evaluate(*p.model, p.test), 0.7);
    EXPECT_GT(best, 0.7);
}

TEST(Retrainer, ValidationFractionValidation)
{
    Pipeline p(500, 2, 5, hardSpec(25), 50, 10, 25);
    Retrainer retrainer(*p.encoder);
    RetrainOptions opts;
    opts.validationFraction = 1.0;
    EXPECT_THROW(retrainer.retrain(*p.model, p.train, opts),
                 util::ContractViolation);
}

TEST(Retrainer, UpdateCountMatchesHistoryShape)
{
    Pipeline p(1000, 4, 5, hardSpec(15), 200, 10, 15);
    Retrainer retrainer(*p.encoder);
    RetrainOptions opts;
    opts.epochs = 4;
    const RetrainResult result =
        retrainer.retrain(*p.model, p.train, opts);
    EXPECT_EQ(result.accuracyHistory.size(), opts.epochs + 1);
    // Imperfect initial model must have triggered some updates.
    if (result.accuracyHistory.front() < 1.0) {
        EXPECT_GT(result.updates, 0u);
    }
}

} // namespace
