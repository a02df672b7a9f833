/**
 * @file
 * Classifier-level tests for quantized serving: precision routing
 * through scores()/scoresBatch(), batch-vs-single bit identity,
 * cross-impl bit identity of the quantized paths, agreement of the
 * quantized predictions with the float path, the attach /
 * on-demand-build lifecycle, and (the BinaryModel suite) the binary
 * form as the sign-binarized Hamming model of Sec. VII.
 */

#include <gtest/gtest.h>

#include <memory>
#include <span>
#include <vector>

#include "data/synthetic.hpp"
#include "hdc/encoder.hpp"
#include "hdc/kernels.hpp"
#include "hdc/similarity.hpp"
#include "hdc/trainer.hpp"
#include "lookhd/classifier.hpp"
#include "quant/quantizer.hpp"
#include "util/check.hpp"

namespace {

using namespace lookhd;
namespace kernels = lookhd::hdc::kernels;

data::TrainTest
problem(std::uint64_t seed = 7)
{
    data::SyntheticSpec spec;
    spec.numFeatures = 23;
    spec.numClasses = 5;
    spec.classSeparation = 1.2;
    spec.informativeFraction = 0.7;
    spec.seed = seed;
    return data::makeTrainTest(spec, 300, 120);
}

ClassifierConfig
config(bool compress = true)
{
    ClassifierConfig cfg;
    cfg.dim = 1000;
    cfg.quantLevels = 4;
    cfg.chunkSize = 5;
    cfg.retrainEpochs = 3;
    cfg.compressModel = compress;
    return cfg;
}

std::vector<std::span<const double>>
rowsOf(const data::Dataset &ds, std::size_t count)
{
    std::vector<std::span<const double>> rows;
    for (std::size_t i = 0; i < count && i < ds.size(); ++i)
        rows.push_back(ds.row(i));
    return rows;
}

TEST(QuantizedServing, PrecisionRoutingAndLifecycle)
{
    const auto tt = problem();
    Classifier clf(config());
    EXPECT_THROW(clf.setServingPrecision(Precision::kInt8),
                 util::ContractViolation); // unfitted
    clf.fit(tt.train);

    EXPECT_EQ(clf.servingPrecision(), Precision::kFloat64);
    EXPECT_FALSE(clf.hasQuantized());

    // Selecting a quantized precision builds the forms on demand.
    clf.setServingPrecision(Precision::kInt8);
    EXPECT_TRUE(clf.hasQuantized());
    EXPECT_EQ(clf.servingPrecision(), Precision::kInt8);

    clf.setServingPrecision(Precision::kBinary);
    EXPECT_EQ(clf.servingPrecision(), Precision::kBinary);

    // Back to float: quantized forms stay attached but unused.
    clf.setServingPrecision(Precision::kFloat64);
    EXPECT_TRUE(clf.hasQuantized());
    EXPECT_EQ(clf.servingPrecision(), Precision::kFloat64);
}

TEST(QuantizedServing, QuantizedScoresDifferFromFloatButAgree)
{
    const auto tt = problem(11);
    Classifier clf(config());
    clf.fit(tt.train);

    const auto floatScores = clf.scores(tt.test.row(0));
    std::vector<std::size_t> floatPred;
    for (std::size_t i = 0; i < tt.test.size(); ++i)
        floatPred.push_back(clf.predict(tt.test.row(i)));

    // int8: small quantization error, predictions should almost
    // always agree with the float path on a separable problem.
    clf.setServingPrecision(Precision::kInt8);
    const auto i8Scores = clf.scores(tt.test.row(0));
    ASSERT_EQ(i8Scores.size(), floatScores.size());
    std::size_t i8Agree = 0;
    for (std::size_t i = 0; i < tt.test.size(); ++i)
        i8Agree += clf.predict(tt.test.row(i)) == floatPred[i];
    EXPECT_GE(static_cast<double>(i8Agree) /
                  static_cast<double>(tt.test.size()),
              0.95)
        << i8Agree << "/" << tt.test.size();

    // binary drops magnitude information; still close on this
    // problem but allowed a wider band.
    clf.setServingPrecision(Precision::kBinary);
    std::size_t binAgree = 0;
    for (std::size_t i = 0; i < tt.test.size(); ++i)
        binAgree += clf.predict(tt.test.row(i)) == floatPred[i];
    EXPECT_GE(static_cast<double>(binAgree) /
                  static_cast<double>(tt.test.size()),
              0.80)
        << binAgree << "/" << tt.test.size();
}

TEST(QuantizedServing, BatchMatchesSingleBitwise)
{
    for (const bool compress : {true, false}) {
        const auto tt = problem(13);
        Classifier clf(config(compress));
        clf.fit(tt.train);
        const auto rows = rowsOf(tt.test, 32);

        for (const Precision p :
             {Precision::kInt8, Precision::kBinary}) {
            clf.setServingPrecision(p);
            for (const std::size_t threads : {1UL, 2UL, 4UL}) {
                const auto batch = clf.scoresBatch(rows, threads);
                ASSERT_EQ(batch.size(), rows.size());
                for (std::size_t i = 0; i < rows.size(); ++i)
                    EXPECT_EQ(batch[i], clf.scores(rows[i]))
                        << "compress=" << compress
                        << " precision=" << precisionName(p)
                        << " threads=" << threads << " row " << i;
            }
        }
    }
}

TEST(QuantizedServing, QuantizedScoresBitIdenticalAcrossImpls)
{
    const auto tt = problem(17);
    Classifier clf(config());
    clf.fit(tt.train);
    const auto rows = rowsOf(tt.test, 8);

    for (const Precision p :
         {Precision::kInt8, Precision::kBinary}) {
        clf.setServingPrecision(p);
        kernels::forceImpl(kernels::Impl::kScalar);
        const auto reference = clf.scoresBatch(rows);
        kernels::clearForcedImpl();
        for (const kernels::Impl impl :
             {kernels::Impl::kScalar, kernels::Impl::kAvx2,
              kernels::Impl::kAvx512, kernels::Impl::kNeon}) {
            if (!kernels::implAvailable(impl))
                continue;
            kernels::forceImpl(impl);
            const auto got = clf.scoresBatch(rows);
            kernels::clearForcedImpl();
            EXPECT_EQ(got, reference)
                << "precision=" << precisionName(p)
                << " impl=" << kernels::implName(impl);
        }
    }
}

TEST(QuantizedServing, PredictBatchConsistentWithScores)
{
    const auto tt = problem(19);
    Classifier clf(config());
    clf.fit(tt.train);
    clf.setServingPrecision(Precision::kInt8);
    const auto rows = rowsOf(tt.test, 16);
    const auto preds = clf.predictBatch(rows);
    ASSERT_EQ(preds.size(), rows.size());
    for (std::size_t i = 0; i < rows.size(); ++i)
        EXPECT_EQ(preds[i], clf.predict(rows[i])) << "row " << i;
}

TEST(QuantizedServing, AttachValidatesShapes)
{
    const auto tt = problem(23);
    Classifier clf(config());
    clf.fit(tt.train);
    clf.quantize();
    const QuantizedServingModel &good = clf.quantizedModel();

    // Wrong dimensionality.
    {
        const hdc::Dim wrongDim = good.dim() + 64;
        std::vector<std::int8_t> rows(
            good.numClasses() * wrongDim, 1);
        std::vector<hdc::PackedHv> binary(good.numClasses(),
                                          hdc::PackedHv(wrongDim));
        auto bad = std::make_shared<const QuantizedServingModel>(
            wrongDim, std::move(rows),
            std::vector<double>(good.numClasses(), 1.0),
            std::move(binary));
        EXPECT_THROW(clf.attachQuantized(bad),
                     util::ContractViolation);
    }
    // Wrong class count.
    {
        const std::size_t wrongK = good.numClasses() + 1;
        std::vector<std::int8_t> rows(wrongK * good.dim(), 1);
        std::vector<hdc::PackedHv> binary(wrongK,
                                          hdc::PackedHv(good.dim()));
        auto bad = std::make_shared<const QuantizedServingModel>(
            good.dim(), std::move(rows),
            std::vector<double>(wrongK, 1.0), std::move(binary));
        EXPECT_THROW(clf.attachQuantized(bad),
                     util::ContractViolation);
    }
    // Null.
    EXPECT_THROW(clf.attachQuantized(nullptr),
                 util::ContractViolation);
}

TEST(QuantizedServing, UncompressedModelQuantizes)
{
    const auto tt = problem(29);
    Classifier clf(config(/*compress=*/false));
    clf.fit(tt.train);
    clf.setServingPrecision(Precision::kInt8);
    ASSERT_TRUE(clf.hasQuantized());
    EXPECT_EQ(clf.quantizedModel().dim(), clf.config().dim);

    // Predictions still mostly agree with the float path.
    clf.setServingPrecision(Precision::kFloat64);
    std::vector<std::size_t> floatPred;
    for (std::size_t i = 0; i < tt.test.size(); ++i)
        floatPred.push_back(clf.predict(tt.test.row(i)));
    clf.setServingPrecision(Precision::kInt8);
    std::size_t agree = 0;
    for (std::size_t i = 0; i < tt.test.size(); ++i)
        agree += clf.predict(tt.test.row(i)) == floatPred[i];
    EXPECT_GE(static_cast<double>(agree) /
                  static_cast<double>(tt.test.size()),
              0.95)
        << agree << "/" << tt.test.size();
}

TEST(QuantizedServing, PrecisionNamesRoundTrip)
{
    for (const Precision p : {Precision::kFloat64, Precision::kInt8,
                              Precision::kBinary}) {
        const auto back = precisionFromName(precisionName(p));
        ASSERT_TRUE(back.has_value());
        EXPECT_EQ(*back, p);
    }
    EXPECT_FALSE(precisionFromName("float32").has_value());
    EXPECT_FALSE(precisionFromName("").has_value());
    EXPECT_FALSE(precisionFromName("INT8").has_value());
}

// The binary form of the serving model is the Sec. VII binary-HDC
// baseline: sign-binarized class rows scored by Hamming similarity
// against the sign-binarized query.

/** Binary-form scores of one encoded query. */
std::vector<double>
binaryScores(const QuantizedServingModel &model, const hdc::IntHv &query)
{
    const hdc::IntHv *q = &query;
    return model.scoresBatchBinary(&q, 1);
}

TEST(BinaryModel, BinarizesSigns)
{
    hdc::ClassModel model(4, 2);
    model.classHv(0) = hdc::IntHv{3, -2, 0, 7};
    model.classHv(1) = hdc::IntHv{-1, 1, -9, 2};
    model.normalize();
    const QuantizedServingModel bin =
        QuantizedServingModel::fromClassModel(model);
    ASSERT_EQ(bin.binaryRows().size(), 2u);
    // 0 maps to +1 on rows ...
    EXPECT_EQ(bin.binaryRows()[0].unpack(), (hdc::BipolarHv{1, -1, 1, 1}));
    EXPECT_EQ(bin.binaryRows()[1].unpack(),
              (hdc::BipolarHv{-1, 1, -1, 1}));
    // ... and on queries: {0, -5, 1, 1} binarizes to row 0 exactly.
    EXPECT_EQ(binaryScores(bin, hdc::IntHv{0, -5, 1, 1}),
              (std::vector<double>{4.0, -2.0}));
}

TEST(BinaryModel, PredictsObviousQueries)
{
    hdc::ClassModel model(64, 2);
    hdc::IntHv a(64), b(64);
    for (std::size_t i = 0; i < 64; ++i) {
        a[i] = i % 2 ? 5 : -5;
        b[i] = i % 2 ? -5 : 5;
    }
    model.classHv(0) = a;
    model.classHv(1) = b;
    model.normalize();
    const QuantizedServingModel bin =
        QuantizedServingModel::fromClassModel(model);
    EXPECT_EQ(hdc::argmax(binaryScores(bin, a)), 0u);
    EXPECT_EQ(hdc::argmax(binaryScores(bin, b)), 1u);
}

TEST(BinaryModel, ScoresAreHammingFractions)
{
    // A score is the +-1 dot 2 * matches - D = D * (2h - 1), with h
    // the Hamming fraction, so it ranks exactly as h does.
    hdc::ClassModel model(8, 1);
    model.classHv(0) = hdc::IntHv{1, 1, 1, 1, -1, -1, -1, -1};
    model.normalize();
    const QuantizedServingModel bin =
        QuantizedServingModel::fromClassModel(model);
    const auto s = binaryScores(bin, hdc::IntHv{1, 1, 1, 1, 1, 1, 1, 1});
    ASSERT_EQ(s.size(), 1u);
    EXPECT_DOUBLE_EQ((s[0] + 8.0) / 16.0, 0.5);

    // A query agreeing with the row on its first `agree` positions.
    for (std::size_t agree = 0; agree <= 8; ++agree) {
        hdc::IntHv query(8);
        for (std::size_t i = 0; i < 8; ++i)
            query[i] = (i < agree) == (i < 4) ? 3 : -3;
        const double h = hdc::hammingSimilarity(
            hdc::PackedHv(hdc::sign(query)), bin.binaryRows()[0]);
        EXPECT_DOUBLE_EQ(h, static_cast<double>(agree) / 8.0);
        EXPECT_DOUBLE_EQ((binaryScores(bin, query)[0] + 8.0) / 16.0, h)
            << "agree " << agree;
    }
}

TEST(BinaryModel, SizeIsOneBitPerDimension)
{
    util::Rng rng(31);
    hdc::ClassModel model(2000, 26);
    for (std::size_t c = 0; c < model.numClasses(); ++c) {
        const hdc::BipolarHv row = hdc::randomBipolar(2000, rng);
        model.classHv(c) = hdc::IntHv(row.begin(), row.end());
    }
    model.normalize();
    const QuantizedServingModel bin =
        QuantizedServingModel::fromClassModel(model);
    ASSERT_EQ(bin.binaryRows().size(), 26u);
    std::size_t bytes = 0;
    for (const hdc::PackedHv &row : bin.binaryRows()) {
        EXPECT_EQ(row.dim(), 2000u);
        bytes += row.sizeBytes();
    }
    // One bit per dimension per class, in whole 64-bit words.
    EXPECT_EQ(bytes, 26u * ((2000u + 63u) / 64u * 8u));
    // About 32x smaller than the int32 model.
    EXPECT_LT(bytes * 30, model.sizeBytes());
}

TEST(BinaryModel, LosesAccuracyVersusNonBinaryOnHardProblem)
{
    // Sec. VII on a hard (noisy, weakly separated) problem: the
    // binary form of a plain BaselineTrainer model predicts exactly
    // what Hamming similarity on packed signs predicts, and gives up
    // accuracy against the non-binary model rather than gaining any.
    data::SyntheticSpec spec;
    spec.numFeatures = 60;
    spec.numClasses = 6;
    spec.classSeparation = 0.35;
    spec.labelNoise = 0.05;
    spec.seed = 23;
    auto [train, test] = data::makeTrainTest(spec, 600, 300);
    util::Rng rng(29);
    auto levels = std::make_shared<hdc::LevelMemory>(2000, 4, rng);
    const hdc::BaselineEncoder encoder(
        levels, quant::fitEqualized(train.allValues(), 4));
    hdc::BaselineTrainer trainer(encoder);
    hdc::TrainOptions opts;
    opts.retrainEpochs = 5;
    const hdc::TrainResult result = trainer.train(train, opts);

    const QuantizedServingModel binary =
        QuantizedServingModel::fromClassModel(result.model);
    std::vector<hdc::PackedHv> signRows;
    for (std::size_t c = 0; c < result.model.numClasses(); ++c)
        signRows.emplace_back(hdc::sign(result.model.classHv(c)));
    std::size_t correct = 0;
    for (std::size_t i = 0; i < test.size(); ++i) {
        const hdc::IntHv query = encoder.encode(test.row(i));
        const std::size_t pred =
            hdc::argmax(binaryScores(binary, query));
        const hdc::PackedHv packed(hdc::sign(query));
        std::vector<double> hamming;
        for (const hdc::PackedHv &row : signRows)
            hamming.push_back(hdc::hammingSimilarity(packed, row));
        EXPECT_EQ(pred, hdc::argmax(hamming)) << "row " << i;
        correct += pred == test.label(i);
    }
    EXPECT_LE(static_cast<double>(correct) /
                  static_cast<double>(test.size()),
              trainer.evaluate(result.model, test) + 0.02);
}

} // namespace
