/**
 * @file
 * Tests for the b-bit quantized class model.
 */

#include <gtest/gtest.h>

#include "data/synthetic.hpp"
#include "hdc/quantized_model.hpp"
#include "lookhd/classifier.hpp"
#include "util/check.hpp"

namespace {

using namespace lookhd;
using namespace lookhd::hdc;

/** A trained uncompressed model plus its test data and encoder. */
struct Trained
{
    data::Dataset test;
    Classifier clf;

    explicit Trained(std::uint64_t seed) : test(1, 1), clf([] {
        ClassifierConfig cfg;
        cfg.dim = 1000;
        cfg.quantLevels = 4;
        cfg.compressModel = false;
        cfg.retrainEpochs = 3;
        return cfg;
    }())
    {
        data::SyntheticSpec spec;
        spec.numFeatures = 40;
        spec.numClasses = 5;
        spec.classSeparation = 0.9;
        spec.informativeFraction = 0.6;
        spec.seed = seed;
        data::SyntheticProblem problem(spec);
        const data::Dataset train = problem.sample(400);
        test = problem.sample(200);
        clf.fit(train);
    }

    double
    accuracy(const QuantizedModel &model) const
    {
        std::size_t ok = 0;
        for (std::size_t i = 0; i < test.size(); ++i)
            ok += model.predict(clf.encoder().encode(test.row(i))) ==
                  test.label(i);
        return static_cast<double>(ok) /
               static_cast<double>(test.size());
    }
};

TEST(QuantizedModel, ElementsWithinLevelRange)
{
    Trained t(1);
    for (std::size_t bits : {1u, 2u, 4u, 8u}) {
        const QuantizedModel qm(t.clf.uncompressedModel(), bits);
        const int max_level =
            bits == 1 ? 1 : (1 << (bits - 1)) - 1;
        for (std::size_t c = 0; c < qm.numClasses(); ++c) {
            for (auto v : qm.classHv(c)) {
                EXPECT_GE(v, -max_level);
                EXPECT_LE(v, max_level);
            }
        }
    }
}

TEST(QuantizedModel, HighBitsMatchFullModel)
{
    Trained t(3);
    const QuantizedModel qm(t.clf.uncompressedModel(), 12);
    std::size_t agree = 0;
    for (std::size_t i = 0; i < t.test.size(); ++i) {
        const IntHv q = t.clf.encoder().encode(t.test.row(i));
        agree += qm.predict(q) ==
                 t.clf.uncompressedModel().predict(q);
    }
    EXPECT_GT(static_cast<double>(agree) /
                  static_cast<double>(t.test.size()),
              0.98);
}

TEST(QuantizedModel, AccuracyMonotoneInBitsRoughly)
{
    Trained t(5);
    const double a1 =
        t.accuracy(QuantizedModel(t.clf.uncompressedModel(), 1));
    const double a4 =
        t.accuracy(QuantizedModel(t.clf.uncompressedModel(), 4));
    const double a8 =
        t.accuracy(QuantizedModel(t.clf.uncompressedModel(), 8));
    EXPECT_GE(a4, a1 - 0.03);
    EXPECT_GE(a8, a4 - 0.03);
    EXPECT_GT(a8, 0.8);
}

TEST(QuantizedModel, SizeShrinksWithBits)
{
    Trained t(7);
    const ClassModel &full = t.clf.uncompressedModel();
    const QuantizedModel q8(full, 8);
    const QuantizedModel q2(full, 2);
    EXPECT_LT(q8.sizeBytes(), full.sizeBytes());
    EXPECT_LT(q2.sizeBytes(), q8.sizeBytes());
    // 2-bit is ~16x smaller than int32 (plus tiny per-class scales).
    EXPECT_LT(q2.sizeBytes(), full.sizeBytes() / 10);
}

TEST(QuantizedModel, OneBitElementsArePlusMinusOne)
{
    Trained t(9);
    const QuantizedModel q1(t.clf.uncompressedModel(), 1);
    for (std::size_t c = 0; c < q1.numClasses(); ++c)
        for (auto v : q1.classHv(c))
            EXPECT_TRUE(v == 1 || v == -1);
}

TEST(QuantizedModel, Validation)
{
    Trained t(11);
    EXPECT_THROW(QuantizedModel(t.clf.uncompressedModel(), 0),
                 util::ContractViolation);
    EXPECT_THROW(QuantizedModel(t.clf.uncompressedModel(), 17),
                 util::ContractViolation);
    const QuantizedModel qm(t.clf.uncompressedModel(), 4);
    EXPECT_THROW(qm.scores(IntHv(10, 0)), util::ContractViolation);
}

} // namespace
