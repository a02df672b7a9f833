/**
 * @file
 * Tests for the quantizer bank (shared and per-feature) and its
 * encoder/classifier integration.
 */

#include <gtest/gtest.h>

#include <memory>

#include "data/synthetic.hpp"
#include "lookhd/classifier.hpp"
#include "lookhd/lookup_encoder.hpp"
#include "quant/quantizer_bank.hpp"
#include "util/check.hpp"

namespace {

using namespace lookhd;
using namespace lookhd::quant;

/** Dataset whose two features live on wildly different scales. */
data::Dataset
twoScaleData()
{
    data::Dataset ds(2, 2);
    util::Rng rng(3);
    for (int i = 0; i < 200; ++i) {
        const std::size_t label = i % 2;
        const double f0 =
            rng.nextDouble() + (label ? 0.5 : 0.0); // ~[0, 1.5]
        const double f1 =
            1000.0 * (rng.nextDouble() + (label ? 0.5 : 0.0));
        ds.add(std::vector<double>{f0, f1}, label);
    }
    return ds;
}

QuantizerBank
perFeatureBank(const data::Dataset &ds, QuantizationKind kind)
{
    return QuantizerBank::fit(ds, 4, kind, /*perFeature=*/true);
}

TEST(QuantizerBank, FitsOneQuantizerPerFeature)
{
    const data::Dataset ds = twoScaleData();
    const QuantizerBank bank =
        perFeatureBank(ds, QuantizationKind::kEqualized);
    EXPECT_EQ(bank.numFeatures(), 2u);
    EXPECT_EQ(bank.levels(), 4u);
    // Each feature's boundaries live on its own scale.
    EXPECT_LT(bank.boundaries(0).back(), 10.0);
    EXPECT_GT(bank.boundaries(1).back(), 100.0);

    // A shared bank fits one quantizer over every value and stores
    // its boundaries once: every feature sees the same ones.
    const QuantizerBank shared = QuantizerBank::fit(
        ds, 4, QuantizationKind::kEqualized, /*perFeature=*/false);
    EXPECT_EQ(shared.numFeatures(), 2u);
    const auto b0 = shared.boundaries(0);
    const auto b1 = shared.boundaries(1);
    EXPECT_TRUE(std::equal(b0.begin(), b0.end(), b1.begin(), b1.end()));
    const std::vector<double> pooled(ds.allValues().begin(),
                                     ds.allValues().end());
    EXPECT_EQ(std::vector<double>(b0.begin(), b0.end()),
              fitEqualized(pooled, 4).boundaries());
}

TEST(QuantizerBank, AllLevelsUsedPerFeature)
{
    // The point of the bank: a small-scale feature still spreads over
    // all q levels even though a global quantizer would crush it into
    // level 0.
    const data::Dataset ds = twoScaleData();
    const QuantizerBank bank =
        perFeatureBank(ds, QuantizationKind::kEqualized);
    std::vector<bool> seen(4, false);
    for (std::size_t i = 0; i < ds.size(); ++i)
        seen[bank.levelsOf(ds.row(i))[0]] = true;
    for (std::size_t l = 0; l < 4; ++l)
        EXPECT_TRUE(seen[l]) << "level " << l;
}

TEST(QuantizerBank, LevelsOfRow)
{
    const data::Dataset ds = twoScaleData();
    const QuantizerBank bank =
        perFeatureBank(ds, QuantizationKind::kLinear);
    const auto lvls = bank.levelsOf(ds.row(0));
    ASSERT_EQ(lvls.size(), 2u);
    for (auto l : lvls)
        EXPECT_LT(l, 4u);
    EXPECT_THROW(bank.levelsOf(std::vector<double>{1.0}),
                 util::ContractViolation);
}

TEST(QuantizerBank, FromBoundariesRestoresBehaviour)
{
    const data::Dataset ds = twoScaleData();
    for (const QuantizationKind kind :
         {QuantizationKind::kLinear, QuantizationKind::kEqualized}) {
        const QuantizerBank bank = perFeatureBank(ds, kind);
        std::vector<Quantizer> quantizers;
        for (std::size_t f = 0; f < bank.numFeatures(); ++f)
            quantizers.emplace_back(std::vector<double>(
                bank.boundaries(f).begin(), bank.boundaries(f).end()));
        const QuantizerBank restored(quantizers);
        for (std::size_t i = 0; i < ds.size(); ++i)
            EXPECT_EQ(restored.levelsOf(ds.row(i)),
                      bank.levelsOf(ds.row(i)));
    }
}

TEST(QuantizerBank, Validation)
{
    const data::Dataset ds = twoScaleData();
    EXPECT_THROW(QuantizerBank::fit(ds, 1, QuantizationKind::kLinear,
                                    true),
                 util::ContractViolation);
    EXPECT_THROW(QuantizerBank::fit(data::Dataset(2, 2), 4,
                                    QuantizationKind::kLinear, true),
                 util::ContractViolation);
    const QuantizerBank bank =
        perFeatureBank(ds, QuantizationKind::kLinear);
    EXPECT_THROW(bank.boundaries(2), std::logic_error);
    EXPECT_THROW(QuantizerBank(std::vector<Quantizer>{}),
                 util::ContractViolation);
    EXPECT_THROW(QuantizerBank(Quantizer({1.0}), 0),
                 util::ContractViolation);
    // Every feature must quantize to the same number of levels.
    EXPECT_THROW(QuantizerBank(std::vector<Quantizer>{
                     Quantizer({1.0}), Quantizer({1.0, 2.0})}),
                 util::ContractViolation);
}

TEST(QuantizerBank, EncoderIntegrationMatchesManualLevels)
{
    const data::Dataset ds = twoScaleData();
    const QuantizerBank bank =
        perFeatureBank(ds, QuantizationKind::kEqualized);

    util::Rng rng(5);
    auto levels = std::make_shared<hdc::LevelMemory>(512, 4, rng);
    LookupEncoder encoder(levels, bank, ChunkSpec(2, 2), rng);
    EXPECT_EQ(encoder.quantize(ds.row(0)), bank.levelsOf(ds.row(0)));
    // The bank must cover exactly the chunked features.
    EXPECT_THROW(LookupEncoder(levels, bank, ChunkSpec(3, 2), rng),
                 util::ContractViolation);
}

TEST(QuantizerBank, ClassifierPerFeatureBeatsGlobalOnMixedScales)
{
    // Heterogeneous feature scales: global quantization wastes levels,
    // per-feature quantization does not.
    data::SyntheticSpec spec;
    spec.numFeatures = 40;
    spec.numClasses = 4;
    spec.classSeparation = 0.8;
    spec.informativeFraction = 0.6;
    spec.seed = 9;
    data::SyntheticProblem problem(spec);
    data::Dataset base_train = problem.sample(400);
    data::Dataset base_test = problem.sample(200);

    // Amplify the scale heterogeneity far beyond the generator's.
    auto rescale = [](const data::Dataset &src) {
        data::Dataset out(src.numFeatures(), src.numClasses());
        for (std::size_t i = 0; i < src.size(); ++i) {
            std::vector<double> row(src.row(i).begin(),
                                    src.row(i).end());
            for (std::size_t f = 0; f < row.size(); ++f) {
                double scale = 1.0;
                for (std::size_t p = 0; p < f % 5; ++p)
                    scale *= 10.0;
                row[f] *= scale;
            }
            out.add(row, src.label(i));
        }
        return out;
    };
    const data::Dataset train = rescale(base_train);
    const data::Dataset test = rescale(base_test);

    ClassifierConfig cfg;
    cfg.dim = 1000;
    cfg.quantLevels = 4;
    cfg.retrainEpochs = 3;
    cfg.perFeatureQuantization = true;
    Classifier per_feature(cfg);
    cfg.perFeatureQuantization = false;
    Classifier global(cfg);
    per_feature.fit(train);
    global.fit(train);

    EXPECT_GT(per_feature.evaluate(test),
              global.evaluate(test) + 0.1);
}

} // namespace
