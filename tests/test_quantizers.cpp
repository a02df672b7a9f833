/**
 * @file
 * Tests for the linear and equalized quantizer fits (paper Sec. III-B).
 */

#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "quant/quantizer.hpp"
#include "util/rng.hpp"
#include "util/check.hpp"

namespace {

using namespace lookhd::quant;
using lookhd::util::Rng;

std::vector<double>
lognormalSample(std::size_t count, std::uint64_t seed)
{
    Rng rng(seed);
    std::vector<double> v(count);
    for (auto &x : v)
        x = std::exp(rng.nextGaussian());
    return v;
}

TEST(LinearQuantizer, EqualWidthBins)
{
    const Quantizer q = fitLinear(std::vector<double>{0.0, 10.0}, 4);
    EXPECT_EQ(q.level(0.0), 0u);
    EXPECT_EQ(q.level(2.4), 0u);
    EXPECT_EQ(q.level(2.6), 1u);
    EXPECT_EQ(q.level(5.1), 2u);
    EXPECT_EQ(q.level(9.9), 3u);
    EXPECT_EQ(q.level(10.0), 3u);
}

TEST(LinearQuantizer, OutOfRangeClamps)
{
    const Quantizer q = fitLinear(std::vector<double>{-1.0, 1.0}, 8);
    EXPECT_EQ(q.level(-100.0), 0u);
    EXPECT_EQ(q.level(100.0), 7u);
}

TEST(LinearQuantizer, BoundariesEvenlySpaced)
{
    const Quantizer q = fitLinear(std::vector<double>{0.0, 10.0}, 5);
    const auto &b = q.boundaries();
    ASSERT_EQ(b.size(), 4u);
    for (std::size_t i = 0; i < b.size(); ++i)
        EXPECT_NEAR(b[i], 2.0 * (i + 1), 1e-12);
}

TEST(LinearQuantizer, ConstantSampleMapsToLevelZero)
{
    // A constant sample has no width to split: every finite value
    // maps to level 0, and the boundaries (all +infinity) say so, so
    // a quantizer rebuilt from them behaves the same.
    const Quantizer q = fitLinear(std::vector<double>{3.0, 3.0, 3.0}, 4);
    EXPECT_EQ(q.level(3.0), 0u);
    EXPECT_EQ(q.level(99.0), 0u);
    EXPECT_EQ(q.level(-99.0), 0u);
    const Quantizer restored(q.boundaries());
    EXPECT_EQ(restored.level(3.0), 0u);
    EXPECT_EQ(restored.level(99.0), 0u);
    for (const double b : q.boundaries())
        EXPECT_EQ(b, std::numeric_limits<double>::infinity());
}

TEST(LinearQuantizer, ErrorsOnMisuse)
{
    EXPECT_THROW(fitLinear(std::vector<double>{0.0, 1.0}, 1),
                 lookhd::util::ContractViolation);
    EXPECT_THROW(fitLinear(std::vector<double>{}, 4),
                 lookhd::util::ContractViolation);
    EXPECT_THROW(Quantizer(std::vector<double>{}),
                 lookhd::util::ContractViolation);
    EXPECT_THROW(Quantizer(std::vector<double>{2.0, 1.0}),
                 lookhd::util::ContractViolation);
}

TEST(EqualizedQuantizer, UniformOccupancyOnSkewedData)
{
    // The defining property: every level receives roughly the same
    // share of the (heavily skewed) fit sample.
    const auto sample = lognormalSample(20000, 1);
    const Quantizer q = fitEqualized(sample, 4);
    for (auto c : occupancy(q, sample)) {
        EXPECT_GT(c, sample.size() / 4 - sample.size() / 40);
        EXPECT_LT(c, sample.size() / 4 + sample.size() / 40);
    }
}

TEST(EqualizedQuantizer, LinearCrowdsSkewedDataEqualizedDoesNot)
{
    // On log-normal data, linear quantization dumps most values into
    // the first bin; equalized does not. This is Fig. 3 in a test.
    const auto sample = lognormalSample(20000, 2);
    const auto lin_counts = occupancy(fitLinear(sample, 8), sample);
    const auto eq_counts = occupancy(fitEqualized(sample, 8), sample);
    const auto lin_max =
        *std::max_element(lin_counts.begin(), lin_counts.end());
    const auto eq_max =
        *std::max_element(eq_counts.begin(), eq_counts.end());
    EXPECT_GT(lin_max, sample.size() / 2);
    EXPECT_LT(eq_max, sample.size() / 4);
}

TEST(EqualizedQuantizer, BoundariesAreAscending)
{
    const auto sample = lognormalSample(5000, 3);
    const Quantizer q = fitEqualized(sample, 16);
    const auto &b = q.boundaries();
    ASSERT_EQ(b.size(), 15u);
    for (std::size_t i = 1; i < b.size(); ++i)
        EXPECT_GE(b[i], b[i - 1]);
}

TEST(EqualizedQuantizer, MonotoneInValue)
{
    const auto sample = lognormalSample(5000, 4);
    const Quantizer q = fitEqualized(sample, 8);
    std::size_t prev = 0;
    for (double v = 0.01; v < 20.0; v *= 1.3) {
        const std::size_t lvl = q.level(v);
        EXPECT_GE(lvl, prev);
        prev = lvl;
    }
}

TEST(EqualizedQuantizer, HandlesMassiveTies)
{
    // Half the sample is the same value; bins collapse but level()
    // stays well-defined and in range.
    std::vector<double> sample(1000, 5.0);
    for (std::size_t i = 0; i < 1000; ++i)
        sample.push_back(static_cast<double>(i));
    const Quantizer q = fitEqualized(sample, 4);
    for (double v : sample)
        EXPECT_LT(q.level(v), 4u);
}

TEST(EqualizedQuantizer, ErrorsOnMisuse)
{
    EXPECT_THROW(fitEqualized(std::vector<double>{0.0, 1.0}, 0),
                 lookhd::util::ContractViolation);
    EXPECT_THROW(fitEqualized(std::vector<double>{}, 4),
                 lookhd::util::ContractViolation);
}

TEST(Quantizer, LevelsOfVector)
{
    const Quantizer q = fitLinear(std::vector<double>{0.0, 1.0}, 2);
    const auto lvls = q.levelsOf(std::vector<double>{0.1, 0.9, 0.4});
    EXPECT_EQ(lvls, (std::vector<std::size_t>{0, 1, 0}));
}

/** Parameterized sweep over q for both fits. */
class QuantizerSweep : public ::testing::TestWithParam<std::size_t>
{
};

TEST_P(QuantizerSweep, AllLevelsReachableEqualized)
{
    const std::size_t q = GetParam();
    const auto sample = lognormalSample(20000, 40 + q);
    const auto counts = occupancy(fitEqualized(sample, q), sample);
    for (std::size_t l = 0; l < q; ++l)
        EXPECT_GT(counts[l], 0u) << "level " << l << " of q=" << q;
}

TEST_P(QuantizerSweep, LinearLevelsWithinRange)
{
    const std::size_t q = GetParam();
    const auto sample = lognormalSample(5000, 80 + q);
    const Quantizer quant = fitLinear(sample, q);
    EXPECT_EQ(quant.levels(), q);
    for (double v : sample)
        EXPECT_LT(quant.level(v), q);
}

INSTANTIATE_TEST_SUITE_P(Levels, QuantizerSweep,
                         ::testing::Values(2, 4, 8, 16, 32));

} // namespace
