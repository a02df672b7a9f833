/**
 * @file
 * Tests for LookHD counter-based training (Sec. III-D): the central
 * invariant is bit-exact equality with summing per-point encodings.
 */

#include <gtest/gtest.h>

#include <memory>

#include "data/synthetic.hpp"
#include "lookhd/counter_trainer.hpp"
#include "quant/quantizer_bank.hpp"
#include "util/check.hpp"

namespace {

using namespace lookhd;
using namespace lookhd::hdc;

struct Fixture
{
    std::shared_ptr<LevelMemory> levels;
    std::unique_ptr<LookupEncoder> encoder;
    data::Dataset train;

    Fixture(Dim dim, std::size_t q, std::size_t r,
            const data::SyntheticSpec &spec, std::size_t samples,
            std::uint64_t seed = 1)
        : train(1, 1)
    {
        data::SyntheticProblem problem(spec);
        train = problem.sample(samples);

        util::Rng rng(seed);
        levels = std::make_shared<LevelMemory>(dim, q, rng);
        encoder = std::make_unique<LookupEncoder>(
            levels,
            quant::QuantizerBank(quant::fitEqualized(train.allValues(), q),
                                 spec.numFeatures),
            ChunkSpec(spec.numFeatures, r), rng);
    }
};

data::SyntheticSpec
smallSpec(std::size_t n, std::size_t k, std::uint64_t seed)
{
    data::SyntheticSpec spec;
    spec.numFeatures = n;
    spec.numClasses = k;
    spec.seed = seed;
    return spec;
}

TEST(ChunkCountersTest, DenseIncrementAndQuery)
{
    ChunkCounters counters(16, 1024);
    EXPECT_TRUE(counters.dense());
    counters.increment(3);
    counters.increment(3);
    counters.increment(15);
    EXPECT_EQ(counters.count(3), 2u);
    EXPECT_EQ(counters.count(15), 1u);
    EXPECT_EQ(counters.count(0), 0u);
    EXPECT_EQ(counters.distinct(), 2u);
    EXPECT_EQ(counters.total(), 3u);
}

TEST(ChunkCountersTest, SparseIncrementAndQuery)
{
    ChunkCounters counters(1u << 30, 1024);
    EXPECT_FALSE(counters.dense());
    counters.increment(123456789);
    counters.increment(123456789);
    EXPECT_EQ(counters.count(123456789), 2u);
    EXPECT_EQ(counters.distinct(), 1u);
}

TEST(ChunkCountersTest, ForEachVisitsExactlyNonzero)
{
    ChunkCounters counters(8, 1024);
    counters.increment(1);
    counters.increment(5);
    counters.increment(5);
    std::vector<std::pair<Address, std::uint32_t>> seen;
    counters.forEach([&](Address a, std::uint32_t c) {
        seen.emplace_back(a, c);
    });
    std::sort(seen.begin(), seen.end());
    ASSERT_EQ(seen.size(), 2u);
    EXPECT_EQ(seen[0], (std::pair<Address, std::uint32_t>{1, 1}));
    EXPECT_EQ(seen[1], (std::pair<Address, std::uint32_t>{5, 2}));
}

TEST(ChunkCountersTest, OutOfRangeThrows)
{
    ChunkCounters counters(8, 1024);
    EXPECT_THROW(counters.increment(8), util::ContractViolation);
    EXPECT_THROW(counters.count(9), util::ContractViolation);
}

TEST(CounterTrainerTest, ExactlyEqualsSumOfEncodings)
{
    // The paper's training factorization is exact: counting patterns
    // then multiplying by the table equals summing per-point
    // encodings, integer for integer.
    Fixture fx(300, 4, 5, smallSpec(22, 3, 5), 90, 3);

    CounterTrainer trainer(*fx.encoder);
    const ClassModel counted = trainer.train(fx.train);

    ClassModel summed(fx.encoder->dim(), fx.train.numClasses());
    for (std::size_t i = 0; i < fx.train.size(); ++i)
        summed.accumulate(fx.train.label(i),
                          fx.encoder->encode(fx.train.row(i)));

    for (std::size_t c = 0; c < 3; ++c)
        EXPECT_EQ(counted.classHv(c), summed.classHv(c))
            << "class " << c;
}

TEST(CounterTrainerTest, SparseCountersGiveSameModel)
{
    Fixture fx(200, 4, 5, smallSpec(15, 2, 7), 60, 5);

    CounterTrainerConfig dense_cfg;
    dense_cfg.denseCounterThreshold = Address{1} << 20;
    CounterTrainerConfig sparse_cfg;
    sparse_cfg.denseCounterThreshold = 0;

    const ClassModel a =
        CounterTrainer(*fx.encoder, dense_cfg).train(fx.train);
    const ClassModel b =
        CounterTrainer(*fx.encoder, sparse_cfg).train(fx.train);
    for (std::size_t c = 0; c < 2; ++c)
        EXPECT_EQ(a.classHv(c), b.classHv(c));
}

TEST(CounterTrainerTest, CountBankTracksDataset)
{
    Fixture fx(100, 2, 5, smallSpec(10, 2, 9), 40, 7);
    CounterTrainer trainer(*fx.encoder);
    const CounterBank bank = trainer.countDataset(fx.train);

    EXPECT_EQ(bank.numClasses(), 2u);
    EXPECT_EQ(bank.numChunks(), 2u);
    const auto counts = fx.train.classCounts();
    for (std::size_t c = 0; c < 2; ++c) {
        for (std::size_t ch = 0; ch < 2; ++ch)
            EXPECT_EQ(bank.at(c, ch).total(), counts[c]);
    }
}

TEST(CounterTrainerTest, FinalizedModelIsNormalized)
{
    Fixture fx(100, 2, 5, smallSpec(10, 2, 11), 30, 9);
    CounterTrainer trainer(*fx.encoder);
    const ClassModel model = trainer.train(fx.train);
    EXPECT_TRUE(model.normalized());
}

TEST(CounterTrainerTest, RaggedTailChunkStillExact)
{
    // n = 13 with r = 5 exercises the short-tail table inside the
    // counter bank.
    Fixture fx(150, 2, 5, smallSpec(13, 2, 13), 40, 11);
    CounterTrainer trainer(*fx.encoder);
    const ClassModel counted = trainer.train(fx.train);

    ClassModel summed(fx.encoder->dim(), 2);
    for (std::size_t i = 0; i < fx.train.size(); ++i)
        summed.accumulate(fx.train.label(i),
                          fx.encoder->encode(fx.train.row(i)));
    for (std::size_t c = 0; c < 2; ++c)
        EXPECT_EQ(counted.classHv(c), summed.classHv(c));
}

TEST(CounterBankTest, ObserveValidation)
{
    Fixture fx(100, 2, 5, smallSpec(10, 2, 15), 10, 13);
    CounterTrainerConfig cfg;
    CounterBank bank(*fx.encoder, 2, cfg);
    const std::vector<Address> wrong(3, 0);
    EXPECT_THROW(bank.observe(0, wrong), util::ContractViolation);
    EXPECT_THROW(bank.observe(5, std::vector<Address>(2, 0)),
                 util::ContractViolation);
}

/** Parameterized exactness sweep over (q, r). */
class CounterSweep
    : public ::testing::TestWithParam<std::pair<std::size_t, std::size_t>>
{
};

TEST_P(CounterSweep, ExactForAllConfigs)
{
    const auto [q, r] = GetParam();
    Fixture fx(120, q, r, smallSpec(17, 2, 21 + q + r), 50,
               17 + q * 10 + r);
    CounterTrainer trainer(*fx.encoder);
    const ClassModel counted = trainer.train(fx.train);
    ClassModel summed(fx.encoder->dim(), 2);
    for (std::size_t i = 0; i < fx.train.size(); ++i)
        summed.accumulate(fx.train.label(i),
                          fx.encoder->encode(fx.train.row(i)));
    for (std::size_t c = 0; c < 2; ++c)
        EXPECT_EQ(counted.classHv(c), summed.classHv(c));
}

INSTANTIATE_TEST_SUITE_P(
    Configs, CounterSweep,
    ::testing::Values(std::pair<std::size_t, std::size_t>{2, 1},
                      std::pair<std::size_t, std::size_t>{2, 5},
                      std::pair<std::size_t, std::size_t>{4, 3},
                      std::pair<std::size_t, std::size_t>{4, 5},
                      std::pair<std::size_t, std::size_t>{8, 2},
                      std::pair<std::size_t, std::size_t>{16, 2}));

} // namespace
