/**
 * @file
 * Cross-module property tests: parameterized sweeps of the
 * mathematical invariants the LookHD architecture rests on.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <memory>

#include "data/synthetic.hpp"
#include "hdc/similarity.hpp"
#include "lookhd/compressed_model.hpp"
#include "lookhd/counter_trainer.hpp"
#include "quant/quantizer_bank.hpp"
#include "util/stats.hpp"

namespace {

using namespace lookhd;
using namespace lookhd::hdc;

// ---------------------------------------------------------------
// Compression noise shrinks like 1/sqrt(D) (Eq. 5).
// ---------------------------------------------------------------

class NoiseVsDimension : public ::testing::TestWithParam<Dim>
{
  protected:
    /** Mean |approx - exact| score deviation at dimension d. */
    static double
    meanNoise(Dim d)
    {
        util::Rng rng(99);
        ClassModel model(d, 6);
        for (std::size_t c = 0; c < 6; ++c) {
            const BipolarHv proto = randomBipolar(d, rng);
            IntHv &hv = model.classHv(c);
            for (std::size_t i = 0; i < d; ++i)
                hv[i] = 50 * proto[i];
        }
        util::Rng key_rng(101);
        CompressionConfig cfg;
        cfg.decorrelate = false;
        cfg.keepReference = true;
        cfg.scaleScores = false;
        const CompressedModel compressed(model, key_rng, cfg);

        util::RunningStats noise;
        util::Rng qrng(103);
        for (int t = 0; t < 30; ++t) {
            IntHv q(d);
            for (auto &v : q)
                v = static_cast<std::int32_t>(qrng.nextBelow(21)) - 10;
            const auto approx = compressed.scores(q);
            const auto exact = compressed.exactScores(q);
            for (std::size_t c = 0; c < approx.size(); ++c)
                // Normalize by the scale so dims are comparable.
                noise.push(std::abs(approx[c] - exact[c]) /
                           (50.0 * std::sqrt(static_cast<double>(d))));
        }
        return noise.mean();
    }
};

TEST_P(NoiseVsDimension, RelativeNoiseDecreasesWithD)
{
    const Dim d = GetParam();
    // Normalized as above, noise is ~constant * 1/sqrt(D) * sqrt(D)
    // = constant; the *relative* noise (vs signal ~ D) shrinks. Check
    // the direct statement: absolute noise grows slower than the
    // signal.
    const double noise_d = meanNoise(d);
    const double noise_4d = meanNoise(4 * d);
    // Normalized noise should be roughly flat (each is |noise| /
    // (50 sqrt(D)) ~ query_std * sqrt(k-1)); allow generous slack.
    EXPECT_LT(noise_4d, noise_d * 1.6);
    EXPECT_GT(noise_4d, noise_d * 0.4);
}

INSTANTIATE_TEST_SUITE_P(Dims, NoiseVsDimension,
                         ::testing::Values(500, 1000, 2000));

// ---------------------------------------------------------------
// Counter training == encoding sums for random configurations.
// ---------------------------------------------------------------

struct RandomConfig
{
    std::size_t n, q, r, k, samples;
    std::uint64_t seed;
};

class CounterExactness : public ::testing::TestWithParam<RandomConfig>
{
};

TEST_P(CounterExactness, HoldsForRandomConfigurations)
{
    const RandomConfig cfg = GetParam();
    data::SyntheticSpec spec;
    spec.numFeatures = cfg.n;
    spec.numClasses = cfg.k;
    spec.seed = cfg.seed;
    data::SyntheticProblem problem(spec);
    const data::Dataset train = problem.sample(cfg.samples);

    util::Rng rng(cfg.seed * 7 + 1);
    auto levels = std::make_shared<LevelMemory>(160, cfg.q, rng);
    LookupEncoder encoder(
        levels,
        quant::QuantizerBank(quant::fitEqualized(train.allValues(), cfg.q),
                             cfg.n),
        ChunkSpec(cfg.n, cfg.r), rng);

    CounterTrainer trainer(encoder);
    const ClassModel counted = trainer.train(train);
    ClassModel summed(160, cfg.k);
    for (std::size_t i = 0; i < train.size(); ++i)
        summed.accumulate(train.label(i),
                          encoder.encode(train.row(i)));
    for (std::size_t c = 0; c < cfg.k; ++c)
        EXPECT_EQ(counted.classHv(c), summed.classHv(c));
}

INSTANTIATE_TEST_SUITE_P(
    Random, CounterExactness,
    ::testing::Values(RandomConfig{7, 2, 3, 2, 20, 1},
                      RandomConfig{31, 4, 5, 3, 45, 2},
                      RandomConfig{13, 3, 4, 5, 60, 3},
                      RandomConfig{50, 2, 7, 4, 32, 4},
                      RandomConfig{9, 8, 2, 2, 28, 5},
                      RandomConfig{24, 5, 6, 3, 50, 6}));

// ---------------------------------------------------------------
// Encoding locality: perturbing one feature moves the encoding by a
// bounded amount, shrinking as the number of chunks grows.
// ---------------------------------------------------------------

class EncodingLocality : public ::testing::TestWithParam<std::size_t>
{
};

TEST_P(EncodingLocality, OneFeatureFlipBoundedByChunkShare)
{
    const std::size_t n = GetParam();
    util::Rng rng(200 + n);
    auto levels = std::make_shared<LevelMemory>(2000, 4, rng);
    std::vector<double> sample(4000);
    for (auto &v : sample)
        v = rng.nextDouble();
    LookupEncoder encoder(
        levels, quant::QuantizerBank(quant::fitEqualized(sample, 4), n),
        ChunkSpec(n, 5), rng);

    std::vector<double> a(n);
    for (auto &v : a)
        v = rng.nextDouble();
    std::vector<double> b = a;
    b[n / 2] = 1.0 - b[n / 2]; // flip one feature across the range

    const IntHv ha = encoder.encode(a);
    const IntHv hb = encoder.encode(b);
    const double sim = cosine(ha, hb);
    // One changed feature affects only its own chunk: similarity
    // stays above roughly (m - 1) / m (with slack for chunk internals).
    const double m = static_cast<double>(encoder.chunks().numChunks());
    EXPECT_GT(sim, (m - 1.0) / m - 0.25) << "n=" << n;
    EXPECT_LT(sim, 1.0);
}

INSTANTIATE_TEST_SUITE_P(FeatureCounts, EncodingLocality,
                         ::testing::Values(10, 25, 50, 100, 200));

// ---------------------------------------------------------------
// Unbinding recovers a class from the superposition (Eq. 4).
// ---------------------------------------------------------------

TEST(SuperpositionRecovery, UnboundGroupIsClosestToOwnClass)
{
    const Dim d = 4000;
    util::Rng rng(301);
    ClassModel model(d, 5);
    for (std::size_t c = 0; c < 5; ++c) {
        const BipolarHv proto = randomBipolar(d, rng);
        for (std::size_t i = 0; i < d; ++i)
            model.classHv(c)[i] = 10 * proto[i];
    }
    util::Rng key_rng(303);
    CompressionConfig cfg;
    cfg.decorrelate = false;
    const CompressedModel compressed(model, key_rng, cfg);

    // Unbind the group with key c and compare against every class.
    for (std::size_t c = 0; c < 5; ++c) {
        const RealHv &group = compressed.groupHv(0);
        const BipolarHv &key = compressed.classKeys().at(c);
        RealHv unbound(d);
        for (std::size_t i = 0; i < d; ++i)
            unbound[i] = key[i] * group[i];
        for (std::size_t other = 0; other < 5; ++other) {
            const double sim =
                cosine(unbound, toReal(model.classHv(other)));
            if (other == c)
                EXPECT_GT(sim, 0.35);
            else
                EXPECT_LT(std::abs(sim), 0.1);
        }
    }
}

} // namespace
