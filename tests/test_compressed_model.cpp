/**
 * @file
 * Tests for model compression (Sec. IV): signal/noise structure,
 * decorrelation, grouping and compressed-domain updates.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>

#include "hdc/kernels.hpp"
#include "hdc/similarity.hpp"
#include "lookhd/compressed_model.hpp"
#include "util/stats.hpp"
#include "util/check.hpp"

namespace {

using namespace lookhd;
using namespace lookhd::hdc;

/**
 * A trained-model stand-in: class hypervectors that share a common
 * component (as real HDC models do, Fig. 8) plus a private component.
 */
ClassModel
syntheticModel(Dim dim, std::size_t k, double common_weight,
               std::uint64_t seed)
{
    util::Rng rng(seed);
    const BipolarHv common = randomBipolar(dim, rng);
    ClassModel model(dim, k);
    for (std::size_t c = 0; c < k; ++c) {
        const BipolarHv private_part = randomBipolar(dim, rng);
        IntHv &hv = model.classHv(c);
        for (std::size_t i = 0; i < dim; ++i) {
            hv[i] = static_cast<std::int32_t>(
                std::lround(100.0 * (common_weight * common[i] +
                                     (1.0 - common_weight) *
                                         private_part[i])));
        }
    }
    model.normalize();
    return model;
}

IntHv
randomQuery(Dim dim, util::Rng &rng)
{
    IntHv q(dim);
    for (auto &v : q)
        v = static_cast<std::int32_t>(rng.nextBelow(21)) - 10;
    return q;
}

TEST(Decorrelate, WidensCosineDistribution)
{
    // Fig. 8: raw class hypervectors cluster near cosine 1; after
    // removing the common component the spread widens dramatically.
    const ClassModel model = syntheticModel(4000, 6, 0.9, 1);

    std::vector<double> before, after;
    const auto decorrelated = decorrelateClasses(model);
    for (std::size_t i = 0; i < 6; ++i) {
        for (std::size_t j = i + 1; j < 6; ++j) {
            before.push_back(cosine(toReal(model.classHv(i)),
                                    toReal(model.classHv(j))));
            after.push_back(cosine(decorrelated[i], decorrelated[j]));
        }
    }
    EXPECT_GT(util::mean(before), 0.85);
    EXPECT_LT(util::mean(after), util::mean(before) - 0.4);
}

TEST(Decorrelate, PreservesDistinctions)
{
    // Decorrelation must keep different classes different.
    const ClassModel model = syntheticModel(4000, 4, 0.8, 3);
    const auto decorrelated = decorrelateClasses(model);
    for (std::size_t i = 0; i < 4; ++i) {
        EXPECT_GT(norm(decorrelated[i]), 0.0);
        for (std::size_t j = i + 1; j < 4; ++j)
            EXPECT_LT(cosine(decorrelated[i], decorrelated[j]), 0.99);
    }
}

TEST(CompressedModelTest, RecoversExactRankingOnEasyModel)
{
    const ClassModel model = syntheticModel(4000, 4, 0.3, 5);
    util::Rng rng(7);
    CompressionConfig cfg;
    cfg.decorrelate = false;
    cfg.keepReference = true;
    const CompressedModel compressed(model, rng, cfg);

    // Query near class 2's hypervector must score class 2 highest.
    IntHv query = model.classHv(2);
    EXPECT_EQ(compressed.predict(query), 2u);
}

TEST(CompressedModelTest, ScoresEqualExactPlusBoundedNoise)
{
    // Eq. 5: recovered score = signal + cross-term noise; the noise
    // shrinks relative to the signal as D grows.
    const Dim dim = 8000;
    const ClassModel model = syntheticModel(dim, 6, 0.0, 9);
    util::Rng rng(11);
    CompressionConfig cfg;
    cfg.decorrelate = false;
    cfg.keepReference = true;
    cfg.scaleScores = false;
    const CompressedModel compressed(model, rng, cfg);

    util::Rng qrng(13);
    for (int trial = 0; trial < 5; ++trial) {
        const IntHv query = randomQuery(dim, qrng);
        const auto approx = compressed.scores(query);
        const auto exact = compressed.exactScores(query);
        // Noise scale: cross terms of k-1 classes, each ~
        // ||H|| * ||C_j|| / sqrt(D).
        const double bound = 5.0 * std::sqrt(5.0) *
                             norm(query) *
                             norm(toReal(model.classHv(0))) /
                             std::sqrt(static_cast<double>(dim));
        for (std::size_t c = 0; c < approx.size(); ++c)
            EXPECT_LT(std::abs(approx[c] - exact[c]), bound)
                << "class " << c;
    }
}

TEST(CompressedModelTest, NoiseGrowsWithClassCount)
{
    // Fig. 15a: more classes folded together -> more crosstalk.
    util::Rng qrng(17);
    const Dim dim = 2000;
    double noise_small = 0.0, noise_large = 0.0;
    for (auto [k, noise] :
         {std::pair<std::size_t, double *>{4, &noise_small},
          std::pair<std::size_t, double *>{32, &noise_large}}) {
        const ClassModel model = syntheticModel(dim, k, 0.0, 21);
        util::Rng rng(23);
        CompressionConfig cfg;
        cfg.decorrelate = false;
        cfg.keepReference = true;
        cfg.scaleScores = false;
        const CompressedModel compressed(model, rng, cfg);
        util::RunningStats stats;
        for (int t = 0; t < 20; ++t) {
            const IntHv query = randomQuery(dim, qrng);
            const auto approx = compressed.scores(query);
            const auto exact = compressed.exactScores(query);
            for (std::size_t c = 0; c < k; ++c)
                stats.push(std::abs(approx[c] - exact[c]));
        }
        *noise = stats.mean();
    }
    EXPECT_GT(noise_large, noise_small * 1.5);
}

TEST(CompressedModelTest, GroupingReducesNoise)
{
    // Sec. VI-G: splitting classes into groups bounds the crosstalk.
    const Dim dim = 2000;
    const std::size_t k = 24;
    const ClassModel model = syntheticModel(dim, k, 0.0, 29);
    util::Rng qrng(31);

    double noise_single = 0.0, noise_grouped = 0.0;
    for (auto [group, noise] :
         {std::pair<std::size_t, double *>{0, &noise_single},
          std::pair<std::size_t, double *>{6, &noise_grouped}}) {
        util::Rng rng(33);
        CompressionConfig cfg;
        cfg.decorrelate = false;
        cfg.keepReference = true;
        cfg.scaleScores = false;
        cfg.maxClassesPerGroup = group;
        const CompressedModel compressed(model, rng, cfg);
        util::RunningStats stats;
        util::Rng qq = qrng.split();
        for (int t = 0; t < 20; ++t) {
            const IntHv query = randomQuery(dim, qq);
            const auto approx = compressed.scores(query);
            const auto exact = compressed.exactScores(query);
            for (std::size_t c = 0; c < k; ++c)
                stats.push(std::abs(approx[c] - exact[c]));
        }
        *noise = stats.mean();
    }
    EXPECT_LT(noise_grouped, noise_single * 0.8);
}

TEST(CompressedModelTest, GroupAssignment)
{
    const ClassModel model = syntheticModel(500, 26, 0.0, 35);
    util::Rng rng(37);
    CompressionConfig cfg;
    cfg.maxClassesPerGroup = 12;
    const CompressedModel compressed(model, rng, cfg);
    EXPECT_EQ(compressed.numGroups(), 3u);
    EXPECT_EQ(compressed.groupOf(0), 0u);
    EXPECT_EQ(compressed.groupOf(11), 0u);
    EXPECT_EQ(compressed.groupOf(12), 1u);
    EXPECT_EQ(compressed.groupOf(25), 2u);
    EXPECT_THROW(compressed.groupOf(26), util::ContractViolation);
}

TEST(CompressedModelTest, SizeBytesMuchSmallerThanUncompressed)
{
    // SPEECH shape: k = 26, D = 2000. Paper reports ~6.3x average
    // model-size reduction; the k = 26 case alone is much larger.
    const ClassModel model = syntheticModel(2000, 26, 0.0, 39);
    util::Rng rng(41);
    const CompressedModel compressed(model, rng, {});
    EXPECT_EQ(compressed.numGroups(), 1u);
    const double ratio =
        static_cast<double>(model.sizeBytes()) /
        static_cast<double>(compressed.sizeBytes());
    EXPECT_GT(ratio, 10.0);
}

TEST(CompressedModelTest, TrackedNormsStartExact)
{
    const ClassModel model = syntheticModel(1000, 4, 0.0, 43);
    util::Rng rng(45);
    CompressionConfig cfg;
    cfg.decorrelate = false;
    const CompressedModel compressed(model, rng, cfg);
    for (std::size_t c = 0; c < 4; ++c) {
        EXPECT_NEAR(compressed.trackedNorm(c),
                    norm(model.classHv(c)),
                    1e-6 * norm(model.classHv(c)));
    }
}

TEST(CompressedModelTest, ApplyUpdateMovesScores)
{
    const Dim dim = 4000;
    const ClassModel model = syntheticModel(dim, 4, 0.0, 47);
    util::Rng rng(49);
    CompressionConfig cfg;
    cfg.decorrelate = false;
    const CompressedModel original(model, rng, cfg);

    util::Rng qrng(51);
    const IntHv query = randomQuery(dim, qrng);
    CompressedModel updated = original;
    updated.applyUpdate(1, 2, query, 1.0);

    const auto before = original.scores(query);
    const auto after = updated.scores(query);
    EXPECT_GT(after[1], before[1]);
    EXPECT_LT(after[2], before[2]);
    // Untouched classes move only by noise.
    EXPECT_NEAR(after[0], before[0],
                0.2 * std::abs(before[0]) + 1e3);
}

TEST(CompressedModelTest, ApplyUpdateTracksNormGrowth)
{
    const Dim dim = 4000;
    const ClassModel model = syntheticModel(dim, 3, 0.0, 53);
    util::Rng rng(55);
    CompressionConfig cfg;
    cfg.decorrelate = false;
    cfg.keepReference = true;
    CompressedModel compressed(model, rng, cfg);

    util::Rng qrng(57);
    const IntHv query = randomQuery(dim, qrng);
    compressed.applyUpdate(0, 1, query, 1.0);

    // Reference class 0 actually gained the query; the tracked norm
    // estimate should be within a few percent of the true norm.
    RealHv true_c0 = toReal(model.classHv(0));
    for (std::size_t i = 0; i < dim; ++i)
        true_c0[i] += query[i];
    EXPECT_NEAR(compressed.trackedNorm(0), norm(true_c0),
                0.05 * norm(true_c0));
}

TEST(CompressedModelTest, SameClassUpdateIsNoop)
{
    const ClassModel model = syntheticModel(500, 3, 0.0, 59);
    util::Rng rng(61);
    CompressedModel compressed(model, rng, {});
    const CompressedModel before = compressed;
    util::Rng qrng(63);
    const IntHv query = randomQuery(500, qrng);
    compressed.applyUpdate(2, 2, query, 1.0);
    EXPECT_EQ(compressed.scores(query), before.scores(query));
}

/** Bit equality of two doubles (distinguishes -0.0 from +0.0). */
bool
sameBits(double a, double b)
{
    return std::memcmp(&a, &b, sizeof a) == 0;
}

TEST(CompressedModelTest, BatchScoresEqualPerQueryScoresBitwise)
{
    // D = 1001 leaves a 4-lane tail; 131 queries span three batch
    // tiles, the last one odd.
    const Dim dim = 1001;
    const ClassModel model = syntheticModel(dim, 7, 0.4, 81);
    CompressionConfig grouped;
    grouped.maxClassesPerGroup = 3;
    grouped.scaleScores = true;
    CompressionConfig plain;
    plain.decorrelate = false;
    util::Rng qrng(83);
    std::vector<IntHv> queries;
    for (int i = 0; i < 131; ++i)
        queries.push_back(randomQuery(dim, qrng));
    std::vector<const IntHv *> ptrs;
    for (const IntHv &q : queries)
        ptrs.push_back(&q);

    for (const CompressionConfig &cfg :
         {CompressionConfig{}, grouped, plain}) {
        util::Rng rng(85);
        CompressedModel compressed(model, rng, cfg);
        CompressedModel::BatchScratch scratch;
        for (const kernels::Impl impl :
             {kernels::Impl::kScalar, kernels::Impl::kAvx2,
              kernels::Impl::kAvx512, kernels::Impl::kNeon}) {
            if (!kernels::implAvailable(impl))
                continue;
            kernels::forceImpl(impl);
            // Twice: once as built, once after an update, reusing
            // the scratch, so stale unbound rows would show.
            for (int round = 0; round < 2; ++round) {
                const std::vector<double> batch =
                    compressed.scoresBatch(ptrs.data(), ptrs.size());
                std::vector<std::size_t> labels(ptrs.size());
                compressed.predictBatch(ptrs.data(), ptrs.size(),
                                        scratch, labels.data());
                for (std::size_t q = 0; q < queries.size(); ++q) {
                    const std::vector<double> single =
                        compressed.scores(queries[q]);
                    for (std::size_t c = 0; c < single.size(); ++c)
                        EXPECT_TRUE(sameBits(
                            batch[q * single.size() + c], single[c]))
                            << kernels::implName(impl) << " round "
                            << round << " query " << q << " class "
                            << c;
                    EXPECT_EQ(labels[q], compressed.predict(queries[q]))
                        << kernels::implName(impl) << " query " << q;
                }
                compressed.applyUpdate(1, 5, queries[0], 0.75);
            }
        }
        kernels::clearForcedImpl();
    }
}

/**
 * applyUpdate() as separate passes, one per sum: the two recovered
 * signals, the projection on the common direction, |u|^2, then the
 * group updates and the norm refresh. Writes the updated groups and
 * norms of @p m into @p groups and @p norms.
 */
void
separatePassUpdate(const CompressedModel &m, std::size_t correct,
                   std::size_t wrong, const IntHv &query, double scale,
                   std::vector<RealHv> &groups, std::vector<double> &norms)
{
    const Dim dim = m.dim();
    groups.clear();
    for (std::size_t g = 0; g < m.numGroups(); ++g)
        groups.push_back(m.groupHv(g));
    norms.clear();
    for (std::size_t c = 0; c < m.numClasses(); ++c)
        norms.push_back(m.trackedNorm(c));
    const auto raw = [&](std::size_t cls) {
        const RealHv &group = groups[m.groupOf(cls)];
        const BipolarHv &key = m.classKeys().at(cls);
        double sum = 0.0;
        for (std::size_t i = 0; i < dim; ++i)
            sum += static_cast<double>(query[i]) * key[i] * group[i];
        return sum;
    };
    const double s_correct = raw(correct);
    const double s_wrong = raw(wrong);
    RealHv u = toReal(query);
    const RealHv &dir = m.commonDirection();
    if (!dir.empty()) {
        double proj = 0.0;
        for (std::size_t i = 0; i < dim; ++i)
            proj += u[i] * dir[i];
        for (std::size_t i = 0; i < dim; ++i)
            u[i] -= proj * dir[i];
    }
    double u_norm2 = 0.0;
    for (double v : u)
        u_norm2 += v * v;
    RealHv &g_correct = groups[m.groupOf(correct)];
    RealHv &g_wrong = groups[m.groupOf(wrong)];
    const BipolarHv &k_correct = m.classKeys().at(correct);
    const BipolarHv &k_wrong = m.classKeys().at(wrong);
    for (std::size_t i = 0; i < dim; ++i) {
        const double delta = scale * u[i];
        g_correct[i] += k_correct[i] * delta;
        g_wrong[i] -= k_wrong[i] * delta;
    }
    const auto refresh = [&](std::size_t cls, double signal,
                             double sgn) {
        const double n2 = norms[cls] * norms[cls] +
                          sgn * 2.0 * scale * signal +
                          scale * scale * u_norm2;
        norms[cls] = std::sqrt(std::max(n2, 1e-12));
    };
    refresh(correct, s_correct, +1.0);
    refresh(wrong, s_wrong, -1.0);
}

TEST(CompressedModelTest, FusedUpdateEqualsSeparatePassesBitwise)
{
    const Dim dim = 999;
    const ClassModel model = syntheticModel(dim, 4, 0.3, 87);
    CompressionConfig paired;
    paired.maxClassesPerGroup = 2; // {0, 1} and {2, 3}
    CompressionConfig plain;
    plain.decorrelate = false;
    util::Rng qrng(89);
    for (const CompressionConfig &cfg :
         {CompressionConfig{}, paired, plain}) {
        util::Rng rng(91);
        CompressedModel compressed(model, rng, cfg);
        // Same group and different groups under `paired`.
        for (const auto &[correct, wrong] :
             {std::pair<std::size_t, std::size_t>{0, 1}, {3, 0},
              {2, 3}}) {
            const IntHv query = randomQuery(dim, qrng);
            std::vector<RealHv> groups;
            std::vector<double> norms;
            separatePassUpdate(compressed, correct, wrong, query, 0.7,
                               groups, norms);
            compressed.applyUpdate(correct, wrong, query, 0.7);
            for (std::size_t g = 0; g < groups.size(); ++g)
                EXPECT_EQ(std::memcmp(groups[g].data(),
                                      compressed.groupHv(g).data(),
                                      dim * sizeof(double)),
                          0)
                    << "group " << g;
            for (std::size_t c = 0; c < norms.size(); ++c)
                EXPECT_TRUE(sameBits(norms[c], compressed.trackedNorm(c)))
                    << "norm " << c;
        }
    }
}

TEST(CompressedModelTest, ExactScoresRequireReference)
{
    const ClassModel model = syntheticModel(500, 3, 0.0, 65);
    util::Rng rng(67);
    const CompressedModel compressed(model, rng, {});
    IntHv query(500, 1);
    EXPECT_THROW(compressed.exactScores(query), std::logic_error);
}

TEST(CompressedModelTest, InputValidation)
{
    const ClassModel model = syntheticModel(500, 3, 0.0, 69);
    util::Rng rng(71);
    CompressedModel compressed(model, rng, {});
    IntHv wrong(100, 1);
    EXPECT_THROW(compressed.scores(wrong), util::ContractViolation);
    EXPECT_THROW(compressed.applyUpdate(0, 5, IntHv(500, 1), 1.0),
                 util::ContractViolation);
}

} // namespace
