/**
 * @file
 * Tests for the LookHD lookup encoder: exact equivalence with direct
 * chunked encoding (Eqs. 2-3) and structural properties.
 */

#include <gtest/gtest.h>

#include <memory>

#include "hdc/kernels.hpp"
#include "hdc/similarity.hpp"
#include "lookhd/lookup_encoder.hpp"
#include "quant/quantizer_bank.hpp"
#include "util/check.hpp"

namespace {

using namespace lookhd;
using namespace lookhd::hdc;
namespace kernels = lookhd::hdc::kernels;

const std::vector<double> kUnitRange{0.0, 1.0};

struct Fixture
{
    std::shared_ptr<LevelMemory> levels;
    quant::Quantizer quantizer;
    std::unique_ptr<LookupEncoder> encoder;
    util::Rng rng;

    Fixture(Dim dim, std::size_t q, std::size_t n, std::size_t r,
            std::uint64_t seed = 1,
            LookupEncoderConfig cfg = {})
        : quantizer(quant::fitLinear(kUnitRange, q)), rng(seed)
    {
        levels = std::make_shared<LevelMemory>(dim, q, rng);
        encoder = std::make_unique<LookupEncoder>(
            levels, quant::QuantizerBank(quantizer, n), ChunkSpec(n, r),
            rng, cfg);
    }

    std::vector<double>
    randomFeatures(std::size_t n)
    {
        std::vector<double> f(n);
        for (auto &v : f)
            v = rng.nextDouble();
        return f;
    }

    /** Direct Eq. 2 + Eq. 3 computation, no lookup machinery. */
    IntHv
    manualEncode(std::span<const double> features)
    {
        const ChunkSpec &chunks = encoder->chunks();
        IntHv acc(encoder->dim(), 0);
        for (std::size_t c = 0; c < chunks.numChunks(); ++c) {
            IntHv chunk_hv(encoder->dim(), 0);
            for (std::size_t j = 0; j < chunks.length(c); ++j) {
                const std::size_t lvl =
                    quantizer.level(features[chunks.begin(c) + j]);
                addRotated(chunk_hv, levels->at(lvl), j);
            }
            const BipolarHv &key = encoder->positionKeys().at(c);
            for (std::size_t d = 0; d < acc.size(); ++d)
                acc[d] += key[d] * chunk_hv[d];
        }
        return acc;
    }
};

TEST(LookupEncoder, MatchesDirectChunkedEncoding)
{
    Fixture fx(512, 4, 23, 5, 3);
    for (int trial = 0; trial < 10; ++trial) {
        const auto features = fx.randomFeatures(23);
        EXPECT_EQ(fx.encoder->encode(features),
                  fx.manualEncode(features))
            << "trial " << trial;
    }
}

TEST(LookupEncoder, MaterializedAndLazyModesAgree)
{
    LookupEncoderConfig lazy_cfg;
    lazy_cfg.materializeBudgetBytes = 0;
    Fixture dense(256, 4, 20, 5, 7);
    Fixture lazy(256, 4, 20, 5, 7, lazy_cfg);
    ASSERT_GT(dense.encoder->materializedBytes(), 0u);
    ASSERT_EQ(lazy.encoder->materializedBytes(), 0u);
    for (int trial = 0; trial < 5; ++trial) {
        const auto features = dense.randomFeatures(20);
        EXPECT_EQ(dense.encoder->encode(features),
                  lazy.encoder->encode(features));
    }
}

TEST(LookupEncoder, HandlesRaggedTailChunk)
{
    // 13 = 2 chunks of 5 + tail of 3; the tail uses its own table.
    Fixture fx(256, 2, 13, 5, 11);
    EXPECT_EQ(fx.encoder->chunks().numChunks(), 3u);
    EXPECT_EQ(fx.encoder->tableFor(2).chunkLen(), 3u);
    EXPECT_EQ(fx.encoder->tableFor(0).chunkLen(), 5u);
    const auto features = fx.randomFeatures(13);
    EXPECT_EQ(fx.encoder->encode(features), fx.manualEncode(features));
}

TEST(LookupEncoder, EveryImplEncodesAsDirectEquations)
{
    // One chunk (m = 1) and PHYSICAL's 11 (52 features, a ragged tail
    // of 2), plus more chunks than one kernel pass sums; dimensions
    // that are not a multiple of any vector width; materialized and
    // lazily computed tables. encode(), encodeInto() into a reused
    // buffer and encodeFromAddresses() must all give Eqs. 2-3 under
    // every kernel Impl.
    LookupEncoderConfig lazy;
    lazy.materializeBudgetBytes = 0;
    const struct
    {
        Dim dim;
        std::size_t n;
        std::size_t r;
        LookupEncoderConfig cfg;
    } shapes[] = {
        {3, 3, 5, {}},      {17, 4, 5, {}},   {2000, 52, 5, {}},
        {1001, 52, 5, lazy}, {65, 88, 5, {}}, {127, 88, 5, lazy},
    };
    for (const auto &shape : shapes) {
        Fixture fx(shape.dim, 2, shape.n, shape.r, 29, shape.cfg);
        IntHv reused;
        for (int trial = 0; trial < 4; ++trial) {
            const auto features = fx.randomFeatures(shape.n);
            const IntHv expected = fx.manualEncode(features);
            const auto addrs = fx.encoder->chunkAddresses(features);
            for (const kernels::Impl impl :
                 {kernels::Impl::kScalar, kernels::Impl::kAvx2,
                  kernels::Impl::kAvx512, kernels::Impl::kNeon}) {
                if (!kernels::implAvailable(impl))
                    continue;
                kernels::forceImpl(impl);
                EXPECT_EQ(fx.encoder->encode(features), expected)
                    << kernels::implName(impl) << " D=" << shape.dim
                    << " n=" << shape.n;
                fx.encoder->encodeInto(features, reused);
                EXPECT_EQ(reused, expected) << kernels::implName(impl);
                EXPECT_EQ(fx.encoder->encodeFromAddresses(addrs),
                          expected)
                    << kernels::implName(impl);
                kernels::clearForcedImpl();
            }
        }
    }
}

TEST(LookupEncoder, ChunkAddressesMatchQuantizedLevels)
{
    Fixture fx(128, 4, 10, 5, 13);
    const auto features = fx.randomFeatures(10);
    const auto lvls = fx.encoder->quantize(features);
    const auto addrs = fx.encoder->chunkAddresses(features);
    ASSERT_EQ(addrs.size(), 2u);
    EXPECT_EQ(addrs[0],
              addressOf(std::span(lvls).subspan(0, 5), 4));
    EXPECT_EQ(addrs[1],
              addressOf(std::span(lvls).subspan(5, 5), 4));
}

TEST(LookupEncoder, ChunkAddressesEqualAddressOfForEveryQ)
{
    // The encoder computes addresses by Horner's rule; they must equal
    // codebook addressOf on random levels, the ragged tail chunk
    // included, and an out-of-range level must still throw.
    for (const std::size_t q : {2UL, 3UL, 4UL, 16UL}) {
        const std::size_t n = 13;
        const std::size_t r = q == 16 ? 3 : 5;
        Fixture fx(131, q, n, r, 40 + q);
        const ChunkSpec &chunks = fx.encoder->chunks();
        ASSERT_NE(chunks.length(chunks.numChunks() - 1), r);
        util::Rng rng(q);
        std::vector<std::size_t> lvls(n);
        for (int trial = 0; trial < 50; ++trial) {
            for (auto &l : lvls)
                l = rng.nextBelow(q);
            const auto addrs = fx.encoder->chunkAddressesOfLevels(lvls);
            ASSERT_EQ(addrs.size(), chunks.numChunks());
            for (std::size_t c = 0; c < chunks.numChunks(); ++c)
                EXPECT_EQ(addrs[c],
                          addressOf(std::span(lvls).subspan(
                                        chunks.begin(c), chunks.length(c)),
                                    q))
                    << "q=" << q << " chunk " << c;
        }
        for (const std::size_t at : {std::size_t{0}, n - 1}) {
            std::vector<std::size_t> bad(n, 0);
            bad[at] = q;
            EXPECT_THROW(fx.encoder->chunkAddressesOfLevels(bad),
                         util::ContractViolation)
                << "q=" << q << " at " << at;
        }
    }
}

TEST(LookupEncoder, NonBipolarPositionKeyThrows)
{
    // Keys are kept as sign bits, which hold +-1 only: a restored key
    // with any other element is refused, inside a packed byte group
    // or in the tail past the last whole one.
    Fixture fx(131, 2, 10, 5, 41);
    for (const std::size_t at : {std::size_t{5}, std::size_t{130}}) {
        std::vector<BipolarHv> keys = {fx.encoder->positionKeys().at(0),
                                       fx.encoder->positionKeys().at(1)};
        keys[1][at] = 0;
        EXPECT_THROW(LookupEncoder(fx.levels,
                                   quant::QuantizerBank(fx.quantizer, 10),
                                   ChunkSpec(10, 5),
                                   KeyMemory(std::move(keys))),
                     util::ContractViolation)
            << "at " << at;
    }
}

TEST(LookupEncoder, EncodeFromAddressesAgrees)
{
    Fixture fx(128, 2, 15, 5, 17);
    const auto features = fx.randomFeatures(15);
    const auto addrs = fx.encoder->chunkAddresses(features);
    EXPECT_EQ(fx.encoder->encodeFromAddresses(addrs),
              fx.encoder->encode(features));
}

TEST(LookupEncoder, SimilarInputsSimilarEncodings)
{
    Fixture fx(4000, 8, 50, 5, 19);
    auto a = fx.randomFeatures(50);
    auto b = a;
    b[7] = std::min(1.0, b[7] + 0.02);
    const auto c = fx.randomFeatures(50);
    const IntHv ha = fx.encoder->encode(a);
    const IntHv hb = fx.encoder->encode(b);
    const IntHv hc = fx.encoder->encode(c);
    EXPECT_GT(cosine(ha, hb), cosine(ha, hc) + 0.2);
}

TEST(LookupEncoder, ChunkOrderMatters)
{
    // Swapping two whole chunks changes the encoding because of the
    // position keys (Eq. 3), even though chunk contents are identical.
    Fixture fx(4000, 4, 10, 5, 23);
    std::vector<double> a{0.1, 0.2, 0.3, 0.4, 0.5,
                          0.9, 0.8, 0.7, 0.6, 0.5};
    std::vector<double> b{0.9, 0.8, 0.7, 0.6, 0.5,
                          0.1, 0.2, 0.3, 0.4, 0.5};
    const IntHv ha = fx.encoder->encode(a);
    const IntHv hb = fx.encoder->encode(b);
    EXPECT_LT(cosine(ha, hb), 0.5);
}

TEST(LookupEncoder, ValidationErrors)
{
    Fixture fx(128, 4, 10, 5, 29);
    EXPECT_THROW(fx.encoder->encode(std::vector<double>(9, 0.5)),
                 util::ContractViolation);
    EXPECT_THROW(fx.encoder->tableFor(2), util::ContractViolation);
    const std::vector<Address> wrong(3, 0);
    EXPECT_THROW(fx.encoder->encodeFromAddresses(wrong),
                 util::ContractViolation);
    // The quantizer's levels must match the level memory.
    const quant::QuantizerBank q8(quant::fitLinear(kUnitRange, 8), 10);
    EXPECT_THROW(LookupEncoder(fx.levels, q8, ChunkSpec(10, 5), fx.rng),
                 util::ContractViolation);
}

TEST(LookupEncoder, DeterministicAcrossInstancesWithSameSeed)
{
    Fixture a(256, 4, 20, 5, 31);
    Fixture b(256, 4, 20, 5, 31);
    const auto features = a.randomFeatures(20);
    EXPECT_EQ(a.encoder->encode(features), b.encoder->encode(features));
}

/** Parameterized equivalence across chunk sizes. */
class ChunkSizeSweep : public ::testing::TestWithParam<std::size_t>
{
};

TEST_P(ChunkSizeSweep, LookupEqualsDirect)
{
    const std::size_t r = GetParam();
    Fixture fx(200, 2, 17, r, 100 + r);
    const auto features = fx.randomFeatures(17);
    EXPECT_EQ(fx.encoder->encode(features), fx.manualEncode(features));
}

INSTANTIATE_TEST_SUITE_P(ChunkSizes, ChunkSizeSweep,
                         ::testing::Values(1, 2, 3, 5, 8, 17, 20));

} // namespace
