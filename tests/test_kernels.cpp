/**
 * @file
 * Differential tests for the runtime-dispatched kernels: every
 * implementation (scalar, AVX2 when the CPU has it) must return
 * bit-identical results on the same inputs, across awkward lengths
 * (non-multiples of the 4-wide lanes and the 64-bit packed words),
 * misaligned pointers, and adversarial contents. Integer kernels are
 * additionally checked against naive reference loops; the double
 * kernels against a sequential sum within rounding tolerance plus
 * exact equality in the cases where every partial sum is an integer.
 */

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstring>
#include <stdexcept>
#include <vector>

#include "hdc/bitpack.hpp"
#include "hdc/kernels.hpp"
#include "hdc/similarity.hpp"
#include "util/rng.hpp"

namespace {

using namespace lookhd::hdc;
namespace kernels = lookhd::hdc::kernels;
using lookhd::util::Rng;

/** Pins dispatch for a test body, restoring best-available on exit. */
struct ForcedImpl
{
    explicit ForcedImpl(kernels::Impl impl)
    {
        kernels::forceImpl(impl);
    }
    ~ForcedImpl() { kernels::clearForcedImpl(); }
};

std::vector<kernels::Impl>
availableImpls()
{
    std::vector<kernels::Impl> impls;
    for (kernels::Impl impl :
         {kernels::Impl::kScalar, kernels::Impl::kAvx2,
          kernels::Impl::kAvx512, kernels::Impl::kNeon})
        if (kernels::implAvailable(impl))
            impls.push_back(impl);
    return impls;
}

// Lengths that straddle the 4-lane double blocks, the 8-wide int
// blocks, and the 64-bit packed words.
const std::size_t kDims[] = {1,  2,  3,  4,   5,   7,   8,
                             15, 16, 31, 63,  64,  65,  100,
                             127, 128, 129, 257, 1000};

/**
 * Random test operands copied to an extra `offset` elements into
 * their buffers so AVX2 unaligned loads get genuinely unaligned
 * pointers.
 */
struct Operands
{
    std::vector<std::int32_t> ints;
    std::vector<std::int32_t> ints2;
    std::vector<std::int8_t> signs;
    std::vector<double> reals;

    Operands(std::size_t n, std::size_t offset, Rng &rng)
        : ints(n + offset), ints2(n + offset), signs(n + offset),
          reals(n + offset)
    {
        for (std::size_t i = 0; i < n + offset; ++i) {
            ints[i] =
                static_cast<std::int32_t>(rng.nextBelow(20001)) -
                10000;
            ints2[i] =
                static_cast<std::int32_t>(rng.nextBelow(20001)) -
                10000;
            signs[i] = rng.nextBelow(2) == 0 ? -1 : 1;
            reals[i] = rng.nextDouble(-2.0, 2.0);
        }
    }

    const std::int32_t *a(std::size_t offset) const
    {
        return ints.data() + offset;
    }
    const std::int32_t *b(std::size_t offset) const
    {
        return ints2.data() + offset;
    }
    const std::int8_t *s(std::size_t offset) const
    {
        return signs.data() + offset;
    }
    const double *r(std::size_t offset) const
    {
        return reals.data() + offset;
    }
};

std::uint64_t
bits(double value)
{
    return std::bit_cast<std::uint64_t>(value);
}

TEST(Kernels, ScalarAlwaysAvailableAndForceable)
{
    EXPECT_TRUE(kernels::implAvailable(kernels::Impl::kScalar));
    {
        ForcedImpl forced(kernels::Impl::kScalar);
        EXPECT_EQ(kernels::activeImpl(), kernels::Impl::kScalar);
        EXPECT_STREQ(kernels::implName(kernels::activeImpl()),
                     "scalar");
    }
    // After the guard, dispatch is back to the best available.
    EXPECT_TRUE(kernels::implAvailable(kernels::activeImpl()));
}

TEST(Kernels, ForcingUnavailableImplThrows)
{
    if (kernels::implAvailable(kernels::Impl::kAvx2))
        GTEST_SKIP() << "AVX2 available on this host";
    EXPECT_THROW(kernels::forceImpl(kernels::Impl::kAvx2),
                 std::invalid_argument);
}

TEST(Kernels, TailMask)
{
    EXPECT_EQ(kernels::tailMask64(64), ~std::uint64_t{0});
    EXPECT_EQ(kernels::tailMask64(128), ~std::uint64_t{0});
    EXPECT_EQ(kernels::tailMask64(1), 1u);
    EXPECT_EQ(kernels::tailMask64(63),
              (std::uint64_t{1} << 63) - 1);
    EXPECT_EQ(kernels::tailMask64(65), 1u);
    EXPECT_EQ(kernels::tailMask64(66), 3u);
}

TEST(Kernels, IntDotsMatchNaiveReferenceEveryImpl)
{
    Rng rng(101);
    for (const std::size_t n : kDims) {
        for (std::size_t offset = 0; offset < 4; ++offset) {
            const Operands ops(n, offset, rng);
            std::int64_t refDot = 0, refDotI8 = 0;
            for (std::size_t i = 0; i < n; ++i) {
                refDot += std::int64_t{ops.a(offset)[i]} *
                          ops.b(offset)[i];
                refDotI8 += std::int64_t{ops.a(offset)[i]} *
                            ops.s(offset)[i];
            }
            for (const kernels::Impl impl : availableImpls()) {
                ForcedImpl forced(impl);
                EXPECT_EQ(kernels::dotInt(ops.a(offset),
                                          ops.b(offset), n),
                          refDot)
                    << kernels::implName(impl) << " n=" << n
                    << " offset=" << offset;
                EXPECT_EQ(kernels::dotIntI8(ops.a(offset),
                                            ops.s(offset), n),
                          refDotI8)
                    << kernels::implName(impl) << " n=" << n
                    << " offset=" << offset;
            }
        }
    }
}

TEST(Kernels, IntDotSurvivesExtremeValues)
{
    // INT32_MIN * -1 overflows int32; the kernels must widen first.
    const std::int32_t a[] = {INT32_MIN, INT32_MAX, INT32_MIN,
                              INT32_MAX, 7};
    const std::int32_t b[] = {-1, -1, INT32_MIN, INT32_MAX, -3};
    const std::int8_t s[] = {-1, 1, -1, 1, -1};
    std::int64_t refDot = 0, refDotI8 = 0;
    for (std::size_t i = 0; i < 5; ++i) {
        refDot += std::int64_t{a[i]} * b[i];
        refDotI8 += std::int64_t{a[i]} * s[i];
    }
    for (const kernels::Impl impl : availableImpls()) {
        ForcedImpl forced(impl);
        EXPECT_EQ(kernels::dotInt(a, b, 5), refDot)
            << kernels::implName(impl);
        EXPECT_EQ(kernels::dotIntI8(a, s, 5), refDotI8)
            << kernels::implName(impl);
    }
}

TEST(Kernels, RealDotsBitIdenticalAcrossImpls)
{
    Rng rng(202);
    for (const std::size_t n : kDims) {
        for (std::size_t offset = 0; offset < 4; ++offset) {
            const Operands ops(n, offset, rng);
            ForcedImpl scalar(kernels::Impl::kScalar);
            const double refIntReal = kernels::dotIntReal(
                ops.a(offset), ops.r(offset), n);
            const double refRealI8 = kernels::dotRealI8(
                ops.r(offset), ops.s(offset), n);
            kernels::clearForcedImpl();
            for (const kernels::Impl impl : availableImpls()) {
                kernels::forceImpl(impl);
                EXPECT_EQ(bits(kernels::dotIntReal(ops.a(offset),
                                                   ops.r(offset), n)),
                          bits(refIntReal))
                    << kernels::implName(impl) << " n=" << n
                    << " offset=" << offset;
                EXPECT_EQ(bits(kernels::dotRealI8(ops.r(offset),
                                                  ops.s(offset), n)),
                          bits(refRealI8))
                    << kernels::implName(impl) << " n=" << n
                    << " offset=" << offset;
            }
            // Plausibility vs a plain sequential sum: the 4-lane
            // order only reassociates, so the results agree to
            // rounding.
            double naive = 0.0;
            for (std::size_t i = 0; i < n; ++i)
                naive += static_cast<double>(ops.a(offset)[i]) *
                         ops.r(offset)[i];
            EXPECT_NEAR(refIntReal, naive,
                        1e-9 * (1.0 + std::abs(naive)))
                << "n=" << n;
        }
    }
}

TEST(Kernels, RealDotExactWhenOperandsAreSigns)
{
    // With a +-1.0 row every product and partial sum is an exact
    // small integer, so the double kernel must equal the int64 one
    // exactly, on every implementation.
    Rng rng(303);
    for (const std::size_t n : {5u, 64u, 129u, 1000u}) {
        std::vector<std::int32_t> q(n);
        std::vector<double> row(n);
        std::vector<std::int8_t> signs(n);
        for (std::size_t i = 0; i < n; ++i) {
            q[i] = static_cast<std::int32_t>(rng.nextBelow(401)) -
                   200;
            signs[i] = rng.nextBelow(2) == 0 ? -1 : 1;
            row[i] = static_cast<double>(signs[i]);
        }
        const std::int64_t exact =
            kernels::dotIntI8(q.data(), signs.data(), n);
        for (const kernels::Impl impl : availableImpls()) {
            ForcedImpl forced(impl);
            EXPECT_EQ(kernels::dotIntReal(q.data(), row.data(), n),
                      static_cast<double>(exact))
                << kernels::implName(impl) << " n=" << n;
        }
    }
}

TEST(Kernels, ElementwiseKernelsMatchReferenceEveryImpl)
{
    Rng rng(404);
    for (const std::size_t n : kDims) {
        for (std::size_t offset = 0; offset < 4; ++offset) {
            const Operands ops(n, offset, rng);
            std::vector<double> refMul(n);
            std::vector<std::int32_t> refAcc(ops.ints2.begin() +
                                                 static_cast<
                                                     std::ptrdiff_t>(
                                                     offset),
                                             ops.ints2.begin() +
                                                 static_cast<
                                                     std::ptrdiff_t>(
                                                     offset + n));
            // One int8 row (each int mod 128, in [-127, 127]) signed
            // by the packed form of the +-1 operand.
            std::vector<std::int8_t> rowStore(n + offset);
            for (std::size_t i = 0; i < n; ++i)
                rowStore[offset + i] = static_cast<std::int8_t>(
                    ops.a(offset)[i] % 128);
            const PackedHv key(
                BipolarHv(ops.s(offset), ops.s(offset) + n));
            for (std::size_t i = 0; i < n; ++i) {
                refMul[i] =
                    static_cast<double>(ops.a(offset)[i]) *
                    ops.r(offset)[i];
                refAcc[i] += rowStore[offset + i] * ops.s(offset)[i];
            }
            for (const kernels::Impl impl : availableImpls()) {
                ForcedImpl forced(impl);
                std::vector<double> out(n);
                kernels::mulIntReal(ops.a(offset), ops.r(offset),
                                    out.data(), n);
                for (std::size_t i = 0; i < n; ++i)
                    EXPECT_EQ(bits(out[i]), bits(refMul[i]))
                        << kernels::implName(impl) << " n=" << n
                        << " i=" << i;
                std::vector<std::int32_t> acc(
                    ops.ints2.begin() +
                        static_cast<std::ptrdiff_t>(offset),
                    ops.ints2.begin() +
                        static_cast<std::ptrdiff_t>(offset + n));
                const std::int8_t *rows[] = {rowStore.data() + offset};
                const std::uint64_t *signs[] = {key.data().data()};
                kernels::addSignedRows(acc.data(), rows, signs, 1, n);
                EXPECT_EQ(acc, refAcc)
                    << kernels::implName(impl) << " n=" << n
                    << " offset=" << offset;
            }
        }
    }
}

/** acc[i] += (bit i of signs[t] ? rows[t][i] : -rows[t][i]), naively. */
std::vector<std::int32_t>
naiveSignedRows(std::vector<std::int32_t> acc, std::size_t offset,
                const std::vector<const std::int8_t *> &rows,
                const std::vector<const std::uint64_t *> &signs,
                std::size_t n)
{
    for (std::size_t t = 0; t < rows.size(); ++t)
        for (std::size_t i = 0; i < n; ++i) {
            const bool plus = (signs[t][i / 64] >> (i % 64)) & 1;
            acc[offset + i] += plus ? rows[t][i] : -rows[t][i];
        }
    return acc;
}

TEST(Kernels, AddSignedRowsMatchesScalarEveryImpl)
{
    // The encoder's blocked sum: 0, 1, 11 (PHYSICAL's chunk count), 16
    // (one encoder pass), more rows than a pass takes, and 300, which
    // crosses the vector tables' int16 widening point; lengths that
    // are not a multiple of any vector width; unaligned rows and sum;
    // every key bit at and past n set, which must be ignored. The
    // scalar entry must equal a naive loop and every Impl the scalar
    // entry.
    Rng rng(606);
    for (const std::size_t count :
         {0UL, 1UL, 2UL, 11UL, 16UL, 17UL, 40UL, 300UL}) {
        for (const std::size_t n :
             {0UL, 1UL, 7UL, 8UL, 9UL, 15UL, 16UL, 17UL, 31UL, 33UL,
              63UL, 64UL, 65UL, 127UL, 2000UL, 2001UL}) {
            const std::size_t offset = (count + n) % 3;
            const std::size_t words = (n + 63) / 64;
            std::vector<std::vector<std::int8_t>> rowStore(count);
            std::vector<std::vector<std::uint64_t>> keyStore(count);
            std::vector<const std::int8_t *> rows(count);
            std::vector<const std::uint64_t *> keys(count);
            for (std::size_t t = 0; t < count; ++t) {
                rowStore[t].resize(n + offset);
                for (auto &v : rowStore[t])
                    v = static_cast<std::int8_t>(
                        static_cast<int>(rng.nextBelow(255)) - 127);
                keyStore[t].resize(std::max<std::size_t>(words, 1));
                for (auto &w : keyStore[t])
                    w = rng.next();
                if (words > 0)
                    keyStore[t][words - 1] |= ~kernels::tailMask64(n);
                rows[t] = rowStore[t].data() + offset;
                keys[t] = keyStore[t].data();
            }
            std::vector<std::int32_t> start(n + offset);
            for (auto &v : start)
                v = static_cast<std::int32_t>(rng.nextBelow(2001)) - 1000;

            std::vector<std::int32_t> expected = start;
            {
                ForcedImpl forced(kernels::Impl::kScalar);
                kernels::addSignedRows(expected.data() + offset,
                                       rows.data(), keys.data(), count,
                                       n);
            }
            ASSERT_EQ(expected,
                      naiveSignedRows(start, offset, rows, keys, n))
                << "count=" << count << " n=" << n;
            for (const kernels::Impl impl : availableImpls()) {
                ForcedImpl forced(impl);
                std::vector<std::int32_t> acc = start;
                kernels::addSignedRows(acc.data() + offset, rows.data(),
                                       keys.data(), count, n);
                EXPECT_EQ(acc, expected)
                    << kernels::implName(impl) << " count=" << count
                    << " n=" << n;
            }
        }
    }
}

TEST(Kernels, AddSignedRowsDrivesInt16SumsToBothExtremes)
{
    // Rows of +-127 whose key makes every product +127 on even lanes
    // and -127 on odd ones: 258 rows reach +-32766, the int16 limit,
    // and longer runs only stay exact because the vector tables
    // widen into int32 at least every 256 rows.
    const std::size_t n = 200;
    for (const std::size_t count :
         {255UL, 256UL, 257UL, 258UL, 300UL, 513UL}) {
        std::vector<std::vector<std::int8_t>> rowStore(count);
        std::vector<std::vector<std::uint64_t>> keyStore(count);
        std::vector<const std::int8_t *> rows(count);
        std::vector<const std::uint64_t *> keys(count);
        for (std::size_t t = 0; t < count; ++t) {
            rowStore[t].resize(n);
            keyStore[t].assign((n + 63) / 64, 0);
            for (std::size_t i = 0; i < n; ++i) {
                // Half the rows carry -127 under a clear bit, half
                // +127 under a set one; odd lanes flip the product.
                const bool negRow = (t + i / 3) % 2 == 1;
                rowStore[t][i] = negRow ? -127 : 127;
                const bool plus = negRow == (i % 2 == 1);
                if (plus)
                    keyStore[t][i / 64] |= std::uint64_t{1} << (i % 64);
            }
            rows[t] = rowStore[t].data();
            keys[t] = keyStore[t].data();
        }
        const std::vector<std::int32_t> start(n, 5);
        for (const kernels::Impl impl : availableImpls()) {
            ForcedImpl forced(impl);
            std::vector<std::int32_t> acc = start;
            kernels::addSignedRows(acc.data(), rows.data(), keys.data(),
                                   count, n);
            const auto extreme = static_cast<std::int32_t>(127 * count);
            for (std::size_t i = 0; i < n; ++i) {
                ASSERT_EQ(acc[i], 5 + (i % 2 == 0 ? extreme : -extreme))
                    << kernels::implName(impl) << " count=" << count
                    << " i=" << i;
            }
        }
    }
}

TEST(Kernels, MatchCountWordsMatchesUnpackedCount)
{
    Rng rng(505);
    for (const std::size_t d :
         {1u, 63u, 64u, 65u, 127u, 128u, 129u, 777u, 2048u}) {
        const BipolarHv a = randomBipolar(d, rng);
        const BipolarHv b = randomBipolar(d, rng);
        std::size_t expected = 0;
        for (std::size_t i = 0; i < d; ++i)
            expected += a[i] == b[i];
        const PackedHv pa(a), pb(b);
        for (const kernels::Impl impl : availableImpls()) {
            ForcedImpl forced(impl);
            EXPECT_EQ(kernels::matchCountWords(
                          pa.data().data(), pb.data().data(),
                          pa.data().size(), d),
                      expected)
                << kernels::implName(impl) << " d=" << d;
            // The packed public API funnels through the same kernel.
            EXPECT_EQ(matchCount(pa, pb), expected);
        }
    }
}

TEST(Kernels, MatchCountIgnoresGarbageTailBits)
{
    // Whatever the unused bits of the final word hold, only the dim
    // valid bits may count.
    const std::size_t d = 70;
    std::vector<std::uint64_t> a(2, ~std::uint64_t{0});
    std::vector<std::uint64_t> b(2, ~std::uint64_t{0});
    b[1] = 0; // disagrees on every tail bit incl. the garbage range
    for (const kernels::Impl impl : availableImpls()) {
        ForcedImpl forced(impl);
        EXPECT_EQ(kernels::matchCountWords(a.data(), b.data(), 2, d),
                  64u)
            << kernels::implName(impl);
        EXPECT_EQ(kernels::matchCountWords(a.data(), a.data(), 2, d),
                  d);
        EXPECT_EQ(kernels::matchCountWords(a.data(), a.data(), 0, 0),
                  0u);
    }
}

TEST(Kernels, SimilarityBatchEqualsPerQueryDotsBitwise)
{
    Rng rng(606);
    // Counts straddling the AVX2 register tile (2 queries x 4 rows)
    // and lengths straddling its 4-lane steps: odd query counts, row
    // counts that leave 1-3 rows over, n % 4 != 0. Every row and query
    // sits one element into its buffer, so loads are unaligned.
    for (const std::size_t n : {1u, 3u, 4u, 5u, 131u, 132u}) {
        for (const std::size_t numQueries : {1u, 2u, 3u, 4u, 5u, 9u}) {
            for (const std::size_t numRows :
                 {1u, 2u, 3u, 4u, 5u, 7u, 8u, 13u}) {
                std::vector<std::vector<std::int32_t>> queries(
                    numQueries, std::vector<std::int32_t>(n + 1));
                std::vector<std::vector<double>> rows(
                    numRows, std::vector<double>(n + 1));
                std::vector<const std::int32_t *> qptrs;
                std::vector<const double *> rptrs;
                for (auto &q : queries) {
                    for (auto &v : q)
                        v = static_cast<std::int32_t>(
                                rng.nextBelow(2001)) -
                            1000;
                    qptrs.push_back(q.data() + 1);
                }
                for (auto &r : rows) {
                    for (auto &v : r)
                        v = rng.nextDouble(-1.0, 1.0);
                    rptrs.push_back(r.data() + 1);
                }
                ForcedImpl scalar(kernels::Impl::kScalar);
                std::vector<double> ref(numQueries * numRows);
                kernels::similarityBatch(qptrs.data(), numQueries,
                                         rptrs.data(), numRows, n,
                                         ref.data());
                kernels::clearForcedImpl();
                for (const kernels::Impl impl : availableImpls()) {
                    kernels::forceImpl(impl);
                    std::vector<double> out(numQueries * numRows);
                    kernels::similarityBatch(qptrs.data(), numQueries,
                                             rptrs.data(), numRows, n,
                                             out.data());
                    for (std::size_t q = 0; q < numQueries; ++q)
                        for (std::size_t r = 0; r < numRows; ++r) {
                            const std::size_t at = q * numRows + r;
                            EXPECT_EQ(bits(out[at]), bits(ref[at]))
                                << kernels::implName(impl)
                                << " n=" << n << " q=" << q
                                << "/" << numQueries << " r=" << r
                                << "/" << numRows;
                            // Batch == the single-query kernel.
                            EXPECT_EQ(bits(out[at]),
                                      bits(kernels::dotIntReal(
                                          qptrs[q], rptrs[r], n)))
                                << kernels::implName(impl)
                                << " n=" << n << " q=" << q
                                << "/" << numQueries << " r=" << r
                                << "/" << numRows;
                        }
                }
            }
        }
    }
}

TEST(Kernels, AccumulateRowsIsOneSequentialSumPerLane)
{
    // Lanes run across the k columns, so every Impl must reproduce
    // the plain sequential sum of each column bit for bit, for any
    // scales (not only the exact +-1 / +-2 of the score table) and
    // for k on both sides of the 4- and 16-lane blocks.
    Rng rng(717);
    for (const std::size_t k : {1u, 3u, 4u, 5u, 12u, 16u, 19u, 26u, 37u}) {
        for (const std::size_t count : {0u, 1u, 7u, 64u}) {
            std::vector<std::vector<double>> rows(
                count, std::vector<double>(k + 1));
            std::vector<const double *> rptrs;
            std::vector<double> scales(count);
            for (std::size_t t = 0; t < count; ++t) {
                for (auto &v : rows[t])
                    v = rng.nextDouble(-1.0, 1.0);
                // Offset by one: unaligned row pointers.
                rptrs.push_back(rows[t].data() + 1);
                scales[t] = rng.nextDouble(-2.0, 2.0);
            }
            std::vector<double> start(k);
            for (auto &v : start)
                v = rng.nextDouble(-1.0, 1.0);
            std::vector<double> ref = start;
            for (std::size_t i = 0; i < k; ++i)
                for (std::size_t t = 0; t < count; ++t) {
                    const double product = scales[t] * rptrs[t][i];
                    ref[i] += product;
                }
            for (const kernels::Impl impl : availableImpls()) {
                ForcedImpl forced(impl);
                std::vector<double> acc = start;
                kernels::accumulateRows(acc.data(), rptrs.data(),
                                        scales.data(), count, k);
                for (std::size_t i = 0; i < k; ++i)
                    EXPECT_EQ(bits(acc[i]), bits(ref[i]))
                        << kernels::implName(impl) << " k=" << k
                        << " count=" << count << " lane " << i;
            }
        }
    }
}

TEST(Kernels, HypervectorDotsAgreeWithKernels)
{
    // The public hdc::dot overloads are thin wrappers over the
    // kernels; a differential check pins that wiring.
    Rng rng(707);
    const std::size_t d = 513;
    IntHv q(d);
    for (auto &v : q)
        v = static_cast<std::int32_t>(rng.nextBelow(101)) - 50;
    const BipolarHv key = randomBipolar(d, rng);
    RealHv row(d);
    for (auto &v : row)
        v = rng.nextDouble(-1.0, 1.0);

    EXPECT_EQ(dot(q, key),
              kernels::dotIntI8(
                  q.data(),
                  reinterpret_cast<const std::int8_t *>(key.data()),
                  d));
    EXPECT_EQ(bits(dot(q, row)),
              bits(kernels::dotIntReal(q.data(), row.data(), d)));
    EXPECT_EQ(dot(q, q), kernels::dotInt(q.data(), q.data(), d));
}

} // namespace
