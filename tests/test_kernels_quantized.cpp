/**
 * @file
 * Differential tests for the quantized-serving kernels: dotI8I8,
 * scoresBatchI8, quantizeI8, dotIntPackedWords, and the widened
 * matchCountWords dispatch. Every compiled-in implementation (scalar,
 * AVX2, AVX-512, NEON — whatever the host offers) is pinned via
 * forceImpl and
 * checked bitwise against a naive reference loop, across lengths
 * that straddle the SIMD block widths and the 64-bit packed words,
 * with misaligned pointers and adversarial contents (saturated int8
 * rows, all-set/all-clear words, masked tails). Also holds the
 * bit-identity regression for bitpack's dot(IntHv, PackedHv), which
 * now routes through the kernel table instead of a private loop.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <vector>

#include "hdc/bitpack.hpp"
#include "hdc/hypervector.hpp"
#include "hdc/kernels.hpp"
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

// The issue's required sweep plus lengths straddling the 32-wide
// AVX-512 int8 steps, the 8192-element overflow-drain blocks, and
// the 64-bit packed words.
const std::size_t kDims[] = {1,    31,   32,   33,   63,   64,
                             65,   127,  128,  129,  255,  256,
                             1000, 8191, 8192, 8193};

// Offsets into over-allocated buffers so SIMD unaligned loads get
// genuinely unaligned pointers.
const std::size_t kOffsets[] = {0, 1, 3};

std::vector<std::int8_t>
randomI8(std::size_t n, Rng &rng)
{
    std::vector<std::int8_t> v(n);
    for (auto &x : v)
        x = static_cast<std::int8_t>(
            static_cast<int>(rng.nextBelow(255)) - 127);
    return v;
}

std::vector<std::int32_t>
randomI32(std::size_t n, Rng &rng)
{
    std::vector<std::int32_t> v(n);
    for (auto &x : v)
        x = static_cast<std::int32_t>(rng.nextBelow(20001)) - 10000;
    return v;
}

std::vector<std::uint64_t>
randomWords(std::size_t n, Rng &rng)
{
    const std::size_t words = (n + 63) / 64;
    std::vector<std::uint64_t> v(words);
    for (auto &w : v)
        w = rng.next();
    if (!v.empty())
        v.back() &= kernels::tailMask64(n);
    return v;
}

std::int64_t
refDotI8I8(const std::int8_t *a, const std::int8_t *b, std::size_t n)
{
    std::int64_t sum = 0;
    for (std::size_t i = 0; i < n; ++i)
        sum += static_cast<std::int64_t>(a[i]) *
               static_cast<std::int64_t>(b[i]);
    return sum;
}

std::int64_t
refDotIntPackedWords(const std::int32_t *q, const std::uint64_t *words,
                     std::size_t n)
{
    std::int64_t sum = 0;
    for (std::size_t i = 0; i < n; ++i) {
        const bool set = (words[i / 64] >> (i % 64)) & 1;
        sum += set ? static_cast<std::int64_t>(q[i])
                   : -static_cast<std::int64_t>(q[i]);
    }
    return sum;
}

std::size_t
refMatchCountWords(const std::uint64_t *a, const std::uint64_t *b,
                   std::size_t words, std::size_t dim)
{
    std::size_t matches = 0;
    for (std::size_t i = 0; i < dim; ++i) {
        const bool ba = (a[i / 64] >> (i % 64)) & 1;
        const bool bb = (b[i / 64] >> (i % 64)) & 1;
        matches += ba == bb;
        (void)words;
    }
    return matches;
}

TEST(KernelsQuantized, DotI8I8MatchesReferenceOnEveryImpl)
{
    Rng rng(2024);
    for (const std::size_t n : kDims) {
        for (const std::size_t offset : kOffsets) {
            std::vector<std::int8_t> a(n + offset), b(n + offset);
            const auto ra = randomI8(n, rng);
            const auto rb = randomI8(n, rng);
            std::memcpy(a.data() + offset, ra.data(), n);
            std::memcpy(b.data() + offset, rb.data(), n);

            const std::int64_t expected =
                refDotI8I8(a.data() + offset, b.data() + offset, n);
            for (const kernels::Impl impl : availableImpls()) {
                ForcedImpl forced(impl);
                EXPECT_EQ(kernels::dotI8I8(a.data() + offset,
                                           b.data() + offset, n),
                          expected)
                    << "impl=" << kernels::implName(impl)
                    << " n=" << n << " offset=" << offset;
            }
        }
    }
}

TEST(KernelsQuantized, DotI8I8SaturatedRowsDoNotOverflow)
{
    // 8193 elements of 127 * 127 crosses the 2^31 int32 boundary
    // (8193 * 16129 > 2^27 fits; use larger: repeat to exceed the
    // madd lane budget) — the blocked epi32 -> int64 widening must
    // drain before any lane overflows. Alternating signs additionally
    // exercise the negative extreme.
    for (const std::size_t n : {8191UL, 8192UL, 8193UL, 100000UL}) {
        std::vector<std::int8_t> a(n, 127), b(n, 127);
        const std::int64_t allPos = static_cast<std::int64_t>(n) *
                                    127 * 127;
        std::vector<std::int8_t> c(n);
        for (std::size_t i = 0; i < n; ++i)
            c[i] = (i % 2) ? static_cast<std::int8_t>(-127)
                           : static_cast<std::int8_t>(127);
        const std::int64_t mixed =
            refDotI8I8(a.data(), c.data(), n);
        for (const kernels::Impl impl : availableImpls()) {
            ForcedImpl forced(impl);
            EXPECT_EQ(kernels::dotI8I8(a.data(), b.data(), n),
                      allPos)
                << "impl=" << kernels::implName(impl) << " n=" << n;
            EXPECT_EQ(kernels::dotI8I8(a.data(), c.data(), n), mixed)
                << "impl=" << kernels::implName(impl) << " n=" << n;
        }
    }
}

TEST(KernelsQuantized, DotIntPackedWordsMatchesReferenceOnEveryImpl)
{
    Rng rng(2025);
    for (const std::size_t n : kDims) {
        const auto q = randomI32(n, rng);
        const auto words = randomWords(n, rng);
        const std::int64_t expected =
            refDotIntPackedWords(q.data(), words.data(), n);
        for (const kernels::Impl impl : availableImpls()) {
            ForcedImpl forced(impl);
            EXPECT_EQ(kernels::dotIntPackedWords(q.data(),
                                                 words.data(), n),
                      expected)
                << "impl=" << kernels::implName(impl) << " n=" << n;
        }
    }
}

TEST(KernelsQuantized, DotIntPackedWordsExtremeWords)
{
    // All-set and all-clear rows reduce to +sum(q) / -sum(q); INT32
    // extremes must negate exactly in 64-bit.
    Rng rng(2026);
    for (const std::size_t n : {1UL, 64UL, 65UL, 8191UL}) {
        std::vector<std::int32_t> q(n);
        for (std::size_t i = 0; i < n; ++i)
            q[i] = (i % 3 == 0)   ? INT32_MAX
                   : (i % 3 == 1) ? INT32_MIN
                                  : static_cast<std::int32_t>(
                                        rng.nextBelow(1000));
        const std::size_t words = (n + 63) / 64;
        std::vector<std::uint64_t> allSet(words, ~std::uint64_t{0});
        allSet.back() &= kernels::tailMask64(n);
        std::vector<std::uint64_t> allClear(words, 0);

        std::int64_t sum = 0;
        for (const std::int32_t v : q)
            sum += v;
        for (const kernels::Impl impl : availableImpls()) {
            ForcedImpl forced(impl);
            EXPECT_EQ(kernels::dotIntPackedWords(q.data(),
                                                 allSet.data(), n),
                      sum)
                << "impl=" << kernels::implName(impl) << " n=" << n;
            EXPECT_EQ(kernels::dotIntPackedWords(q.data(),
                                                 allClear.data(), n),
                      -sum)
                << "impl=" << kernels::implName(impl) << " n=" << n;
        }
    }
}

TEST(KernelsQuantized, MatchCountWordsMatchesReferenceOnEveryImpl)
{
    Rng rng(2027);
    for (const std::size_t n : kDims) {
        const auto a = randomWords(n, rng);
        const auto b = randomWords(n, rng);
        const std::size_t words = a.size();
        const std::size_t expected =
            refMatchCountWords(a.data(), b.data(), words, n);
        for (const kernels::Impl impl : availableImpls()) {
            ForcedImpl forced(impl);
            EXPECT_EQ(kernels::matchCountWords(a.data(), b.data(),
                                               words, n),
                      expected)
                << "impl=" << kernels::implName(impl) << " n=" << n;
        }
    }
}

TEST(KernelsQuantized, MatchCountWordsIgnoresTailGarbage)
{
    // Identical payload bits, divergent garbage above dim: the
    // kernel masks the tail word, so every impl must report a full
    // match regardless of the junk.
    for (const std::size_t n : {1UL, 63UL, 65UL, 127UL, 8191UL}) {
        const std::size_t words = (n + 63) / 64;
        std::vector<std::uint64_t> a(words, 0x5555555555555555ULL);
        std::vector<std::uint64_t> b = a;
        a.back() |= ~kernels::tailMask64(n);
        for (const kernels::Impl impl : availableImpls()) {
            ForcedImpl forced(impl);
            EXPECT_EQ(kernels::matchCountWords(a.data(), b.data(),
                                               words, n),
                      n)
                << "impl=" << kernels::implName(impl) << " n=" << n;
        }
    }
}

TEST(KernelsQuantized, ScoresBatchI8MatchesSingleDotOnEveryImpl)
{
    Rng rng(2028);
    const std::size_t numQueries = 3;
    const std::size_t numRows = 5;
    for (const std::size_t n : {1UL, 63UL, 64UL, 65UL, 8191UL}) {
        std::vector<std::vector<std::int8_t>> queries, rows;
        std::vector<const std::int8_t *> qptrs, rptrs;
        for (std::size_t q = 0; q < numQueries; ++q) {
            queries.push_back(randomI8(n, rng));
            qptrs.push_back(queries.back().data());
        }
        for (std::size_t r = 0; r < numRows; ++r) {
            rows.push_back(randomI8(n, rng));
            rptrs.push_back(rows.back().data());
        }
        std::vector<std::int64_t> expected(numQueries * numRows);
        for (std::size_t q = 0; q < numQueries; ++q)
            for (std::size_t r = 0; r < numRows; ++r)
                expected[q * numRows + r] = refDotI8I8(
                    qptrs[q], rptrs[r], n);

        for (const kernels::Impl impl : availableImpls()) {
            ForcedImpl forced(impl);
            std::vector<std::int64_t> out(numQueries * numRows, -1);
            kernels::scoresBatchI8(qptrs.data(), numQueries,
                                   rptrs.data(), numRows, n,
                                   out.data());
            EXPECT_EQ(out, expected)
                << "impl=" << kernels::implName(impl) << " n=" << n;
        }
    }
}

TEST(KernelsQuantized, ScoresBatchI8EmptyBatches)
{
    const std::int8_t row[4] = {1, -2, 3, -4};
    const std::int8_t *rows[1] = {row};
    for (const kernels::Impl impl : availableImpls()) {
        ForcedImpl forced(impl);
        // No queries: must not touch out.
        kernels::scoresBatchI8(nullptr, 0, rows, 1, 4, nullptr);
        // No rows: same.
        kernels::scoresBatchI8(rows, 1, nullptr, 0, 4, nullptr);
    }
}

TEST(KernelsQuantized, ScoresBatchI8EveryClassCountOnEveryImpl)
{
    // The vector kernels score four class rows per widened query
    // block: every row count 1-9 leaves a different remainder tile.
    // Values span the whole int8 range, -128 included.
    Rng rng(2031);
    const auto fullI8 = [&rng](std::size_t n) {
        std::vector<std::int8_t> v(n);
        for (auto &x : v)
            x = static_cast<std::int8_t>(
                static_cast<int>(rng.nextBelow(256)) - 128);
        return v;
    };
    for (const std::size_t n : {1UL, 15UL, 16UL, 17UL, 31UL, 32UL, 33UL,
                                63UL, 2000UL}) {
        for (std::size_t numRows = 1; numRows <= 9; ++numRows) {
            const std::size_t numQueries = 1 + numRows % 3;
            std::vector<std::vector<std::int8_t>> queries, rows;
            std::vector<const std::int8_t *> qptrs, rptrs;
            for (std::size_t q = 0; q < numQueries; ++q) {
                queries.push_back(fullI8(n + 1));
                qptrs.push_back(queries.back().data() + 1);
            }
            for (std::size_t r = 0; r < numRows; ++r) {
                rows.push_back(fullI8(n));
                rptrs.push_back(rows.back().data());
            }
            std::vector<std::int64_t> expected(numQueries * numRows);
            for (std::size_t q = 0; q < numQueries; ++q)
                for (std::size_t r = 0; r < numRows; ++r)
                    expected[q * numRows + r] =
                        refDotI8I8(qptrs[q], rptrs[r], n);
            for (const kernels::Impl impl : availableImpls()) {
                ForcedImpl forced(impl);
                std::vector<std::int64_t> out(numQueries * numRows, -1);
                kernels::scoresBatchI8(qptrs.data(), numQueries,
                                       rptrs.data(), numRows, n,
                                       out.data());
                EXPECT_EQ(out, expected)
                    << "impl=" << kernels::implName(impl) << " n=" << n
                    << " rows=" << numRows;
            }
        }
    }
}

TEST(KernelsQuantized, Int8DotsDrainBeforeInt32Wraps)
{
    // All -128: every pair-sum is 32768, the largest an int32 lane
    // gains per step. 270,000 elements cross the drain block, and a
    // block's lanes together pass 2^32, so a drain that summed the
    // lanes in int32 would wrap.
    const std::size_t n = 270000;
    const std::vector<std::int8_t> a(n, -128);
    const std::int64_t expected = static_cast<std::int64_t>(n) * 16384;
    const std::int8_t *q = a.data();
    const std::int8_t *rows[] = {a.data(), a.data(), a.data(), a.data(),
                                 a.data()};
    for (const kernels::Impl impl : availableImpls()) {
        ForcedImpl forced(impl);
        EXPECT_EQ(kernels::dotI8I8(a.data(), a.data(), n), expected)
            << "impl=" << kernels::implName(impl);
        std::vector<std::int64_t> out(5, -1);
        kernels::scoresBatchI8(&q, 1, rows, 5, n, out.data());
        EXPECT_EQ(out, std::vector<std::int64_t>(5, expected))
            << "impl=" << kernels::implName(impl);
    }
}

/** Every Impl's quantizeI8 of @p row equals the scalar reference:
 * the same scale bits and the same int8 bytes. */
void
expectQuantizeI8MatchesScalar(const std::vector<std::int32_t> &row,
                              const char *what)
{
    const std::size_t n = row.size();
    std::vector<std::int8_t> expected(n + 1, 0x55);
    kernels::forceImpl(kernels::Impl::kScalar);
    const double scale = kernels::quantizeI8(row.data(), n,
                                             expected.data());
    kernels::clearForcedImpl();
    for (const kernels::Impl impl : availableImpls()) {
        ForcedImpl forced(impl);
        // One byte past the end must stay untouched.
        std::vector<std::int8_t> out(n + 1, 0x55);
        const double got = kernels::quantizeI8(row.data(), n, out.data());
        EXPECT_EQ(std::memcmp(&got, &scale, sizeof(double)), 0)
            << what << " impl=" << kernels::implName(impl) << " n=" << n;
        EXPECT_EQ(out, expected)
            << what << " impl=" << kernels::implName(impl) << " n=" << n;
    }
}

TEST(KernelsQuantized, QuantizeI8MatchesScalarOnEveryImpl)
{
    Rng rng(2032);
    std::vector<std::size_t> lengths;
    for (std::size_t n = 0; n <= 67; ++n)
        lengths.push_back(n);
    lengths.push_back(2000);
    for (const std::size_t n : lengths) {
        // Magnitudes from tiny to the full int32 range, so the scale
        // and the rounding of r both vary.
        for (const std::uint64_t range :
             {3ULL, 1000ULL, 123457ULL, 4294967295ULL}) {
            std::vector<std::int32_t> row(n);
            for (auto &v : row)
                v = static_cast<std::int32_t>(
                    static_cast<std::int64_t>(rng.nextBelow(range)) -
                    static_cast<std::int64_t>(range / 2));
            expectQuantizeI8MatchesScalar(row, "random");
        }
    }
}

TEST(KernelsQuantized, QuantizeI8EdgeRows)
{
    for (const std::size_t n : {1UL, 7UL, 16UL, 17UL, 33UL, 2000UL}) {
        // All zero: scale 1.0 and every byte 0.
        const std::vector<std::int32_t> zeros(n, 0);
        std::vector<std::int8_t> out(n, 0x55);
        for (const kernels::Impl impl : availableImpls()) {
            ForcedImpl forced(impl);
            EXPECT_EQ(kernels::quantizeI8(zeros.data(), n, out.data()),
                      1.0)
                << kernels::implName(impl);
            EXPECT_EQ(out, std::vector<std::int8_t>(n, 0))
                << kernels::implName(impl);
        }
        expectQuantizeI8MatchesScalar(zeros, "zeros");

        // INT32_MIN and INT32_MAX: |INT32_MIN| = 2^31 must be the
        // max-abs, exactly.
        std::vector<std::int32_t> extremes(n);
        for (std::size_t i = 0; i < n; ++i)
            extremes[i] = i % 3 == 0   ? INT32_MIN
                          : i % 3 == 1 ? INT32_MAX
                                       : static_cast<std::int32_t>(i);
        expectQuantizeI8MatchesScalar(extremes, "extremes");
        std::vector<std::int8_t> q(n);
        EXPECT_EQ(kernels::quantizeI8(extremes.data(), n, q.data()),
                  2147483648.0 / 127.0);
        EXPECT_EQ(q[0], -127);

        // max-abs 254 gives scale 2 and inv 0.5, so every odd value
        // lands on an exact half and rounds away from zero.
        std::vector<std::int32_t> halves(n);
        for (std::size_t i = 0; i < n; ++i) {
            const auto odd = static_cast<std::int32_t>(2 * (i % 127) + 1);
            halves[i] = i == 0 ? 254 : i % 2 ? -odd : odd;
        }
        expectQuantizeI8MatchesScalar(halves, "halves");
        for (const kernels::Impl impl : availableImpls()) {
            ForcedImpl forced(impl);
            EXPECT_EQ(kernels::quantizeI8(halves.data(), n, q.data()),
                      2.0);
            for (std::size_t i = 1; i < n; ++i) {
                const std::int32_t v = halves[i];
                EXPECT_EQ(q[i], v > 0 ? (v + 1) / 2 : (v - 1) / 2)
                    << kernels::implName(impl) << " v=" << v;
            }
        }
    }
}

// --- Satellite 4 regression: bitpack's cosine numerator now routes
// through the kernel table. The similarity must be bit-identical to
// the pre-refactor private loop (reproduced here as the reference)
// on every impl.

TEST(KernelsQuantized, PackedDotBitIdenticalAcrossImpls)
{
    Rng rng(2029);
    for (const std::size_t n : {1UL, 63UL, 64UL, 65UL, 2000UL}) {
        IntHv query(n);
        IntHv toPack(n);
        for (std::size_t i = 0; i < n; ++i) {
            query[i] =
                static_cast<std::int32_t>(rng.nextBelow(2001)) - 1000;
            toPack[i] =
                static_cast<std::int32_t>(rng.nextBelow(3)) - 1;
        }
        const PackedHv packed(sign(toPack));

        // Reference: the old private element loop.
        std::int64_t expected = 0;
        for (std::size_t i = 0; i < n; ++i) {
            const bool set =
                (packed.data()[i / 64] >> (i % 64)) & 1;
            expected += set
                            ? static_cast<std::int64_t>(query[i])
                            : -static_cast<std::int64_t>(query[i]);
        }

        const std::int64_t scalarSim = [&] {
            ForcedImpl forced(kernels::Impl::kScalar);
            return dot(query, packed);
        }();
        EXPECT_EQ(scalarSim, expected) << "n=" << n;
        for (const kernels::Impl impl : availableImpls()) {
            ForcedImpl forced(impl);
            EXPECT_EQ(dot(query, packed), scalarSim)
                << "impl=" << kernels::implName(impl) << " n=" << n;
        }
    }
}

TEST(KernelsQuantized, PackedHvAdoptionCtorValidates)
{
    std::vector<std::uint64_t> ok(2, 0);
    ok[0] = ~std::uint64_t{0};
    ok[1] = 1; // dim 65: only bit 0 of the tail word is valid.
    EXPECT_NO_THROW(PackedHv(65, ok));

    std::vector<std::uint64_t> badCount(1, 0);
    EXPECT_THROW(PackedHv(65, badCount), std::logic_error);

    std::vector<std::uint64_t> badTail(2, 0);
    badTail[1] = 2; // bit 65 set, beyond dim.
    EXPECT_THROW(PackedHv(65, badTail), std::logic_error);
}

} // namespace
