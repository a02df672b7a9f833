/**
 * @file
 * AVX2 kernel implementations.
 *
 * Compiled with -mavx2 -mpopcnt -ffp-contract=off (and only then;
 * otherwise this TU degrades to an always-null avx2Table()). The
 * double kernels reproduce kernels.cpp's 4-lane accumulation contract
 * exactly: one __m256d accumulator holds the four partial sums, mul
 * and add stay separate instructions (no FMA - the flag set above
 * does not enable it and contraction is off), and the reduction
 * (l0 + l1) + (l2 + l3) plus the scalar tail match the scalar
 * reference op for op, so results are bit-identical across
 * implementations. quantizeI8 evaluates the scalar element
 * expression lane by lane with the same separate mul and add, and
 * the integer kernels are exact. Keep in lockstep with kernels.cpp.
 */

#include "hdc/kernels.hpp"

#if defined(__AVX2__) && defined(__POPCNT__)

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <immintrin.h>

namespace lookhd::hdc::kernels {

namespace {

/** (l0 + l1) + (l2 + l3) over the accumulator's lanes, in order. */
double
reduceLanes(__m256d acc)
{
    alignas(32) double lanes[4];
    _mm256_store_pd(lanes, acc);
    return (lanes[0] + lanes[1]) + (lanes[2] + lanes[3]);
}

/** Four int32 -> four double. */
__m256d
loadInt4AsDouble(const std::int32_t *p)
{
    return _mm256_cvtepi32_pd(
        _mm_loadu_si128(reinterpret_cast<const __m128i *>(p)));
}

/** Four +-1 int8 -> four double. */
__m256d
loadSign4AsDouble(const std::int8_t *p)
{
    std::int32_t packed;
    std::memcpy(&packed, p, sizeof(packed));
    return _mm256_cvtepi32_pd(
        _mm_cvtepi8_epi32(_mm_cvtsi32_si128(packed)));
}

std::int64_t
dotIntAvx2(const std::int32_t *a, const std::int32_t *b,
           std::size_t n)
{
    __m256i acc = _mm256_setzero_si256();
    std::size_t i = 0;
    const std::size_t n4 = n & ~std::size_t{3};
    for (; i < n4; i += 4) {
        // Widen to int64 lanes; vpmuldq multiplies each lane's low 32
        // bits as signed, giving the exact 64-bit product.
        const __m256i a64 = _mm256_cvtepi32_epi64(_mm_loadu_si128(
            reinterpret_cast<const __m128i *>(a + i)));
        const __m256i b64 = _mm256_cvtepi32_epi64(_mm_loadu_si128(
            reinterpret_cast<const __m128i *>(b + i)));
        acc = _mm256_add_epi64(acc, _mm256_mul_epi32(a64, b64));
    }
    alignas(32) std::int64_t lanes[4];
    _mm256_store_si256(reinterpret_cast<__m256i *>(lanes), acc);
    std::int64_t sum = lanes[0] + lanes[1] + lanes[2] + lanes[3];
    for (; i < n; ++i)
        sum += static_cast<std::int64_t>(a[i]) * b[i];
    return sum;
}

std::int64_t
dotIntI8Avx2(const std::int32_t *a, const std::int8_t *signs,
             std::size_t n)
{
    __m256i acc = _mm256_setzero_si256();
    std::size_t i = 0;
    const std::size_t n4 = n & ~std::size_t{3};
    for (; i < n4; i += 4) {
        const __m256i a64 = _mm256_cvtepi32_epi64(_mm_loadu_si128(
            reinterpret_cast<const __m128i *>(a + i)));
        std::int32_t packed;
        std::memcpy(&packed, signs + i, sizeof(packed));
        const __m256i s64 = _mm256_cvtepi32_epi64(
            _mm_cvtepi8_epi32(_mm_cvtsi32_si128(packed)));
        acc = _mm256_add_epi64(acc, _mm256_mul_epi32(a64, s64));
    }
    alignas(32) std::int64_t lanes[4];
    _mm256_store_si256(reinterpret_cast<__m256i *>(lanes), acc);
    std::int64_t sum = lanes[0] + lanes[1] + lanes[2] + lanes[3];
    for (; i < n; ++i)
        sum += static_cast<std::int64_t>(a[i]) * signs[i];
    return sum;
}

std::int64_t
dotIntPackedWordsAvx2(const std::int32_t *q,
                      const std::uint64_t *words, std::size_t n)
{
    // Four elements per step: the nibble of packed sign bits selects
    // a +-1 int32 quadruple from the LUT; the multiply-accumulate
    // then mirrors dotIntI8Avx2 (widen to int64 lanes, vpmuldq), so
    // negation happens in 64-bit exactly like the scalar reference.
    alignas(16) static constexpr std::int32_t kSignLut[16][4] = {
        {-1, -1, -1, -1}, {+1, -1, -1, -1}, {-1, +1, -1, -1},
        {+1, +1, -1, -1}, {-1, -1, +1, -1}, {+1, -1, +1, -1},
        {-1, +1, +1, -1}, {+1, +1, +1, -1}, {-1, -1, -1, +1},
        {+1, -1, -1, +1}, {-1, +1, -1, +1}, {+1, +1, -1, +1},
        {-1, -1, +1, +1}, {+1, -1, +1, +1}, {-1, +1, +1, +1},
        {+1, +1, +1, +1}};
    __m256i acc = _mm256_setzero_si256();
    std::size_t i = 0;
    const std::size_t n4 = n & ~std::size_t{3};
    for (; i < n4; i += 4) {
        const unsigned nibble =
            static_cast<unsigned>(words[i / 64] >> (i % 64)) & 0xfu;
        const __m256i s64 = _mm256_cvtepi32_epi64(_mm_load_si128(
            reinterpret_cast<const __m128i *>(kSignLut[nibble])));
        const __m256i q64 = _mm256_cvtepi32_epi64(_mm_loadu_si128(
            reinterpret_cast<const __m128i *>(q + i)));
        acc = _mm256_add_epi64(acc, _mm256_mul_epi32(q64, s64));
    }
    alignas(32) std::int64_t lanes[4];
    _mm256_store_si256(reinterpret_cast<__m256i *>(lanes), acc);
    std::int64_t sum = lanes[0] + lanes[1] + lanes[2] + lanes[3];
    for (; i < n; ++i) {
        const bool positive = (words[i / 64] >> (i % 64)) & 1u;
        sum += positive ? q[i] : -static_cast<std::int64_t>(q[i]);
    }
    return sum;
}

double
dotIntRealAvx2(const std::int32_t *q, const double *row,
               std::size_t n)
{
    __m256d acc = _mm256_setzero_pd();
    std::size_t i = 0;
    const std::size_t n4 = n & ~std::size_t{3};
    for (; i < n4; i += 4) {
        acc = _mm256_add_pd(
            acc, _mm256_mul_pd(loadInt4AsDouble(q + i),
                               _mm256_loadu_pd(row + i)));
    }
    double sum = reduceLanes(acc);
    for (; i < n; ++i)
        sum += static_cast<double>(q[i]) * row[i];
    return sum;
}

double
dotRealI8Avx2(const double *values, const std::int8_t *signs,
              std::size_t n)
{
    __m256d acc = _mm256_setzero_pd();
    std::size_t i = 0;
    const std::size_t n4 = n & ~std::size_t{3};
    for (; i < n4; i += 4) {
        acc = _mm256_add_pd(
            acc, _mm256_mul_pd(_mm256_loadu_pd(values + i),
                               loadSign4AsDouble(signs + i)));
    }
    double sum = reduceLanes(acc);
    for (; i < n; ++i)
        sum += values[i] * static_cast<double>(signs[i]);
    return sum;
}

void
mulIntRealAvx2(const std::int32_t *a, const double *b, double *out,
               std::size_t n)
{
    std::size_t i = 0;
    const std::size_t n4 = n & ~std::size_t{3};
    for (; i < n4; i += 4) {
        _mm256_storeu_pd(out + i,
                         _mm256_mul_pd(loadInt4AsDouble(a + i),
                                       _mm256_loadu_pd(b + i)));
    }
    for (; i < n; ++i)
        out[i] = static_cast<double>(a[i]) * b[i];
}

/**
 * Lanes [off, off + 8 * NV) of addSignedRows, held in registers
 * across every row: each block is read and written once. vpsignd
 * applies a +-1 key exactly as the scalar multiply does.
 */
template <std::size_t NV>
void
addSignedRowsBlock(std::int32_t *acc, const std::int32_t *const *rows,
                   const std::int8_t *const *signs, std::size_t count,
                   std::size_t off)
{
    __m256i a[NV];
#pragma GCC unroll 8
    for (std::size_t v = 0; v < NV; ++v)
        a[v] = _mm256_loadu_si256(
            reinterpret_cast<const __m256i *>(acc + off + 8 * v));
    for (std::size_t t = 0; t < count; ++t) {
        const std::int32_t *row = rows[t] + off;
        const std::int8_t *s = signs[t] + off;
#pragma GCC unroll 8
        for (std::size_t v = 0; v < NV; ++v) {
            const __m256i r = _mm256_loadu_si256(
                reinterpret_cast<const __m256i *>(row + 8 * v));
            const __m256i key = _mm256_cvtepi8_epi32(_mm_loadl_epi64(
                reinterpret_cast<const __m128i *>(s + 8 * v)));
            a[v] = _mm256_add_epi32(a[v], _mm256_sign_epi32(r, key));
        }
    }
#pragma GCC unroll 8
    for (std::size_t v = 0; v < NV; ++v)
        _mm256_storeu_si256(
            reinterpret_cast<__m256i *>(acc + off + 8 * v), a[v]);
}

void
addSignedRowsAvx2(std::int32_t *acc, const std::int32_t *const *rows,
                  const std::int8_t *const *signs, std::size_t count,
                  std::size_t n)
{
    std::size_t i = 0;
    for (; i + 32 <= n; i += 32)
        addSignedRowsBlock<4>(acc, rows, signs, count, i);
    for (; i + 8 <= n; i += 8)
        addSignedRowsBlock<1>(acc, rows, signs, count, i);
    for (; i < n; ++i) {
        std::int32_t a = acc[i];
        for (std::size_t t = 0; t < count; ++t)
            a += rows[t][i] * signs[t][i];
        acc[i] = a;
    }
}

/** quantizeI8's element expression for four lanes, as int32. */
__m128i
roundHalfAway4(const std::int32_t *p, __m256d inv)
{
    const __m256d signBit = _mm256_set1_pd(-0.0);
    const __m256d half = _mm256_set1_pd(0.5);
    const __m256d r = _mm256_mul_pd(loadInt4AsDouble(p), inv);
    const __m256d h = _mm256_or_pd(_mm256_and_pd(r, signBit), half);
    return _mm256_cvttpd_epi32(_mm256_add_pd(r, h));
}

double
quantizeI8Avx2(const std::int32_t *row, std::size_t n, std::int8_t *out)
{
    // Max-abs as an unsigned maximum: vpabsd maps INT32_MIN to
    // 0x80000000, which is 2^31 read unsigned, so every |v| is exact.
    __m256i m = _mm256_setzero_si256();
    std::size_t i = 0;
    for (; i + 8 <= n; i += 8)
        m = _mm256_max_epu32(
            m, _mm256_abs_epi32(_mm256_loadu_si256(
                   reinterpret_cast<const __m256i *>(row + i))));
    alignas(32) std::uint32_t lanes[8];
    _mm256_store_si256(reinterpret_cast<__m256i *>(lanes), m);
    std::int64_t maxabs = 0;
    for (const std::uint32_t lane : lanes)
        maxabs = std::max<std::int64_t>(maxabs, lane);
    for (; i < n; ++i)
        maxabs = std::max(maxabs,
                          std::abs(static_cast<std::int64_t>(row[i])));
    const double scale =
        maxabs > 0 ? static_cast<double>(maxabs) / 127.0 : 1.0;
    const double inv = 1.0 / scale;

    // Each lane is the scalar element expression (mul, then add of
    // the sign-copied half, then truncation); the saturating packs
    // and the max with -127 are clamp(q, -127, 127).
    const __m256d vinv = _mm256_set1_pd(inv);
    i = 0;
    for (; i + 16 <= n; i += 16) {
        const __m128i q0 = roundHalfAway4(row + i, vinv);
        const __m128i q1 = roundHalfAway4(row + i + 4, vinv);
        const __m128i q2 = roundHalfAway4(row + i + 8, vinv);
        const __m128i q3 = roundHalfAway4(row + i + 12, vinv);
        const __m128i packed = _mm_packs_epi16(_mm_packs_epi32(q0, q1),
                                               _mm_packs_epi32(q2, q3));
        _mm_storeu_si128(reinterpret_cast<__m128i *>(out + i),
                         _mm_max_epi8(packed, _mm_set1_epi8(-127)));
    }
    for (; i < n; ++i) {
        const double r = static_cast<double>(row[i]) * inv;
        const int q = static_cast<int>(r + std::copysign(0.5, r));
        out[i] = static_cast<std::int8_t>(std::clamp(q, -127, 127));
    }
    return scale;
}

std::size_t
matchCountWordsAvx2(const std::uint64_t *a, const std::uint64_t *b,
                    std::size_t words, std::size_t dim)
{
    if (words == 0)
        return 0;
    std::uint64_t matches = 0;
    // Hardware popcnt (this TU carries -mpopcnt); bit-exact with the
    // scalar std::popcount path by definition.
    for (std::size_t w = 0; w + 1 < words; ++w)
        matches += static_cast<std::uint64_t>(
            _mm_popcnt_u64(~(a[w] ^ b[w])));
    matches += static_cast<std::uint64_t>(_mm_popcnt_u64(
        ~(a[words - 1] ^ b[words - 1]) & tailMask64(dim)));
    return static_cast<std::size_t>(matches);
}

/**
 * One register tile of similarityBatch: QN queries against RN rows,
 * out[j * numRows + r] for the pair (queries[j], rows[r]). Each
 * pair keeps its own accumulator and runs dotIntRealAvx2's op
 * sequence (mul, then add, per 4-lane step; the same reduction and
 * tail), so the tile decides only which loads are shared: a query's
 * four int32 are converted once per step for all RN rows, and a row's
 * four doubles are loaded once for all QN queries. The QN * RN
 * accumulators stay in registers (2 x 4 uses 14 of the 16).
 */
template <std::size_t QN, std::size_t RN>
void
similarityTile(const std::int32_t *const *queries,
               const double *const *rows, std::size_t numRows,
               std::size_t n, double *out)
{
    __m256d acc[QN][RN];
#pragma GCC unroll 8
    for (std::size_t j = 0; j < QN; ++j)
#pragma GCC unroll 8
        for (std::size_t r = 0; r < RN; ++r)
            acc[j][r] = _mm256_setzero_pd();
    const std::size_t n4 = n & ~std::size_t{3};
    for (std::size_t i = 0; i < n4; i += 4) {
        __m256d q[QN];
#pragma GCC unroll 8
        for (std::size_t j = 0; j < QN; ++j)
            q[j] = loadInt4AsDouble(queries[j] + i);
#pragma GCC unroll 8
        for (std::size_t r = 0; r < RN; ++r) {
            const __m256d w = _mm256_loadu_pd(rows[r] + i);
#pragma GCC unroll 8
            for (std::size_t j = 0; j < QN; ++j)
                acc[j][r] =
                    _mm256_add_pd(acc[j][r], _mm256_mul_pd(q[j], w));
        }
    }
    for (std::size_t j = 0; j < QN; ++j) {
        for (std::size_t r = 0; r < RN; ++r) {
            double sum = reduceLanes(acc[j][r]);
            for (std::size_t i = n4; i < n; ++i)
                sum += static_cast<double>(queries[j][i]) * rows[r][i];
            out[j * numRows + r] = sum;
        }
    }
}

/** QN queries against every row: 4-row tiles, then the 1-3 left. */
template <std::size_t QN>
void
similarityRows(const std::int32_t *const *queries,
               const double *const *rows, std::size_t numRows,
               std::size_t n, double *out)
{
    std::size_t r = 0;
    for (; r + 4 <= numRows; r += 4)
        similarityTile<QN, 4>(queries, rows + r, numRows, n, out + r);
    switch (numRows - r) {
    case 3:
        similarityTile<QN, 3>(queries, rows + r, numRows, n, out + r);
        break;
    case 2:
        similarityTile<QN, 2>(queries, rows + r, numRows, n, out + r);
        break;
    case 1:
        similarityTile<QN, 1>(queries, rows + r, numRows, n, out + r);
        break;
    default:
        break;
    }
}

void
similarityBatchAvx2(const std::int32_t *const *queries,
                    std::size_t numQueries,
                    const double *const *rows, std::size_t numRows,
                    std::size_t n, double *out)
{
    // Query pairs outermost: the pair stays in L1 while the rows
    // stream past it, and the rows of a class model fit in L2.
    std::size_t q = 0;
    for (; q + 2 <= numQueries; q += 2)
        similarityRows<2>(queries + q, rows, numRows, n,
                          out + q * numRows);
    if (q < numQueries)
        similarityRows<1>(queries + q, rows, numRows, n,
                          out + q * numRows);
}

/** Sum of eight int32 lanes in int64. */
std::int64_t
sumLanes32(__m256i v)
{
    alignas(32) std::int32_t lanes[8];
    _mm256_store_si256(reinterpret_cast<__m256i *>(lanes), v);
    std::int64_t sum = 0;
    for (const std::int32_t lane : lanes)
        sum += lane;
    return sum;
}

/**
 * One query against RN class rows: out[r] = dotI8I8(q, rows[r], n).
 * Each query block of 16 int8 is widened to int16 once and used for
 * all RN rows; vpmaddwd pair-sums (at most 2 * 128 * 128 = 32768 per
 * lane and step) are drained into int64 every kBlock steps, far
 * before an int32 lane could wrap, so every sum is exact.
 */
template <std::size_t RN>
void
scoresI8Tile(const std::int8_t *q, const std::int8_t *const *rows,
             std::size_t n, std::int64_t *out)
{
    constexpr std::size_t kBlock = 8192;
    std::int64_t sum[RN] = {};
    std::size_t i = 0;
    const std::size_t n16 = n & ~std::size_t{15};
    while (i < n16) {
        const std::size_t stop =
            std::min(n16, i + kBlock * std::size_t{16});
        __m256i acc[RN];
#pragma GCC unroll 8
        for (std::size_t r = 0; r < RN; ++r)
            acc[r] = _mm256_setzero_si256();
        for (; i < stop; i += 16) {
            const __m256i q16 = _mm256_cvtepi8_epi16(_mm_loadu_si128(
                reinterpret_cast<const __m128i *>(q + i)));
#pragma GCC unroll 8
            for (std::size_t r = 0; r < RN; ++r) {
                const __m256i r16 = _mm256_cvtepi8_epi16(_mm_loadu_si128(
                    reinterpret_cast<const __m128i *>(rows[r] + i)));
                acc[r] = _mm256_add_epi32(acc[r],
                                          _mm256_madd_epi16(q16, r16));
            }
        }
        for (std::size_t r = 0; r < RN; ++r)
            sum[r] += sumLanes32(acc[r]);
    }
    for (std::size_t r = 0; r < RN; ++r) {
        for (std::size_t j = n16; j < n; ++j)
            sum[r] += static_cast<std::int64_t>(q[j]) * rows[r][j];
        out[r] = sum[r];
    }
}

std::int64_t
dotI8I8Avx2(const std::int8_t *a, const std::int8_t *b, std::size_t n)
{
    std::int64_t sum = 0;
    scoresI8Tile<1>(a, &b, n, &sum);
    return sum;
}

void
scoresBatchI8Avx2(const std::int8_t *const *queries,
                  std::size_t numQueries,
                  const std::int8_t *const *rows, std::size_t numRows,
                  std::size_t n, std::int64_t *out)
{
    for (std::size_t q = 0; q < numQueries; ++q) {
        std::int64_t *o = out + q * numRows;
        std::size_t r = 0;
        for (; r + 4 <= numRows; r += 4)
            scoresI8Tile<4>(queries[q], rows + r, n, o + r);
        switch (numRows - r) {
        case 3:
            scoresI8Tile<3>(queries[q], rows + r, n, o + r);
            break;
        case 2:
            scoresI8Tile<2>(queries[q], rows + r, n, o + r);
            break;
        case 1:
            scoresI8Tile<1>(queries[q], rows + r, n, o + r);
            break;
        default:
            break;
        }
    }
}

/** Lanes [off, off + 4 * NV) of accumulateRows, held in registers
 * across the whole row list (written out per accumulator: a loop
 * over them is left rolled at -O2 and spills them to the stack). */
template <std::size_t NV>
void
accumulateRowsBlock(double *acc, const double *const *rows,
                    const double *scales, std::size_t count,
                    std::size_t off)
{
    static_assert(NV >= 1 && NV <= 4);
    double *out = acc + off;
    __m256d a0 = _mm256_loadu_pd(out);
    __m256d a1 = NV > 1 ? _mm256_loadu_pd(out + 4) : _mm256_setzero_pd();
    __m256d a2 = NV > 2 ? _mm256_loadu_pd(out + 8) : _mm256_setzero_pd();
    __m256d a3 = NV > 3 ? _mm256_loadu_pd(out + 12) : _mm256_setzero_pd();
    for (std::size_t t = 0; t < count; ++t) {
        const __m256d s = _mm256_broadcast_sd(scales + t);
        const double *row = rows[t] + off;
        a0 = _mm256_add_pd(a0, _mm256_mul_pd(s, _mm256_loadu_pd(row)));
        if constexpr (NV > 1)
            a1 = _mm256_add_pd(a1,
                               _mm256_mul_pd(s, _mm256_loadu_pd(row + 4)));
        if constexpr (NV > 2)
            a2 = _mm256_add_pd(a2,
                               _mm256_mul_pd(s, _mm256_loadu_pd(row + 8)));
        if constexpr (NV > 3)
            a3 = _mm256_add_pd(
                a3, _mm256_mul_pd(s, _mm256_loadu_pd(row + 12)));
    }
    _mm256_storeu_pd(out, a0);
    if constexpr (NV > 1)
        _mm256_storeu_pd(out + 4, a1);
    if constexpr (NV > 2)
        _mm256_storeu_pd(out + 8, a2);
    if constexpr (NV > 3)
        _mm256_storeu_pd(out + 12, a3);
}

void
accumulateRowsAvx2(double *acc, const double *const *rows,
                   const double *scales, std::size_t count,
                   std::size_t k)
{
    // Lanes run across classes: every lane is the scalar kernel's
    // sequential sum, mul then add, so the bits match it.
    std::size_t i = 0;
    for (; i + 16 <= k; i += 16)
        accumulateRowsBlock<4>(acc, rows, scales, count, i);
    switch ((k - i) / 4) {
    case 3:
        accumulateRowsBlock<3>(acc, rows, scales, count, i);
        break;
    case 2:
        accumulateRowsBlock<2>(acc, rows, scales, count, i);
        break;
    case 1:
        accumulateRowsBlock<1>(acc, rows, scales, count, i);
        break;
    default:
        break;
    }
    for (i = k & ~std::size_t{3}; i < k; ++i) {
        double a = acc[i];
        for (std::size_t t = 0; t < count; ++t)
            a += scales[t] * rows[t][i];
        acc[i] = a;
    }
}

constexpr detail::KernelTable kAvx2Table = {
    Impl::kAvx2,
    dotIntAvx2,
    dotIntI8Avx2,
    dotI8I8Avx2,
    dotIntPackedWordsAvx2,
    dotIntRealAvx2,
    dotRealI8Avx2,
    mulIntRealAvx2,
    addSignedRowsAvx2,
    quantizeI8Avx2,
    matchCountWordsAvx2,
    similarityBatchAvx2,
    scoresBatchI8Avx2,
    accumulateRowsAvx2,
};

bool
cpuSupported()
{
#if defined(__GNUC__) || defined(__clang__)
    return __builtin_cpu_supports("avx2") != 0 &&
           __builtin_cpu_supports("popcnt") != 0;
#else
    return false;
#endif
}

} // namespace

const detail::KernelTable *
detail::avx2Table()
{
    static const detail::KernelTable *table =
        cpuSupported() ? &kAvx2Table : nullptr;
    return table;
}

} // namespace lookhd::hdc::kernels

#else // !(__AVX2__ && __POPCNT__)

namespace lookhd::hdc::kernels {

const detail::KernelTable *
detail::avx2Table()
{
    return nullptr;
}

} // namespace lookhd::hdc::kernels

#endif
