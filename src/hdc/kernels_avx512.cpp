/**
 * @file
 * AVX-512 kernel implementations (integer kernels and quantizeI8).
 *
 * Every function carries its own __attribute__((target(...))) so the
 * TU is built WITHOUT -mavx512* command-line flags: the compiler can
 * then never auto-vectorize ordinary code here into AVX-512
 * instructions that would fault on narrower hosts, and the binary
 * stays runnable anywhere (dispatch alone decides what executes).
 *
 * Scope: the exact integer kernels (dotInt, dotIntI8, dotI8I8,
 * dotIntPackedWords, matchCountWords, scoresBatchI8, addSignedRows)
 * get 512-bit bodies, and so does quantizeI8, whose double lanes are
 * independent elements (one multiply, one add, one truncation each;
 * the TU is built with -ffp-contract=off so they never fuse). The
 * double accumulations are copied verbatim from the AVX2 table so
 * there is exactly one float accumulation order per ISA family and
 * the 4-lane determinism contract stays single-sourced; as a
 * consequence the AVX-512 table exists only when the AVX2 table does
 * (true on every AVX-512 CPU).
 *
 * matchCountWords has two variants: a VPOPCNTDQ 512-bit popcount and
 * a hardware-popcnt word loop. The table picks at construction time
 * based on __builtin_cpu_supports("avx512vpopcntdq"); both are
 * integer-exact, so the choice is invisible in results - which is
 * also why the rest of the table is NOT gated on VPOPCNTDQ (common
 * Skylake-SP/Cascade Lake parts lack it but still benefit from the
 * 512-bit int8 path).
 */

#include "hdc/kernels.hpp"

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__)) && \
    !defined(LOOKHD_NO_AVX512)

#include <algorithm>
#include <immintrin.h>

// GCC's avx512 headers build masked intrinsics on top of
// _mm512_undefined_epi32(), which trips -Wmaybe-uninitialized at
// every inline-expansion site when the headers are entered through
// per-function target attributes (GCC bug 105593). False positive;
// TU-local silence.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic ignored "-Wuninitialized"
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"
#endif

#define LOOKHD_AVX512_TARGET                                          \
    __attribute__((target("avx512f,avx512bw,avx512dq,avx512vl,popcnt")))
#define LOOKHD_AVX512_VPOPCNT_TARGET                                  \
    __attribute__((                                                   \
        target("avx512f,avx512bw,avx512dq,avx512vl,avx512vpopcntdq")))

namespace lookhd::hdc::kernels {

namespace {

LOOKHD_AVX512_TARGET std::int64_t
reduceLanes64(__m512i acc)
{
    return _mm512_reduce_add_epi64(acc);
}

/** Sum of sixteen int32 lanes in int64 (an int32 sum could wrap). */
LOOKHD_AVX512_TARGET std::int64_t
sumLanes32(__m512i v)
{
    return _mm512_reduce_add_epi64(
               _mm512_cvtepi32_epi64(_mm512_castsi512_si256(v))) +
           _mm512_reduce_add_epi64(
               _mm512_cvtepi32_epi64(_mm512_extracti64x4_epi64(v, 1)));
}

LOOKHD_AVX512_TARGET std::int64_t
dotIntAvx512(const std::int32_t *a, const std::int32_t *b,
             std::size_t n)
{
    __m512i acc = _mm512_setzero_si512();
    std::size_t i = 0;
    const std::size_t n8 = n & ~std::size_t{7};
    for (; i < n8; i += 8) {
        // Widen to int64 lanes; vpmuldq multiplies each lane's low 32
        // bits as signed, giving the exact 64-bit product.
        const __m512i a64 = _mm512_cvtepi32_epi64(_mm256_loadu_si256(
            reinterpret_cast<const __m256i *>(a + i)));
        const __m512i b64 = _mm512_cvtepi32_epi64(_mm256_loadu_si256(
            reinterpret_cast<const __m256i *>(b + i)));
        acc = _mm512_add_epi64(acc, _mm512_mul_epi32(a64, b64));
    }
    std::int64_t sum = reduceLanes64(acc);
    for (; i < n; ++i)
        sum += static_cast<std::int64_t>(a[i]) * b[i];
    return sum;
}

LOOKHD_AVX512_TARGET std::int64_t
dotIntI8Avx512(const std::int32_t *a, const std::int8_t *signs,
               std::size_t n)
{
    __m512i acc = _mm512_setzero_si512();
    std::size_t i = 0;
    const std::size_t n8 = n & ~std::size_t{7};
    for (; i < n8; i += 8) {
        const __m512i a64 = _mm512_cvtepi32_epi64(_mm256_loadu_si256(
            reinterpret_cast<const __m256i *>(a + i)));
        const __m512i s64 = _mm512_cvtepi8_epi64(_mm_loadl_epi64(
            reinterpret_cast<const __m128i *>(signs + i)));
        acc = _mm512_add_epi64(acc, _mm512_mul_epi32(a64, s64));
    }
    std::int64_t sum = reduceLanes64(acc);
    for (; i < n; ++i)
        sum += static_cast<std::int64_t>(a[i]) * signs[i];
    return sum;
}

LOOKHD_AVX512_TARGET std::int64_t
dotIntPackedWordsAvx512(const std::int32_t *q,
                        const std::uint64_t *words, std::size_t n)
{
    // Eight elements per step: the byte of packed sign bits becomes
    // the lane mask directly; lanes with a clear bit take the 64-bit
    // negation, so -INT32_MIN is exact like the scalar reference.
    __m512i acc = _mm512_setzero_si512();
    const __m512i zero = _mm512_setzero_si512();
    std::size_t i = 0;
    const std::size_t n8 = n & ~std::size_t{7};
    for (; i < n8; i += 8) {
        const __mmask8 set = static_cast<__mmask8>(
            words[i / 64] >> (i % 64));
        const __m512i q64 = _mm512_cvtepi32_epi64(_mm256_loadu_si256(
            reinterpret_cast<const __m256i *>(q + i)));
        const __m512i neg = _mm512_sub_epi64(zero, q64);
        acc = _mm512_add_epi64(acc,
                               _mm512_mask_blend_epi64(set, neg, q64));
    }
    std::int64_t sum = reduceLanes64(acc);
    for (; i < n; ++i) {
        const bool positive = (words[i / 64] >> (i % 64)) & 1u;
        sum += positive ? q[i] : -static_cast<std::int64_t>(q[i]);
    }
    return sum;
}

LOOKHD_AVX512_TARGET std::size_t
matchCountWordsAvx512(const std::uint64_t *a, const std::uint64_t *b,
                      std::size_t words, std::size_t dim)
{
    if (words == 0)
        return 0;
    std::uint64_t matches = 0;
    for (std::size_t w = 0; w + 1 < words; ++w)
        matches += static_cast<std::uint64_t>(
            _mm_popcnt_u64(~(a[w] ^ b[w])));
    matches += static_cast<std::uint64_t>(_mm_popcnt_u64(
        ~(a[words - 1] ^ b[words - 1]) & tailMask64(dim)));
    return static_cast<std::size_t>(matches);
}

LOOKHD_AVX512_VPOPCNT_TARGET std::size_t
matchCountWordsVpopcnt(const std::uint64_t *a, const std::uint64_t *b,
                       std::size_t words, std::size_t dim)
{
    if (words == 0)
        return 0;
    const std::size_t body = words - 1;
    __m512i acc = _mm512_setzero_si512();
    std::size_t w = 0;
    const std::size_t w8 = body & ~std::size_t{7};
    for (; w < w8; w += 8) {
        const __m512i av = _mm512_loadu_si512(a + w);
        const __m512i bv = _mm512_loadu_si512(b + w);
        // XNOR via vpternlogq (0x99 = ~(A ^ B)), then per-lane
        // popcount.
        const __m512i xnor =
            _mm512_ternarylogic_epi64(av, bv, av, 0x99);
        acc = _mm512_add_epi64(acc, _mm512_popcnt_epi64(xnor));
    }
    std::uint64_t matches =
        static_cast<std::uint64_t>(_mm512_reduce_add_epi64(acc));
    for (; w < body; ++w)
        matches += static_cast<std::uint64_t>(
            _mm_popcnt_u64(~(a[w] ^ b[w])));
    matches += static_cast<std::uint64_t>(_mm_popcnt_u64(
        ~(a[words - 1] ^ b[words - 1]) & tailMask64(dim)));
    return static_cast<std::size_t>(matches);
}

/**
 * acc[0, 64) += the 64 int16 sums in lo (lanes 0-31) and hi; lanes
 * outside @p live are neither read nor written.
 */
LOOKHD_AVX512_TARGET void
addWidened(std::int32_t *acc, __m512i lo, __m512i hi, std::uint64_t live)
{
    const __m512i parts[4] = {
        _mm512_cvtepi16_epi32(_mm512_castsi512_si256(lo)),
        _mm512_cvtepi16_epi32(_mm512_extracti64x4_epi64(lo, 1)),
        _mm512_cvtepi16_epi32(_mm512_castsi512_si256(hi)),
        _mm512_cvtepi16_epi32(_mm512_extracti64x4_epi64(hi, 1))};
    for (std::size_t j = 0; j < 4; ++j) {
        const auto m = static_cast<__mmask16>(live >> (16 * j));
        std::int32_t *p = acc + 16 * j;
        _mm512_mask_storeu_epi32(
            p, m,
            _mm512_add_epi32(_mm512_maskz_loadu_epi32(m, p), parts[j]));
    }
}

/**
 * Dimensions [off, off + 64 * NV) of addSignedRows (off a multiple of
 * 64); of the last 64, only the lanes set in @p live are read or
 * written. A row's inverted key word is the byte mask of a masked
 * 0 - r (exact for |r| <= 127), and the signed bytes are summed in two
 * int16 accumulators per 64 dimensions, which are widened into the
 * int32 sums every kRowsPerWiden rows.
 */
template <std::size_t NV>
LOOKHD_AVX512_TARGET void
addSignedRowsBlock(std::int32_t *acc, const std::int8_t *const *rows,
                   const std::uint64_t *const *signs, std::size_t count,
                   std::size_t off, std::uint64_t live)
{
    const __m512i zero = _mm512_setzero_si512();
    for (std::size_t first = 0; first < count;
         first += detail::kRowsPerWiden) {
        const std::size_t last =
            std::min(count, first + detail::kRowsPerWiden);
        __m512i lo[NV], hi[NV];
#pragma GCC unroll 8
        for (std::size_t v = 0; v < NV; ++v)
            lo[v] = hi[v] = zero;
        for (std::size_t t = first; t < last; ++t) {
            const std::int8_t *row = rows[t] + off;
            const std::uint64_t *s = signs[t] + off / 64;
#pragma GCC unroll 8
            for (std::size_t v = 0; v < NV; ++v) {
                const __m512i r = _mm512_maskz_loadu_epi8(
                    v + 1 == NV ? live : ~std::uint64_t{0}, row + 64 * v);
                const __m512i x = _mm512_mask_sub_epi8(r, ~s[v], zero, r);
                lo[v] = _mm512_add_epi16(
                    lo[v], _mm512_cvtepi8_epi16(_mm512_castsi512_si256(x)));
                hi[v] = _mm512_add_epi16(
                    hi[v],
                    _mm512_cvtepi8_epi16(_mm512_extracti64x4_epi64(x, 1)));
            }
        }
#pragma GCC unroll 8
        for (std::size_t v = 0; v < NV; ++v)
            addWidened(acc + off + 64 * v, lo[v], hi[v],
                       v + 1 == NV ? live : ~std::uint64_t{0});
    }
}

LOOKHD_AVX512_TARGET void
addSignedRowsAvx512(std::int32_t *acc, const std::int8_t *const *rows,
                    const std::uint64_t *const *signs, std::size_t count,
                    std::size_t n)
{
    const std::uint64_t all = ~std::uint64_t{0};
    std::size_t i = 0;
    for (; i + 256 <= n; i += 256)
        addSignedRowsBlock<4>(acc, rows, signs, count, i, all);
    for (; i + 64 <= n; i += 64)
        addSignedRowsBlock<1>(acc, rows, signs, count, i, all);
    // The last n % 64 lanes: masked-off row bytes load as zero, so
    // key bits past n never matter, and their sums are not stored.
    if (i < n)
        addSignedRowsBlock<1>(acc, rows, signs, count, i, tailMask64(n));
}

/** quantizeI8's element expression for eight lanes, as int32. */
LOOKHD_AVX512_TARGET __m256i
roundHalfAway8(__m256i v, __m512d inv)
{
    const __m512d signBit = _mm512_set1_pd(-0.0);
    const __m512d half = _mm512_set1_pd(0.5);
    const __m512d r = _mm512_mul_pd(_mm512_cvtepi32_pd(v), inv);
    const __m512d h = _mm512_or_pd(_mm512_and_pd(r, signBit), half);
    return _mm512_cvttpd_epi32(_mm512_add_pd(r, h));
}

/** Sixteen int32 lanes quantized and clamped: vpmovsdb after the max
 * with -127 is clamp(q, -127, 127). */
LOOKHD_AVX512_TARGET __m128i
quantize16(__m512i v, __m512d inv)
{
    const __m256i lo = roundHalfAway8(_mm512_castsi512_si256(v), inv);
    const __m256i hi = roundHalfAway8(_mm512_extracti64x4_epi64(v, 1), inv);
    return _mm512_cvtsepi32_epi8(
        _mm512_max_epi32(_mm512_inserti64x4(_mm512_castsi256_si512(lo), hi, 1),
                         _mm512_set1_epi32(-127)));
}

LOOKHD_AVX512_TARGET double
quantizeI8Avx512(const std::int32_t *row, std::size_t n,
                 std::int8_t *out)
{
    // Sixteen lanes per step, the last step masked. Max-abs is an
    // unsigned maximum (vpabsd maps INT32_MIN to 2^31 read unsigned);
    // each element is the scalar mul, add and truncation in one
    // double lane.
    __m512i m = _mm512_setzero_si512();
    for (std::size_t i = 0; i < n; i += 16) {
        const auto live = static_cast<__mmask16>(
            n - i >= 16 ? 0xffffu : (1u << (n - i)) - 1);
        m = _mm512_max_epu32(
            m, _mm512_abs_epi32(_mm512_maskz_loadu_epi32(live, row + i)));
    }
    const auto maxabs =
        static_cast<std::int64_t>(_mm512_reduce_max_epu32(m));
    const double scale =
        maxabs > 0 ? static_cast<double>(maxabs) / 127.0 : 1.0;
    const __m512d inv = _mm512_set1_pd(1.0 / scale);
    std::size_t i = 0;
    for (; i + 16 <= n; i += 16)
        _mm_storeu_si128(reinterpret_cast<__m128i *>(out + i),
                         quantize16(_mm512_loadu_si512(row + i), inv));
    if (i < n) {
        const auto live = static_cast<__mmask16>((1u << (n - i)) - 1);
        _mm_mask_storeu_epi8(
            out + i, live,
            quantize16(_mm512_maskz_loadu_epi32(live, row + i), inv));
    }
    return scale;
}

/** 32 elements (the lanes of @p live) of scoresI8Tile's RN sums. */
template <std::size_t RN>
LOOKHD_AVX512_TARGET void
scoresI8Step(__m512i *acc, const std::int8_t *q,
             const std::int8_t *const *rows, std::size_t i, __mmask32 live)
{
    const __m512i q16 =
        _mm512_cvtepi8_epi16(_mm256_maskz_loadu_epi8(live, q + i));
#pragma GCC unroll 8
    for (std::size_t r = 0; r < RN; ++r) {
        const __m512i r16 =
            _mm512_cvtepi8_epi16(_mm256_maskz_loadu_epi8(live, rows[r] + i));
        acc[r] = _mm512_add_epi32(acc[r], _mm512_madd_epi16(q16, r16));
    }
}

/**
 * One query against RN class rows: out[r] = dotI8I8(q, rows[r], n).
 * Each query block of 32 int8 is widened to int16 once and used for
 * all RN rows; the last block is a masked load (zeros add nothing).
 * Lanes gain at most 2 * 128 * 128 per step and are drained into
 * int64 every kBlock steps, so every sum is exact.
 */
template <std::size_t RN>
LOOKHD_AVX512_TARGET void
scoresI8Tile(const std::int8_t *q, const std::int8_t *const *rows,
             std::size_t n, std::int64_t *out)
{
    constexpr std::size_t kBlock = 8192;
    std::int64_t sum[RN] = {};
    __m512i acc[RN];
    std::size_t i = 0;
    const std::size_t n32 = n & ~std::size_t{31};
    do {
        const std::size_t stop =
            std::min(n32, i + kBlock * std::size_t{32});
#pragma GCC unroll 8
        for (std::size_t r = 0; r < RN; ++r)
            acc[r] = _mm512_setzero_si512();
        for (; i < stop; i += 32)
            scoresI8Step<RN>(acc, q, rows, i, ~__mmask32{0});
        if (i == n32 && i < n)
            scoresI8Step<RN>(acc, q, rows, i,
                             static_cast<__mmask32>((1u << (n - i)) - 1));
#pragma GCC unroll 8
        for (std::size_t r = 0; r < RN; ++r)
            sum[r] += sumLanes32(acc[r]);
    } while (i < n32);
    for (std::size_t r = 0; r < RN; ++r)
        out[r] = sum[r];
}

LOOKHD_AVX512_TARGET std::int64_t
dotI8I8Avx512(const std::int8_t *a, const std::int8_t *b, std::size_t n)
{
    std::int64_t sum = 0;
    scoresI8Tile<1>(a, &b, n, &sum);
    return sum;
}

LOOKHD_AVX512_TARGET void
scoresBatchI8Avx512(const std::int8_t *const *queries,
                    std::size_t numQueries,
                    const std::int8_t *const *rows,
                    std::size_t numRows, std::size_t n,
                    std::int64_t *out)
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

bool
cpuSupported()
{
    return __builtin_cpu_supports("avx512f") != 0 &&
           __builtin_cpu_supports("avx512bw") != 0 &&
           __builtin_cpu_supports("avx512dq") != 0 &&
           __builtin_cpu_supports("avx512vl") != 0 &&
           __builtin_cpu_supports("popcnt") != 0;
}

} // namespace

const detail::KernelTable *
detail::avx512Table()
{
    static const detail::KernelTable *table = []()
        -> const detail::KernelTable * {
        const detail::KernelTable *avx2 = detail::avx2Table();
        if (avx2 == nullptr || !cpuSupported())
            return nullptr;
        static detail::KernelTable t = *avx2;
        t.impl = Impl::kAvx512;
        t.dotInt = dotIntAvx512;
        t.dotIntI8 = dotIntI8Avx512;
        t.dotI8I8 = dotI8I8Avx512;
        t.dotIntPackedWords = dotIntPackedWordsAvx512;
        t.matchCountWords =
            __builtin_cpu_supports("avx512vpopcntdq") != 0
                ? matchCountWordsVpopcnt
                : matchCountWordsAvx512;
        t.scoresBatchI8 = scoresBatchI8Avx512;
        t.addSignedRows = addSignedRowsAvx512;
        t.quantizeI8 = quantizeI8Avx512;
        return &t;
    }();
    return table;
}

} // namespace lookhd::hdc::kernels

#else // not x86-64 GCC/clang (or explicitly disabled)

namespace lookhd::hdc::kernels {

const detail::KernelTable *
detail::avx512Table()
{
    return nullptr;
}

} // namespace lookhd::hdc::kernels

#endif
