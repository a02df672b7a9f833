/**
 * @file
 * Scalar reference kernels + runtime dispatch.
 *
 * The scalar implementations here are the specification: the double
 * kernels spell out the 4-lane accumulation contract the AVX2
 * translation unit must reproduce bit-for-bit (see kernels.hpp).
 * Keep them boring and in lockstep with kernels_avx2.cpp.
 */

#include "hdc/kernels.hpp"

#include <algorithm>
#include <atomic>
#include <bit>
#include <cmath>
#include <cstdlib>
#include <stdexcept>
#include <string>

namespace lookhd::hdc::kernels {

namespace {

std::int64_t
dotIntScalar(const std::int32_t *a, const std::int32_t *b,
             std::size_t n)
{
    std::int64_t sum = 0;
    for (std::size_t i = 0; i < n; ++i)
        sum += static_cast<std::int64_t>(a[i]) * b[i];
    return sum;
}

std::int64_t
dotIntI8Scalar(const std::int32_t *a, const std::int8_t *signs,
               std::size_t n)
{
    std::int64_t sum = 0;
    for (std::size_t i = 0; i < n; ++i)
        sum += static_cast<std::int64_t>(a[i]) * signs[i];
    return sum;
}

std::int64_t
dotI8I8Scalar(const std::int8_t *a, const std::int8_t *b,
              std::size_t n)
{
    std::int64_t sum = 0;
    for (std::size_t i = 0; i < n; ++i)
        sum += static_cast<std::int64_t>(a[i]) * b[i];
    return sum;
}

std::int64_t
dotIntPackedWordsScalar(const std::int32_t *q,
                        const std::uint64_t *words, std::size_t n)
{
    std::int64_t sum = 0;
    for (std::size_t i = 0; i < n; ++i) {
        const bool positive = (words[i / 64] >> (i % 64)) & 1u;
        sum += positive ? q[i] : -static_cast<std::int64_t>(q[i]);
    }
    return sum;
}

double
dotIntRealScalar(const std::int32_t *q, const double *row,
                 std::size_t n)
{
    // The 4-lane contract: independent partial sums over i % 4,
    // reduced (l0 + l1) + (l2 + l3), sequential tail.
    double l0 = 0.0;
    double l1 = 0.0;
    double l2 = 0.0;
    double l3 = 0.0;
    std::size_t i = 0;
    const std::size_t n4 = n & ~std::size_t{3};
    for (; i < n4; i += 4) {
        l0 += static_cast<double>(q[i]) * row[i];
        l1 += static_cast<double>(q[i + 1]) * row[i + 1];
        l2 += static_cast<double>(q[i + 2]) * row[i + 2];
        l3 += static_cast<double>(q[i + 3]) * row[i + 3];
    }
    double sum = (l0 + l1) + (l2 + l3);
    for (; i < n; ++i)
        sum += static_cast<double>(q[i]) * row[i];
    return sum;
}

double
dotRealI8Scalar(const double *values, const std::int8_t *signs,
                std::size_t n)
{
    // Multiplying by +-1.0 is exact (a sign flip), so this equals the
    // branchy "signs[i] >= 0 ? v : -v" form lane for lane.
    double l0 = 0.0;
    double l1 = 0.0;
    double l2 = 0.0;
    double l3 = 0.0;
    std::size_t i = 0;
    const std::size_t n4 = n & ~std::size_t{3};
    for (; i < n4; i += 4) {
        l0 += values[i] * static_cast<double>(signs[i]);
        l1 += values[i + 1] * static_cast<double>(signs[i + 1]);
        l2 += values[i + 2] * static_cast<double>(signs[i + 2]);
        l3 += values[i + 3] * static_cast<double>(signs[i + 3]);
    }
    double sum = (l0 + l1) + (l2 + l3);
    for (; i < n; ++i)
        sum += values[i] * static_cast<double>(signs[i]);
    return sum;
}

void
mulIntRealScalar(const std::int32_t *a, const double *b, double *out,
                 std::size_t n)
{
    for (std::size_t i = 0; i < n; ++i)
        out[i] = static_cast<double>(a[i]) * b[i];
}

/**
 * @p v signed by key bit w & 1: v where it is set, -v where it is
 * clear, with no branch on the key.
 */
std::int32_t
signedByBit(std::int8_t v, std::uint64_t w)
{
    return v * (static_cast<std::int32_t>(w & 1) * 2 - 1);
}

void
addSignedRowsScalar(std::int32_t *acc, const std::int8_t *const *rows,
                    const std::uint64_t *const *signs, std::size_t count,
                    std::size_t n)
{
    // Two rows per pass over the sum (the last alone when count is
    // odd), so acc is read and written once per pair: 11 PHYSICAL-size
    // rows took 0.77x the time of one row per pass.
    for (std::size_t t = 0; t < count; t += 2) {
        const std::int8_t *r0 = rows[t];
        for (std::size_t i = 0; i < n; i += 64) {
            // One key word per 64 elements, shifted down a bit at a
            // time.
            std::uint64_t w0 = signs[t][i / 64];
            const std::size_t end = std::min(n, i + 64);
            if (t + 1 == count) {
                for (std::size_t j = i; j < end; ++j, w0 >>= 1)
                    acc[j] += signedByBit(r0[j], w0);
                continue;
            }
            const std::int8_t *r1 = rows[t + 1];
            std::uint64_t w1 = signs[t + 1][i / 64];
            for (std::size_t j = i; j < end; ++j, w0 >>= 1, w1 >>= 1)
                acc[j] += signedByBit(r0[j], w0) + signedByBit(r1[j], w1);
        }
    }
}

double
quantizeI8Scalar(const std::int32_t *row, std::size_t n,
                 std::int8_t *out)
{
    // Round half away from zero as an add-half truncation: one IEEE
    // multiply, one add and a truncating conversion per element.
    // |v| * inv <= 127 up to rounding, so the clamp only guards
    // against it.
    std::int64_t maxabs = 0;
    for (std::size_t i = 0; i < n; ++i)
        maxabs = std::max(maxabs,
                          std::abs(static_cast<std::int64_t>(row[i])));
    const double scale =
        maxabs > 0 ? static_cast<double>(maxabs) / 127.0 : 1.0;
    const double inv = 1.0 / scale;
    for (std::size_t i = 0; i < n; ++i) {
        const double r = static_cast<double>(row[i]) * inv;
        const int q = static_cast<int>(r + std::copysign(0.5, r));
        out[i] = static_cast<std::int8_t>(std::clamp(q, -127, 127));
    }
    return scale;
}

std::size_t
matchCountWordsScalar(const std::uint64_t *a, const std::uint64_t *b,
                      std::size_t words, std::size_t dim)
{
    if (words == 0)
        return 0;
    std::size_t matches = 0;
    for (std::size_t w = 0; w + 1 < words; ++w)
        matches += static_cast<std::size_t>(
            std::popcount(~(a[w] ^ b[w])));
    matches += static_cast<std::size_t>(std::popcount(
        ~(a[words - 1] ^ b[words - 1]) & tailMask64(dim)));
    return matches;
}

void
similarityBatchScalar(const std::int32_t *const *queries,
                      std::size_t numQueries,
                      const double *const *rows, std::size_t numRows,
                      std::size_t n, double *out)
{
    for (std::size_t q = 0; q < numQueries; ++q)
        for (std::size_t r = 0; r < numRows; ++r)
            out[q * numRows + r] =
                dotIntRealScalar(queries[q], rows[r], n);
}

void
scoresBatchI8Scalar(const std::int8_t *const *queries,
                    std::size_t numQueries,
                    const std::int8_t *const *rows,
                    std::size_t numRows, std::size_t n,
                    std::int64_t *out)
{
    for (std::size_t q = 0; q < numQueries; ++q)
        for (std::size_t r = 0; r < numRows; ++r)
            out[q * numRows + r] = dotI8I8Scalar(queries[q], rows[r], n);
}

void
accumulateRowsScalar(double *acc, const double *const *rows,
                     const double *scales, std::size_t count,
                     std::size_t k)
{
    for (std::size_t t = 0; t < count; ++t) {
        const double s = scales[t];
        const double *row = rows[t];
        for (std::size_t i = 0; i < k; ++i)
            acc[i] += s * row[i];
    }
}

constexpr detail::KernelTable kScalarTable = {
    Impl::kScalar,
    dotIntScalar,
    dotIntI8Scalar,
    dotI8I8Scalar,
    dotIntPackedWordsScalar,
    dotIntRealScalar,
    dotRealI8Scalar,
    mulIntRealScalar,
    addSignedRowsScalar,
    quantizeI8Scalar,
    matchCountWordsScalar,
    similarityBatchScalar,
    scoresBatchI8Scalar,
    accumulateRowsScalar,
};

const detail::KernelTable *
tableFor(Impl impl)
{
    switch (impl) {
    case Impl::kScalar:
        return &kScalarTable;
    case Impl::kAvx2:
        return detail::avx2Table();
    case Impl::kAvx512:
        return detail::avx512Table();
    case Impl::kNeon:
        return detail::neonTable();
    }
    return nullptr;
}

/** Best table the CPU supports; resolved once, never changes. */
const detail::KernelTable *
bestTable()
{
    static const detail::KernelTable *best = [] {
        if (const detail::KernelTable *avx512 = detail::avx512Table())
            return avx512;
        if (const detail::KernelTable *avx2 = detail::avx2Table())
            return avx2;
        if (const detail::KernelTable *neon = detail::neonTable())
            return neon;
        return &kScalarTable;
    }();
    return best;
}

/** Forced table (forceImpl), nullptr = use bestTable(). */
std::atomic<const detail::KernelTable *> gForced{nullptr};

const detail::KernelTable &
active()
{
    if (const detail::KernelTable *forced =
            gForced.load(std::memory_order_acquire))
        return *forced;
    return *bestTable();
}

} // namespace

namespace detail {

const KernelTable *
scalarTable()
{
    return &kScalarTable;
}

} // namespace detail

const char *
implName(Impl impl)
{
    switch (impl) {
    case Impl::kScalar:
        return "scalar";
    case Impl::kAvx2:
        return "avx2";
    case Impl::kAvx512:
        return "avx512";
    case Impl::kNeon:
        return "neon";
    }
    return "unknown";
}

bool
implAvailable(Impl impl)
{
    return tableFor(impl) != nullptr;
}

Impl
activeImpl()
{
    return active().impl;
}

void
forceImpl(Impl impl)
{
    const detail::KernelTable *table = tableFor(impl);
    if (table == nullptr)
        throw std::invalid_argument(
            std::string("kernel implementation unavailable: ") +
            implName(impl));
    gForced.store(table, std::memory_order_release);
}

void
clearForcedImpl()
{
    gForced.store(nullptr, std::memory_order_release);
}

std::int64_t
dotInt(const std::int32_t *a, const std::int32_t *b, std::size_t n)
{
    return active().dotInt(a, b, n);
}

std::int64_t
dotIntI8(const std::int32_t *a, const std::int8_t *signs,
         std::size_t n)
{
    return active().dotIntI8(a, signs, n);
}

std::int64_t
dotI8I8(const std::int8_t *a, const std::int8_t *b, std::size_t n)
{
    return active().dotI8I8(a, b, n);
}

std::int64_t
dotIntPackedWords(const std::int32_t *q, const std::uint64_t *words,
                  std::size_t n)
{
    return active().dotIntPackedWords(q, words, n);
}

double
dotIntReal(const std::int32_t *q, const double *row, std::size_t n)
{
    return active().dotIntReal(q, row, n);
}

double
dotRealI8(const double *values, const std::int8_t *signs,
          std::size_t n)
{
    return active().dotRealI8(values, signs, n);
}

void
mulIntReal(const std::int32_t *a, const double *b, double *out,
           std::size_t n)
{
    active().mulIntReal(a, b, out, n);
}

void
addSignedRows(std::int32_t *acc, const std::int8_t *const *rows,
              const std::uint64_t *const *signs, std::size_t count,
              std::size_t n)
{
    active().addSignedRows(acc, rows, signs, count, n);
}

double
quantizeI8(const std::int32_t *row, std::size_t n, std::int8_t *out)
{
    return active().quantizeI8(row, n, out);
}

std::size_t
matchCountWords(const std::uint64_t *a, const std::uint64_t *b,
                std::size_t words, std::size_t dim)
{
    return active().matchCountWords(a, b, words, dim);
}

void
similarityBatch(const std::int32_t *const *queries,
                std::size_t numQueries, const double *const *rows,
                std::size_t numRows, std::size_t n, double *out)
{
    active().similarityBatch(queries, numQueries, rows, numRows, n,
                             out);
}

void
scoresBatchI8(const std::int8_t *const *queries,
              std::size_t numQueries, const std::int8_t *const *rows,
              std::size_t numRows, std::size_t n, std::int64_t *out)
{
    active().scoresBatchI8(queries, numQueries, rows, numRows, n,
                           out);
}

void
accumulateRows(double *acc, const double *const *rows,
               const double *scales, std::size_t count, std::size_t k)
{
    active().accumulateRows(acc, rows, scales, count, k);
}

} // namespace lookhd::hdc::kernels
