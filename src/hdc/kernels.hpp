/**
 * @file
 * Runtime-dispatched similarity/encoding kernels (scalar, AVX2,
 * AVX-512, NEON).
 *
 * Every hot inner loop of the classifier funnels through this one
 * table of kernels so there is exactly one implementation (per
 * instruction set) of each primitive to test, and so the batched and
 * single-sample paths share bit-identical arithmetic:
 *
 *  - dotInt / dotIntI8: exact int64 dot products over int32 rows;
 *  - dotI8I8 / scoresBatchI8: exact int32xint8 dot products over
 *    quantized int8 class rows (the quantized serving path);
 *  - dotIntPackedWords: exact signed dot of an int32 query against a
 *    sign-packed bit row (the binary-model cosine numerator);
 *  - dotIntReal / dotRealI8 / similarityBatch: double accumulations
 *    used by class scoring;
 *  - mulIntReal / addSignedI8: the element-wise product and the
 *    key-signed accumulate of the compressed model and the lookup
 *    encoder;
 *  - matchCountWords: the popcount word loop behind every packed
 *    Hamming similarity (deduplicated from bitpack.cpp);
 *  - accumulateRows: scaled k-vector rows summed into one k-vector,
 *    which builds and reads the fused score table
 *    (lookhd/score_table.hpp).
 *
 * Dispatch: the best implementation the CPU supports is chosen once
 * at first use (AVX-512 > AVX2 > NEON > scalar, each gated on the
 * matching translation unit being compiled in and the CPU reporting
 * the feature). Tests pin an implementation with forceImpl().
 *
 * Determinism contract: integer kernels are exact, so every
 * implementation returns identical bits trivially. The double
 * kernels all follow one accumulation order - four independent
 * partial sums over lanes i % 4, reduced as (l0 + l1) + (l2 + l3),
 * then a sequential tail for n % 4 elements, with no FMA contraction
 * - which is precisely what a 4-wide AVX2 register computes. Scalar
 * and AVX2 therefore agree bit-for-bit, and batch results equal
 * single-query results by construction. (The AVX-512 table reuses
 * the AVX2 double kernels verbatim; its 512-bit code covers only the
 * exact integer kernels, so widening dispatch cannot perturb float
 * scores.) accumulateRows runs its vector lanes across the k
 * classes, never along the sum, so every lane is one sequential sum
 * and all implementations agree by construction.
 */

#ifndef LOOKHD_HDC_KERNELS_HPP
#define LOOKHD_HDC_KERNELS_HPP

#include <cstddef>
#include <cstdint>

namespace lookhd::hdc::kernels {

/** Available kernel implementations. */
enum class Impl
{
    kScalar = 0,
    kAvx2 = 1,
    kAvx512 = 2,
    kNeon = 3,
};

/** Human-readable name ("scalar", "avx2", "avx512", "neon"). */
const char *implName(Impl impl);

/** Whether @p impl is compiled in and runnable on this CPU. */
bool implAvailable(Impl impl);

/** The implementation dispatch currently resolves to. */
Impl activeImpl();

/**
 * Pin dispatch to @p impl (tests, benchmarks).
 * @throws std::invalid_argument when unavailable.
 * Not meant to race with in-flight kernel calls.
 */
void forceImpl(Impl impl);

/** Undo forceImpl(); dispatch returns to the best available. */
void clearForcedImpl();

/** Mask selecting the dim % 64 used bits of a final packed word. */
inline constexpr std::uint64_t
tailMask64(std::size_t dim)
{
    const std::size_t tail = dim % 64;
    return tail == 0 ? ~std::uint64_t{0}
                     : (std::uint64_t{1} << tail) - 1;
}

/** Exact sum of a[i] * b[i] in int64. */
std::int64_t dotInt(const std::int32_t *a, const std::int32_t *b,
                    std::size_t n);

/** Exact sum of a[i] * signs[i] (signs are +-1 bipolar bytes). */
std::int64_t dotIntI8(const std::int32_t *a, const std::int8_t *signs,
                      std::size_t n);

/** Exact sum of a[i] * b[i] over two int8 rows (quantized scoring). */
std::int64_t dotI8I8(const std::int8_t *a, const std::int8_t *b,
                     std::size_t n);

/**
 * Exact signed dot of an int32 query against a sign-packed row:
 * sum over i < n of (bit i of words set ? +q[i] : -q[i]). Bit i
 * lives in words[i / 64] >> (i % 64); bits at and above n are
 * ignored. The integer numerator behind every IntHv-vs-PackedHv
 * cosine (deduplicated from bitpack.cpp).
 */
std::int64_t dotIntPackedWords(const std::int32_t *q,
                               const std::uint64_t *words,
                               std::size_t n);

/** Sum of double(q[i]) * row[i], 4-lane accumulation contract. */
double dotIntReal(const std::int32_t *q, const double *row,
                  std::size_t n);

/**
 * Sum of values[i] * signs[i] (signs +-1), 4-lane contract. The
 * sign-resolved accumulation of compressed-model unbinding.
 */
double dotRealI8(const double *values, const std::int8_t *signs,
                 std::size_t n);

/** out[i] = double(a[i]) * b[i] (element-wise, exact per element). */
void mulIntReal(const std::int32_t *a, const double *b, double *out,
                std::size_t n);

/** acc[i] += row[i] * signs[i] (signs +-1); the encoder accumulate. */
void addSignedI8(std::int32_t *acc, const std::int32_t *row,
                 const std::int8_t *signs, std::size_t n);

/**
 * Agreeing-bit count (popcount of XNOR) over @p words packed words
 * holding @p dim valid bits; the tail word's unused bits are masked.
 */
std::size_t matchCountWords(const std::uint64_t *a,
                            const std::uint64_t *b, std::size_t words,
                            std::size_t dim);

/**
 * Score numQueries int32 query rows against numRows double class
 * rows in one pass: out[q * numRows + r] = dotIntReal(queries[q],
 * rows[r], n), bit-identical to the single-query kernel.
 */
void similarityBatch(const std::int32_t *const *queries,
                     std::size_t numQueries,
                     const double *const *rows, std::size_t numRows,
                     std::size_t n, double *out);

/**
 * Score numQueries int8 query rows against numRows int8 class rows
 * in one exact pass: out[q * numRows + r] = dotI8I8(queries[q],
 * rows[r], n). Bit-identical to the single-query kernel (integer
 * arithmetic; no rounding anywhere).
 */
void scoresBatchI8(const std::int8_t *const *queries,
                   std::size_t numQueries,
                   const std::int8_t *const *rows, std::size_t numRows,
                   std::size_t n, std::int64_t *out);

/**
 * acc[i] += scales[t] * rows[t][i] for every i < k, over t = 0 ..
 * count - 1 in that order: each lane i is one sequential sum, and a
 * product is rounded before it is added (no FMA contraction). The
 * fused score table's build and lookup (scales of +-1 or +-2, which
 * multiply exactly).
 */
void accumulateRows(double *acc, const double *const *rows,
                    const double *scales, std::size_t count,
                    std::size_t k);

namespace detail {

/** One implementation's function table (internal; see kernels.cpp). */
struct KernelTable
{
    Impl impl;
    std::int64_t (*dotInt)(const std::int32_t *, const std::int32_t *,
                           std::size_t);
    std::int64_t (*dotIntI8)(const std::int32_t *,
                             const std::int8_t *, std::size_t);
    std::int64_t (*dotI8I8)(const std::int8_t *, const std::int8_t *,
                            std::size_t);
    std::int64_t (*dotIntPackedWords)(const std::int32_t *,
                                      const std::uint64_t *,
                                      std::size_t);
    double (*dotIntReal)(const std::int32_t *, const double *,
                         std::size_t);
    double (*dotRealI8)(const double *, const std::int8_t *,
                        std::size_t);
    void (*mulIntReal)(const std::int32_t *, const double *, double *,
                       std::size_t);
    void (*addSignedI8)(std::int32_t *, const std::int32_t *,
                        const std::int8_t *, std::size_t);
    std::size_t (*matchCountWords)(const std::uint64_t *,
                                   const std::uint64_t *, std::size_t,
                                   std::size_t);
    void (*similarityBatch)(const std::int32_t *const *, std::size_t,
                            const double *const *, std::size_t,
                            std::size_t, double *);
    void (*scoresBatchI8)(const std::int8_t *const *, std::size_t,
                          const std::int8_t *const *, std::size_t,
                          std::size_t, std::int64_t *);
    void (*accumulateRows)(double *, const double *const *,
                           const double *, std::size_t, std::size_t);
};

/** The always-available scalar reference table. */
const KernelTable *scalarTable();

/** AVX2 table, or nullptr when not compiled in / not supported. */
const KernelTable *avx2Table();

/**
 * AVX-512 table, or nullptr when not compiled in / not supported.
 * Gated on avx512{f,bw,dq,vl}; within the table, matchCountWords
 * additionally upgrades itself to the VPOPCNTDQ variant when the CPU
 * has it (both variants are integer-exact, so the choice is
 * invisible to results). Double kernels are shared with the AVX2
 * table to keep one float accumulation order per ISA family.
 */
const KernelTable *avx512Table();

/** NEON table, or nullptr when not compiled in (non-aarch64). */
const KernelTable *neonTable();

} // namespace detail

} // namespace lookhd::hdc::kernels

#endif // LOOKHD_HDC_KERNELS_HPP
