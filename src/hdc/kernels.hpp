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
 *  - mulIntReal: the element-wise product of compressed-model
 *    unbinding;
 *  - addSignedRows: the key-signed sum of many int8 chunk rows into
 *    int32 sums in one register-blocked pass, each key a sign-packed
 *    bit row (the lookup encoder's Eq. 3 bind + sum);
 *  - quantizeI8: an int32 query row to int8 at its own max-abs/127
 *    scale (the int8 serving path's per-request quantization);
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
 * exact integer kernels and quantizeI8, whose lanes never meet, so
 * widening dispatch cannot perturb float scores.) accumulateRows
 * runs its vector lanes across the k classes, never along the sum,
 * so every lane is one sequential sum and all implementations agree
 * by construction.
 *
 * Why the int8 serving path is bit-identical across implementations
 * (and to the per-chunk and scalar-loop code these kernels replaced):
 *  - addSignedRows adds +-row[i] for every row, and integer addition
 *    is exact and associative, so any blocking, lane order or key
 *    application (a branch-free negate, vpsignb, a masked subtract)
 *    gives the same int32 sums. A chunk-row element is a sum of r <= 63
 *    bipolar entries, so it lies in [-63, 63] and holds in int8 (and
 *    its negation too); the vector tables sum the signed bytes in
 *    int16 lanes, which stay exact for 258 rows of |v| <= 127 (258 *
 *    127 = 32766), and widen them into the int32 sums at least every
 *    256 rows, so every count gives the scalar sums;
 *  - quantizeI8 computes every element as one fixed IEEE expression,
 *    int(double(v) * inv + copysign(0.5, double(v) * inv)), with a
 *    separate multiply and add (no FMA contraction: every kernel TU
 *    is built with -ffp-contract=off) and truncation toward zero;
 *    vector lanes evaluate that expression element by element, and
 *    the max-abs reduction is an exact integer maximum;
 *  - scoresBatchI8 accumulates int8 x int8 products in int32 lanes
 *    that are drained into int64 long before they could wrap, so
 *    tiling four class rows per widened query block changes only
 *    which loads are shared, never a sum (the vector dotI8I8 is the
 *    same tile with one row).
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

/**
 * acc[i] += sum over t < count of (bit i of signs[t] set ? rows[t][i]
 * : -rows[t][i]), for every i < n. Bit i lives in signs[t][i / 64] >>
 * (i % 64) (the PackedHv convention: set = +1); bits at and above n
 * are ignored. @pre every |rows[t][i]| <= 127 and the sums fit int32.
 * The encoder's Eq. 3 aggregation: each block of dimensions is read
 * and written once however many rows are summed into it.
 */
void addSignedRows(std::int32_t *acc, const std::int8_t *const *rows,
                   const std::uint64_t *const *signs, std::size_t count,
                   std::size_t n);

/**
 * Quantize @p n int32 values to int8 at their own max-abs/127 scale.
 * Returns scale = maxabs / 127.0, or 1.0 when every value is zero,
 * and writes out[i] = clamp(int(r + copysign(0.5, r)), -127, 127)
 * with r = double(row[i]) * (1.0 / scale): round half away from
 * zero, truncating toward zero, one IEEE multiply and one add per
 * element (the int8 serving path's query quantization).
 */
double quantizeI8(const std::int32_t *row, std::size_t n,
                  std::int8_t *out);

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
 * arithmetic; no rounding anywhere). The vector versions widen each
 * query block once and use it for four class rows at a time.
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

/**
 * Rows a vector addSignedRows sums in int16 lanes before it widens
 * them into the int32 sums: 256 * 127 = 32512 fits int16.
 */
inline constexpr std::size_t kRowsPerWiden = 256;

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
    void (*addSignedRows)(std::int32_t *, const std::int8_t *const *,
                          const std::uint64_t *const *, std::size_t,
                          std::size_t);
    double (*quantizeI8)(const std::int32_t *, std::size_t,
                         std::int8_t *);
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
 * invisible to results). Double accumulations are shared with the
 * AVX2 table to keep one float accumulation order per ISA family.
 */
const KernelTable *avx512Table();

/** NEON table, or nullptr when not compiled in (non-aarch64). */
const KernelTable *neonTable();

} // namespace detail

} // namespace lookhd::hdc::kernels

#endif // LOOKHD_HDC_KERNELS_HPP
