/**
 * @file
 * Codebook addressing (paper Sec. III-C, Fig. 5).
 *
 * Each quantized level gets a log2(q)-bit codebook; the concatenation
 * of a chunk's codebooks is a direct address into the memory holding
 * the pre-stored encoded chunk hypervectors. This replaces an
 * associative lookup with a plain memory access.
 *
 * For general q, the concatenation is equivalent to reading the level
 * sequence as a base-q number; when q is a power of two the base-q
 * digits coincide with bit fields, which is the hardware view.
 */

#ifndef LOOKHD_LOOKHD_CODEBOOK_HPP
#define LOOKHD_LOOKHD_CODEBOOK_HPP

#include <cstdint>
#include <span>

namespace lookhd {

/** Chunk address type. */
using Address = std::uint64_t;

/** Bits per codebook: ceil(log2(q)). @pre q >= 2. */
std::size_t codebookBits(std::size_t q);

/**
 * Address of a chunk's quantized levels: level[0] is the least
 * significant base-q digit. @pre every level < q, and q^levels.size()
 * fits in 64 bits.
 */
Address addressOf(std::span<const std::size_t> levels, std::size_t q);

/**
 * Bit-concatenation address used by the hardware when q is a power of
 * two: level[j] occupies bits [j*b, (j+1)*b) with b = log2(q).
 * Identical to addressOf() in that case.
 */
Address bitAddressOf(std::span<const std::size_t> levels, std::size_t q);

/** Decode an address back into level indices (inverse of addressOf). */
void decodeAddress(Address addr, std::size_t q,
                   std::span<std::size_t> levels_out);

/**
 * Number of distinct addresses for a chunk: q^r, computed with
 * util::checkedMulPow. @throws util::ContractViolation if it does not
 * fit in 64 bits.
 */
Address addressSpace(std::size_t q, std::size_t r);

/**
 * Whether a q^r-entry table of D int8 elements (one byte each, as
 * ChunkLookupTable stores them) fits within @p budget_bytes (used to
 * pick materialized vs on-the-fly encoding).
 */
bool tableFits(std::size_t q, std::size_t r, std::size_t dim,
               std::size_t budget_bytes);

} // namespace lookhd

#endif // LOOKHD_LOOKHD_CODEBOOK_HPP
