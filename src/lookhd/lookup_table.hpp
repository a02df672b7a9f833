/**
 * @file
 * Pre-stored encoded chunk hypervectors (paper Sec. III-C).
 *
 * The lookup table holds, for every possible address (every base-q
 * level combination of a chunk), the chunk's Eq. 2 encoding
 * H = L(l_0) + rho L(l_1) + ... + rho^{s-1} L(l_{s-1}). In hardware it
 * lives in BRAM at ceil(log2(2s+1)) bits per element; here it is one
 * contiguous buffer of int8 rows. That is exact: an element is a sum
 * of s bipolar entries, so it lies in [-s, s], and s <= 63 because
 * q >= 2 and q^s must fit 64 bits (addressSpace).
 *
 * The table is only materialized when q^s rows fit a memory budget;
 * encodeAddress() computes the identical row on the fly otherwise, so
 * experiments can sweep chunk sizes past what any real table would
 * hold while staying bit-exact with the lookup semantics.
 */

#ifndef LOOKHD_LOOKHD_LOOKUP_TABLE_HPP
#define LOOKHD_LOOKHD_LOOKUP_TABLE_HPP

#include <memory>
#include <span>
#include <vector>

#include "hdc/item_memory.hpp"
#include "lookhd/codebook.hpp"

namespace lookhd {

/** Encoded-chunk store for one chunk length. */
class ChunkLookupTable
{
  public:
    /**
     * @param levels Level memory the encodings draw from.
     * @param chunk_len Number of features in this chunk (s).
     * @param materialize_budget_bytes Materialize the dense table only
     *        if it fits this budget; 0 forces on-the-fly computation.
     * @throws util::ContractViolation unless every level element is
     *         +-1 (the int8 rows hold sums of bipolar entries only).
     */
    ChunkLookupTable(std::shared_ptr<const hdc::LevelMemory> levels,
                     std::size_t chunk_len,
                     std::size_t materialize_budget_bytes);

    hdc::Dim dim() const { return levels_->dim(); }
    std::size_t chunkLen() const { return chunkLen_; }
    std::size_t quantLevels() const { return levels_->levels(); }

    /** Number of addresses q^s. */
    Address addressSpaceSize() const { return space_; }

    /** Whether the dense table is resident in memory. */
    bool materialized() const { return !rows_.empty(); }

    /**
     * Bytes of the dense table (whether or not materialized): one
     * per element.
     */
    std::size_t tableBytes() const;

    /**
     * The encoded chunk hypervector at @p addr, dim() int8 elements.
     * Points into the dense table when materialized; otherwise fills
     * @p scratch and points into it.
     */
    std::span<const std::int8_t>
    row(Address addr, std::vector<std::int8_t> &scratch) const;

    /**
     * The Eq. 2 encoding of @p addr computed from the level memory in
     * int32, independently of the int8 rows (the reference they are
     * tested against).
     */
    hdc::IntHv encodeAddress(Address addr) const;

  private:
    /** Every row at once, each from a shorter chunk's rows. */
    void buildRows();

    /** The Eq. 2 encoding of @p addr into out[0, dim()). */
    void encodeRow(Address addr, std::int8_t *out) const;

    std::shared_ptr<const hdc::LevelMemory> levels_;
    std::size_t chunkLen_;
    Address space_;
    /** Dense table, row a at [a * dim(), (a + 1) * dim()); empty
     * unless materialized. */
    std::vector<std::int8_t> rows_;
};

} // namespace lookhd

#endif // LOOKHD_LOOKHD_LOOKUP_TABLE_HPP
