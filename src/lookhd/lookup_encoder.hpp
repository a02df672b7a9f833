/**
 * @file
 * LookHD lookup-based encoder (paper Sec. III, Eqs. 2-3, Fig. 5).
 *
 * Pipeline per data point:
 *   1. quantize each feature to a level (codebook),
 *   2. concatenate each chunk's codebooks into a direct address,
 *   3. fetch the pre-stored encoded chunk hypervector,
 *   4. bind each chunk hypervector with its position key P_i and sum.
 *
 * The result is bit-exact with encoding each chunk through Eq. 2
 * directly - the lookup is pure computation reuse.
 */

#ifndef LOOKHD_LOOKHD_LOOKUP_ENCODER_HPP
#define LOOKHD_LOOKHD_LOOKUP_ENCODER_HPP

#include <memory>
#include <span>

#include "hdc/encoder.hpp"
#include "hdc/item_memory.hpp"
#include "lookhd/chunking.hpp"
#include "lookhd/lookup_table.hpp"
#include "quant/quantizer_bank.hpp"

namespace lookhd {

/** Tunables of the lookup encoder. */
struct LookupEncoderConfig
{
    /**
     * Memory budget for materializing dense chunk tables, counted at
     * one byte per element (the tables store int8 rows, so 64 MB
     * holds 4x the addresses int32 rows did). Tables beyond the
     * budget fall back to on-the-fly row computation: identical
     * results, only memory and speed move.
     */
    std::size_t materializeBudgetBytes = std::size_t{64} << 20;
};

/** Chunked, lookup-backed encoder with position-key aggregation. */
class LookupEncoder
{
  public:
    /**
     * @param levels Shared level memory (same alphabets as baseline).
     * @param bank Quantization of a feature row: levels() must match
     *        the level memory, numFeatures() the chunk spec.
     * @param chunks Chunking of the feature vector.
     * @param rng Source for the m position hypervectors P_1..P_m.
     */
    LookupEncoder(std::shared_ptr<const hdc::LevelMemory> levels,
                  quant::QuantizerBank bank, ChunkSpec chunks,
                  util::Rng &rng, LookupEncoderConfig config = {});

    /**
     * Restore variant (deserialization): position keys are supplied
     * explicitly instead of generated. @pre positions.count() ==
     * chunks.numChunks() and positions.dim() == levels->dim().
     * @throws util::ContractViolation unless every key and level
     *         element is +-1.
     */
    LookupEncoder(std::shared_ptr<const hdc::LevelMemory> levels,
                  quant::QuantizerBank bank, ChunkSpec chunks,
                  hdc::KeyMemory positions,
                  LookupEncoderConfig config = {});

    hdc::Dim dim() const { return levels_->dim(); }
    const ChunkSpec &chunks() const { return chunks_; }
    std::size_t quantLevels() const { return levels_->levels(); }

    /** Quantize a raw feature vector into level indices. */
    std::vector<std::size_t>
    quantize(std::span<const double> features) const;

    /** Per-chunk direct addresses of a raw feature vector. */
    std::vector<Address>
    chunkAddresses(std::span<const double> features) const;

    /** Per-chunk addresses of pre-quantized levels. */
    std::vector<Address>
    chunkAddressesOfLevels(std::span<const std::size_t> levels) const;

    /** Full LookHD encoding (Eq. 3) of a raw feature vector. */
    hdc::IntHv encode(std::span<const double> features) const;

    /**
     * encode() into @p out, reusing its storage and this thread's
     * level and address buffers: once @p out has held one encoding,
     * a call allocates nothing. The per-row serving path.
     */
    void encodeInto(std::span<const double> features,
                    hdc::IntHv &out) const;

    /** Eq. 3 aggregation from per-chunk addresses. */
    hdc::IntHv
    encodeFromAddresses(std::span<const Address> addresses) const;

    /** The lookup table serving chunk @p c. */
    const ChunkLookupTable &tableFor(std::size_t c) const;

    /** Position hypervectors P_1..P_m. */
    const hdc::KeyMemory &positionKeys() const { return positions_; }

    const hdc::LevelMemory &levelMemory() const { return *levels_; }

    /** The quantization of a feature row. */
    const quant::QuantizerBank &quantizerBank() const { return bank_; }

    /** Total bytes of all materialized tables. */
    std::size_t materializedBytes() const;

  private:
    /** chunkAddressesOfLevels() into @p out (numChunks() entries). */
    void addressesInto(std::span<const std::size_t> levels,
                       std::span<Address> out) const;

    /**
     * Eq. 3 into @p out (dim() elements): every int8 chunk row bound
     * with its packed position key and summed by one register-blocked
     * kernel pass per kRowsPerPass chunks.
     */
    void sumChunkRows(std::span<const Address> addresses,
                      std::int32_t *out) const;

    std::shared_ptr<const hdc::LevelMemory> levels_;
    quant::QuantizerBank bank_;
    ChunkSpec chunks_;
    hdc::KeyMemory positions_;
    /**
     * Position key c as ceil(dim() / 64) sign words (bit i set iff
     * P_c[i] = +1, the PackedHv convention), key after key.
     */
    std::vector<std::uint64_t> keySigns_;
    /** Table for full-size chunks (shared by all of them). */
    std::shared_ptr<ChunkLookupTable> fullTable_;
    /** Table for the trailing short chunk, if n % r != 0. */
    std::shared_ptr<ChunkLookupTable> tailTable_;
};

} // namespace lookhd

#endif // LOOKHD_LOOKHD_LOOKUP_ENCODER_HPP
