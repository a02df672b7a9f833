#include "lookhd/lookup_encoder.hpp"

#include <algorithm>
#include <array>
#include <stdexcept>

#include "hdc/kernels.hpp"
#include "obs/obs.hpp"
#include "util/check.hpp"

namespace lookhd {

namespace {

/**
 * Chunk rows summed per kernel call: each block of the sum is read
 * and written once per call, so PHYSICAL (11 chunks) takes one pass.
 */
constexpr std::size_t kRowsPerPass = 16;

/** Sign words per packed key of @p dim elements. */
constexpr std::size_t
keyWordsOf(std::size_t dim)
{
    return (dim + 63) / 64;
}

/**
 * Appends the sign words of bipolar @p key to @p out: bit i set iff
 * key[i] = +1. Eight bytes at a time and without a branch on the key:
 * +1 is 0x01 and -1 is 0xFF, so a byte's top bit is its inverted sign,
 * and one multiply gathers the eight top bits into the top byte.
 */
void
appendSignWords(const hdc::BipolarHv &key, std::vector<std::uint64_t> &out)
{
    constexpr std::uint64_t kOnes = 0x0101010101010101;
    const std::size_t first = out.size();
    out.resize(first + keyWordsOf(key.size()), 0);
    std::uint64_t *words = out.data() + first;
    std::uint64_t notBipolar = 0;
    std::size_t i = 0;
    for (; i + 8 <= key.size(); i += 8) {
        std::uint64_t bytes = 0;
        for (std::size_t b = 0; b < 8; ++b)
            bytes |= std::uint64_t{static_cast<std::uint8_t>(key[i + b])}
                     << (8 * b);
        const std::uint64_t top = (bytes >> 7) & kOnes;
        notBipolar |= bytes ^ (kOnes | top * 0xFE);
        const std::uint64_t negative = (top * 0x0102040810204080) >> 56;
        words[i / 64] |= (~negative & 0xFF) << (i % 64);
    }
    for (; i < key.size(); ++i) {
        notBipolar |= key[i] != 1 && key[i] != -1;
        words[i / 64] |= std::uint64_t{key[i] > 0} << (i % 64);
    }
    LOOKHD_CHECK(notBipolar == 0, "position keys must be bipolar");
}

} // namespace

LookupEncoder::LookupEncoder(
    std::shared_ptr<const hdc::LevelMemory> levels,
    quant::QuantizerBank bank, ChunkSpec chunks, util::Rng &rng,
    LookupEncoderConfig config)
    : LookupEncoder(levels, std::move(bank), chunks,
                    hdc::KeyMemory(levels ? levels->dim() : 0,
                                   chunks.numChunks(), rng),
                    config)
{
}

LookupEncoder::LookupEncoder(
    std::shared_ptr<const hdc::LevelMemory> levels,
    quant::QuantizerBank bank, ChunkSpec chunks,
    hdc::KeyMemory positions, LookupEncoderConfig config)
    : levels_(std::move(levels)), bank_(std::move(bank)),
      chunks_(chunks), positions_(std::move(positions))
{
    LOOKHD_CHECK(levels_, "encoder needs levels");
    LOOKHD_CHECK(bank_.levels() == levels_->levels(),
                 "quantizer levels do not match level memory");
    LOOKHD_CHECK(bank_.numFeatures() == chunks_.numFeatures(),
                 "quantizer feature count does not match chunk spec");
    LOOKHD_CHECK(positions_.count() == chunks_.numChunks(),
                 "position key count does not match chunk count");
    LOOKHD_CHECK(positions_.dim() == levels_->dim(),
                 "position key dimensionality mismatch");
    keySigns_.reserve(positions_.count() * keyWordsOf(dim()));
    for (std::size_t c = 0; c < positions_.count(); ++c)
        appendSignWords(positions_.at(c), keySigns_);

    const std::size_t full_len =
        std::min(chunks_.chunkSize(), chunks_.numFeatures());
    fullTable_ = std::make_shared<ChunkLookupTable>(
        levels_, full_len, config.materializeBudgetBytes);
    if (!chunks_.uniform()) {
        const std::size_t tail_len =
            chunks_.length(chunks_.numChunks() - 1);
        if (tail_len != full_len) {
            tailTable_ = std::make_shared<ChunkLookupTable>(
                levels_, tail_len, config.materializeBudgetBytes);
        }
    }
    LOOKHD_COUNT_ADD("lookhd.table.builds", 1);
    LOOKHD_GAUGE_SET("lookhd.table.address_space",
                     fullTable_->addressSpaceSize());
    LOOKHD_GAUGE_SET("lookhd.table.materialized_bytes",
                     materializedBytes());
}

std::vector<std::size_t>
LookupEncoder::quantize(std::span<const double> features) const
{
    LOOKHD_CHECK(features.size() == chunks_.numFeatures(),
                 "feature vector width mismatch");
    return bank_.levelsOf(features);
}

std::vector<Address>
LookupEncoder::chunkAddresses(std::span<const double> features) const
{
    return chunkAddressesOfLevels(quantize(features));
}

std::vector<Address>
LookupEncoder::chunkAddressesOfLevels(
    std::span<const std::size_t> levels) const
{
    std::vector<Address> out(chunks_.numChunks());
    addressesInto(levels, out);
    return out;
}

void
LookupEncoder::addressesInto(std::span<const std::size_t> levels,
                             std::span<Address> out) const
{
    LOOKHD_CHECK(levels.size() == chunks_.numFeatures(),
                 "level vector width mismatch");
    // addressOf by Horner's rule, most significant digit first. It
    // cannot overflow: a chunk is at most r long, and the tables'
    // addressSpace proved that q^r fits 64 bits.
    const std::size_t q = levels_->levels();
    for (std::size_t c = 0; c < chunks_.numChunks(); ++c) {
        const std::size_t *digits = levels.data() + chunks_.begin(c);
        Address addr = 0;
        for (std::size_t j = chunks_.length(c); j-- > 0;) {
            LOOKHD_CHECK(digits[j] < q, "level index out of range");
            addr = addr * q + digits[j];
        }
        out[c] = addr;
    }
}

hdc::IntHv
LookupEncoder::encode(std::span<const double> features) const
{
    hdc::IntHv out;
    encodeInto(features, out);
    return out;
}

void
LookupEncoder::encodeInto(std::span<const double> features,
                          hdc::IntHv &out) const
{
    LOOKHD_SPAN("lookhd.encode", "encode");
    LOOKHD_COUNT_ADD("lookhd.encode.calls", 1);
    LOOKHD_CHECK(features.size() == chunks_.numFeatures(),
                 "feature vector width mismatch");
    thread_local std::vector<std::size_t> levels;
    thread_local std::vector<Address> addresses;
    levels.resize(features.size());
    bank_.levelsOf(features, levels);
    addresses.resize(chunks_.numChunks());
    addressesInto(levels, addresses);
    out.resize(dim());
    sumChunkRows(addresses, out.data());
}

hdc::IntHv
LookupEncoder::encodeFromAddresses(
    std::span<const Address> addresses) const
{
    hdc::IntHv acc(dim());
    sumChunkRows(addresses, acc.data());
    return acc;
}

void
LookupEncoder::sumChunkRows(std::span<const Address> addresses,
                            std::int32_t *out) const
{
    LOOKHD_CHECK(addresses.size() == chunks_.numChunks(),
                 "address count mismatch");
    std::fill_n(out, dim(), 0);
    // A row of a table too large to materialize is computed into its
    // slot of `lazy`; a materialized row is read in place.
    std::array<const std::int8_t *, kRowsPerPass> rows;
    std::array<const std::uint64_t *, kRowsPerPass> keys;
    std::array<std::vector<std::int8_t>, kRowsPerPass> lazy;
    for (std::size_t first = 0; first < addresses.size();
         first += kRowsPerPass) {
        const std::size_t count =
            std::min(kRowsPerPass, addresses.size() - first);
        for (std::size_t j = 0; j < count; ++j) {
            const std::size_t c = first + j;
            rows[j] = tableFor(c).row(addresses[c], lazy[j]).data();
            keys[j] = keySigns_.data() + c * keyWordsOf(dim());
        }
        hdc::kernels::addSignedRows(out, rows.data(), keys.data(),
                                    count, dim());
    }
}

const ChunkLookupTable &
LookupEncoder::tableFor(std::size_t c) const
{
    LOOKHD_CHECK_BOUNDS(c, chunks_.numChunks());
    if (tailTable_ && c == chunks_.numChunks() - 1)
        return *tailTable_;
    return *fullTable_;
}

std::size_t
LookupEncoder::materializedBytes() const
{
    std::size_t bytes = 0;
    if (fullTable_->materialized())
        bytes += fullTable_->tableBytes();
    if (tailTable_ && tailTable_->materialized())
        bytes += tailTable_->tableBytes();
    return bytes;
}

} // namespace lookhd
