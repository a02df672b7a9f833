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
    for (std::size_t c = 0; c < chunks_.numChunks(); ++c) {
        out[c] = addressOf(
            levels.subspan(chunks_.begin(c), chunks_.length(c)),
            levels_->levels());
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
    std::array<const std::int32_t *, kRowsPerPass> rows;
    std::array<const std::int8_t *, kRowsPerPass> keys;
    std::array<hdc::IntHv, kRowsPerPass> lazy;
    for (std::size_t first = 0; first < addresses.size();
         first += kRowsPerPass) {
        const std::size_t count =
            std::min(kRowsPerPass, addresses.size() - first);
        for (std::size_t j = 0; j < count; ++j) {
            const std::size_t c = first + j;
            rows[j] = tableFor(c).row(addresses[c], lazy[j]).data();
            keys[j] = positions_.at(c).data();
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
