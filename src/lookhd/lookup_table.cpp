#include "lookhd/lookup_table.hpp"

#include <algorithm>

#include "util/check.hpp"

namespace lookhd {

namespace {

/**
 * dst[j] = src[j] + hv[(j - shift) mod D] for every j < D: a row plus
 * rho^shift of a level hypervector, as hdc::addRotated adds it. @p dst
 * may be @p src.
 */
void
addRotatedRow(std::int8_t *dst, const std::int8_t *src,
              const hdc::BipolarHv &hv, std::size_t shift)
{
    const std::size_t d = hv.size();
    shift %= d;
    for (std::size_t j = shift; j < d; ++j)
        dst[j] = static_cast<std::int8_t>(src[j] + hv[j - shift]);
    for (std::size_t j = 0; j < shift; ++j)
        dst[j] = static_cast<std::int8_t>(src[j] + hv[j + d - shift]);
}

} // namespace

ChunkLookupTable::ChunkLookupTable(
    std::shared_ptr<const hdc::LevelMemory> levels, std::size_t chunk_len,
    std::size_t materialize_budget_bytes)
    : levels_(std::move(levels)), chunkLen_(chunk_len)
{
    LOOKHD_CHECK(levels_, "lookup table needs a level memory");
    LOOKHD_CHECK(chunk_len != 0, "chunk length must be nonzero");
    space_ = addressSpace(levels_->levels(), chunkLen_);
    for (std::size_t l = 0; l < levels_->levels(); ++l) {
        const hdc::BipolarHv &hv = levels_->at(l);
        LOOKHD_CHECK(std::all_of(hv.begin(), hv.end(),
                                 [](std::int8_t v) {
                                     return v == 1 || v == -1;
                                 }),
                     "chunk rows need bipolar level hypervectors");
    }

    if (materialize_budget_bytes > 0 &&
        tableFits(levels_->levels(), chunkLen_, dim(),
                  materialize_budget_bytes))
        buildRows();
}

void
ChunkLookupTable::buildRows()
{
    const std::size_t d = dim();
    const std::size_t q = quantLevels();
    rows_.resize(static_cast<std::size_t>(space_) * d);
    // Chunks of one feature: row l is L(l).
    for (std::size_t l = 0; l < q; ++l)
        std::copy(levels_->at(l).begin(), levels_->at(l).end(),
                  rows_.begin() + static_cast<std::ptrdiff_t>(l * d));
    // From length k to k + 1: the first q^k rows hold every chunk of
    // length k, and row a + l * q^k appends level l at position k,
    // which adds rho^k L(l) to row a. Level 0 goes last, in place, so
    // the other levels still read the length-k rows.
    std::size_t prefixes = q;
    for (std::size_t k = 1; k < chunkLen_; ++k, prefixes *= q) {
        for (std::size_t l = q; l-- > 0;) {
            for (std::size_t a = 0; a < prefixes; ++a)
                addRotatedRow(&rows_[(a + l * prefixes) * d],
                              &rows_[a * d], levels_->at(l), k);
        }
    }
}

std::size_t
ChunkLookupTable::tableBytes() const
{
    return static_cast<std::size_t>(util::checkedMul(space_, dim()));
}

std::span<const std::int8_t>
ChunkLookupTable::row(Address addr, std::vector<std::int8_t> &scratch) const
{
    LOOKHD_CHECK_BOUNDS(addr, space_);
    if (materialized())
        return {rows_.data() + static_cast<std::size_t>(addr) * dim(),
                dim()};
    scratch.resize(dim());
    encodeRow(addr, scratch.data());
    return scratch;
}

void
ChunkLookupTable::encodeRow(Address addr, std::int8_t *out) const
{
    std::fill_n(out, dim(), std::int8_t{0});
    for (std::size_t j = 0; j < chunkLen_; ++j) {
        addRotatedRow(out, out, levels_->at(addr % quantLevels()), j);
        addr /= quantLevels();
    }
}

hdc::IntHv
ChunkLookupTable::encodeAddress(Address addr) const
{
    std::vector<std::size_t> lvls(chunkLen_);
    decodeAddress(addr, levels_->levels(), lvls);
    hdc::IntHv acc(dim(), 0);
    for (std::size_t j = 0; j < chunkLen_; ++j)
        hdc::addRotated(acc, levels_->at(lvls[j]), j);
    return acc;
}

} // namespace lookhd
