#include "quant/quantizer_bank.hpp"

#include "util/check.hpp"

namespace lookhd::quant {

QuantizerBank::QuantizerBank(const Quantizer &shared,
                             std::size_t numFeatures)
    : levels_(shared.levels()), numFeatures_(numFeatures), stride_(0),
      bounds_(shared.boundaries())
{
    LOOKHD_CHECK(numFeatures_ > 0, "bank needs at least one feature");
}

QuantizerBank::QuantizerBank(const std::vector<Quantizer> &perFeature)
    : levels_(perFeature.empty() ? 0 : perFeature.front().levels()),
      numFeatures_(perFeature.size()), stride_(levels_ - 1)
{
    LOOKHD_CHECK(!perFeature.empty(), "bank needs at least one feature");
    bounds_.reserve(numFeatures_ * stride_);
    for (const Quantizer &q : perFeature) {
        LOOKHD_CHECK(q.levels() == levels_, "boundary count mismatch");
        bounds_.insert(bounds_.end(), q.boundaries().begin(),
                       q.boundaries().end());
    }
}

QuantizerBank
QuantizerBank::fit(const data::Dataset &ds, std::size_t levels,
                   QuantizationKind kind, bool perFeature)
{
    LOOKHD_CHECK(!ds.empty(), "cannot fit bank on empty dataset");
    const auto fitOne = [&](std::span<const double> sample) {
        return kind == QuantizationKind::kEqualized
                   ? fitEqualized(sample, levels)
                   : fitLinear(sample, levels);
    };
    if (!perFeature)
        return QuantizerBank(fitOne(ds.allValues()), ds.numFeatures());

    std::vector<std::vector<double>> columns(ds.numFeatures());
    for (auto &col : columns)
        col.reserve(ds.size());
    for (std::size_t i = 0; i < ds.size(); ++i) {
        const auto row = ds.row(i);
        for (std::size_t f = 0; f < row.size(); ++f)
            columns[f].push_back(row[f]);
    }
    std::vector<Quantizer> fitted;
    fitted.reserve(columns.size());
    for (const auto &col : columns)
        fitted.push_back(fitOne(col));
    return QuantizerBank(fitted);
}

std::vector<std::size_t>
QuantizerBank::levelsOf(std::span<const double> row) const
{
    LOOKHD_CHECK(row.size() == numFeatures_, "row width mismatch");
    const std::span<const double> all(bounds_);
    std::vector<std::size_t> out(row.size());
    for (std::size_t f = 0; f < row.size(); ++f)
        out[f] = binOf(all.subspan(f * stride_, levels_ - 1), row[f]);
    return out;
}

std::span<const double>
QuantizerBank::boundaries(std::size_t feature) const
{
    LOOKHD_CHECK_BOUNDS(feature, numFeatures_);
    return std::span<const double>(bounds_).subspan(feature * stride_,
                                                    levels_ - 1);
}

} // namespace lookhd::quant
