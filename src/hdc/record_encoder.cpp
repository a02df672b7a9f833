#include "hdc/record_encoder.hpp"

#include "util/check.hpp"

namespace lookhd::hdc {

RecordEncoder::RecordEncoder(std::shared_ptr<const LevelMemory> levels,
                             quant::Quantizer quantizer,
                             std::size_t num_features, util::Rng &rng)
    : levels_(std::move(levels)), quantizer_(std::move(quantizer)),
      ids_(levels_ ? levels_->dim() : 0, num_features, rng)
{
    LOOKHD_CHECK(levels_, "encoder needs levels");
    LOOKHD_CHECK(quantizer_.levels() == levels_->levels(),
                 "quantizer levels do not match level memory");
    LOOKHD_CHECK(num_features != 0, "encoder needs features");
}

IntHv
RecordEncoder::encode(std::span<const double> features) const
{
    LOOKHD_CHECK(features.size() == ids_.count(),
                 "feature vector width mismatch");
    IntHv acc(dim(), 0);
    for (std::size_t f = 0; f < features.size(); ++f) {
        const BipolarHv &level =
            levels_->at(quantizer_.level(features[f]));
        const BipolarHv &id = ids_.at(f);
        for (std::size_t i = 0; i < acc.size(); ++i)
            acc[i] += id[i] * level[i];
    }
    return acc;
}

} // namespace lookhd::hdc
