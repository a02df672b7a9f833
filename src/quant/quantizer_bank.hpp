/**
 * @file
 * Quantization of a whole feature row.
 *
 * The paper calibrates one quantizer over the pooled feature values,
 * which works when all features share a range (its datasets are
 * normalized). Real sensor vectors often mix features with wildly
 * different scales; a per-feature bank fits an independent quantizer
 * per feature column so every feature uses all q levels. Both are a
 * QuantizerBank: the shared form stores its q-1 boundaries once, the
 * per-feature form stores q-1 per feature, and level() is the same
 * lookup either way.
 */

#ifndef LOOKHD_QUANT_QUANTIZER_BANK_HPP
#define LOOKHD_QUANT_QUANTIZER_BANK_HPP

#include <span>
#include <vector>

#include "data/dataset.hpp"
#include "quant/quantizer.hpp"

namespace lookhd::quant {

/** One quantizer per feature, or one shared by every feature. */
class QuantizerBank
{
  public:
    /**
     * Every one of @p numFeatures features uses @p shared.
     * @pre numFeatures > 0.
     */
    QuantizerBank(const Quantizer &shared, std::size_t numFeatures);

    /**
     * Feature f uses perFeature[f]. @pre at least one quantizer, all
     * with the same number of levels.
     */
    explicit QuantizerBank(const std::vector<Quantizer> &perFeature);

    /**
     * Fit on @p ds: one quantizer over every value of the dataset, or
     * one per feature column when @p perFeature.
     * @pre ds non-empty, levels >= 2.
     */
    static QuantizerBank fit(const data::Dataset &ds, std::size_t levels,
                             QuantizationKind kind, bool perFeature);

    std::size_t levels() const { return levels_; }
    std::size_t numFeatures() const { return numFeatures_; }

    /** Quantize a whole row. @pre row.size() == numFeatures(). */
    std::vector<std::size_t> levelsOf(std::span<const double> row) const;

    /**
     * levelsOf() into @p out. @pre row.size() == numFeatures() ==
     * out.size().
     */
    void levelsOf(std::span<const double> row,
                  std::span<std::size_t> out) const;

    /** The q-1 ascending boundaries of feature @p feature. */
    std::span<const double> boundaries(std::size_t feature) const;

  private:
    std::size_t levels_;
    std::size_t numFeatures_;
    /** 0 when shared, else levels_ - 1. */
    std::size_t stride_;
    /** The shared boundaries, or every feature's, feature-major. */
    std::vector<double> bounds_;
};

} // namespace lookhd::quant

#endif // LOOKHD_QUANT_QUANTIZER_BANK_HPP
