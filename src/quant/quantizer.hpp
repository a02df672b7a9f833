/**
 * @file
 * Feature-value quantizers.
 *
 * HDC encoders do not consume raw feature values; each value is first
 * mapped to one of q discrete levels, and the level selects a level
 * hypervector. A fitted quantizer is fully defined by its q-1
 * ascending boundaries. The paper contrasts two ways of placing them:
 *
 *  - linear: q equal-width bins over [f_min, f_max] (the conventional
 *    choice, Sec. II-A);
 *  - equalized: boundaries at empirical quantiles so every level
 *    receives the same share of the training values (Sec. III-B,
 *    Fig. 3) - the key enabler for small q in LookHD.
 */

#ifndef LOOKHD_QUANT_QUANTIZER_HPP
#define LOOKHD_QUANT_QUANTIZER_HPP

#include <algorithm>
#include <cstddef>
#include <span>
#include <vector>

namespace lookhd::quant {

/** Which boundary-placement policy a fit uses. */
enum class QuantizationKind
{
    kLinear,    ///< Equal-width bins (conventional HDC).
    kEqualized, ///< Quantile bins (the paper's proposal).
};

/**
 * Shared binary search over sorted boundaries: number of boundaries
 * strictly below or equal, i.e. the bin index of @p value.
 */
inline std::size_t
binOf(std::span<const double> bounds, double value)
{
    return static_cast<std::size_t>(
        std::upper_bound(bounds.begin(), bounds.end(), value) -
        bounds.begin());
}

/**
 * A fitted quantizer: its ascending boundaries. Values below
 * boundary 0 map to level 0; values at or above boundary i map to
 * level i+1 or higher. Saving the boundaries saves the quantizer.
 */
class Quantizer
{
  public:
    /**
     * @param bounds Ascending internal boundaries; levels() is
     *        bounds.size() + 1. @pre at least one boundary.
     */
    explicit Quantizer(std::vector<double> bounds);

    /** Level index in [0, levels()) for a value. */
    std::size_t level(double value) const { return binOf(bounds_, value); }

    /** Number of quantization levels q. */
    std::size_t levels() const { return bounds_.size() + 1; }

    /** The q-1 internal bin boundaries in ascending order. */
    const std::vector<double> &boundaries() const { return bounds_; }

    /** Quantize a whole feature vector. */
    std::vector<std::size_t> levelsOf(std::span<const double> values) const;

  private:
    std::vector<double> bounds_;
};

/**
 * Linear fit: q equal-width bins over [min, max] of @p sample. A
 * constant sample has no width to split; its boundaries are all
 * +infinity, so every finite value maps to level 0.
 * @pre sample non-empty, levels >= 2.
 */
Quantizer fitLinear(std::span<const double> sample, std::size_t levels);

/**
 * Equalized fit: boundary i at the i/q empirical quantile of
 * @p sample, so each level captures (approximately) an equal number
 * of the sample's values. Ties collapse bins; the emptied bin simply
 * never fires. @pre sample non-empty, levels >= 2.
 */
Quantizer fitEqualized(std::span<const double> sample,
                       std::size_t levels);

/**
 * Per-level occupancy of @p sample under a fitted quantizer: how
 * many sample values map to each level. The shape of this profile
 * is the paper's Fig. 3 argument - equalized quantization keeps it
 * flat where linear quantization concentrates mass in a few levels.
 */
std::vector<std::size_t> occupancy(const Quantizer &q,
                                   std::span<const double> sample);

/**
 * Normalized Shannon entropy of an occupancy profile in [0, 1]:
 * 1 means perfectly equalized levels, 0 means all mass in one level
 * (or fewer than 2 levels / an empty profile).
 */
double occupancyEntropy(const std::vector<std::size_t> &counts);

} // namespace lookhd::quant

#endif // LOOKHD_QUANT_QUANTIZER_HPP
