/**
 * @file
 * Bit-width-quantized class model (the QuanHD direction, paper
 * ref. [62]).
 *
 * Between the full int32 class hypervectors and the 1-bit binary
 * model lies a spectrum: quantize each class hypervector's elements
 * to b bits (uniform, symmetric around zero, per-class scale). Memory
 * shrinks 32/b-fold; accuracy degrades gracefully because the
 * distributed representation tolerates per-element noise. This model
 * quantifies that tradeoff and gives deployments a knob beyond
 * binary-or-nothing.
 */

#ifndef LOOKHD_HDC_QUANTIZED_MODEL_HPP
#define LOOKHD_HDC_QUANTIZED_MODEL_HPP

#include <cstdint>
#include <vector>

#include "hdc/model.hpp"

namespace lookhd::hdc {

/** Class model with b-bit quantized hypervector elements. */
class QuantizedModel
{
  public:
    /**
     * Quantize a trained model to @p bits per element.
     * @pre 1 <= bits <= 16.
     *
     * bits == 1 keeps only the sign of each class element, but scores
     * the unbinarized query against it. It therefore does not rank
     * like the sign-binarized Hamming model
     * (QuantizedServingModel::scoresBatchBinary), which binarizes the
     * query too.
     */
    QuantizedModel(const ClassModel &model, std::size_t bits);

    Dim dim() const { return dim_; }
    std::size_t numClasses() const { return classes_.size(); }
    std::size_t bits() const { return bits_; }

    /** Quantized elements of one class (values in [-maxLevel, +maxLevel]). */
    const std::vector<std::int16_t> &classHv(std::size_t c) const
    {
        return classes_.at(c);
    }

    /** Per-class dequantization scale. */
    double scale(std::size_t c) const { return scales_.at(c); }

    /**
     * Normalized dot-product scores of a query (cosine ranking, as
     * the full model uses).
     */
    std::vector<double> scores(const IntHv &query) const;

    /** argmax of scores(). */
    std::size_t predict(const IntHv &query) const;

    /** Model size in bytes: bits per element, rounded up per class. */
    std::size_t sizeBytes() const;

  private:
    Dim dim_;
    std::size_t bits_;
    std::vector<std::vector<std::int16_t>> classes_;
    std::vector<double> scales_;
    /** Norm of each quantized class vector (for cosine ranking). */
    std::vector<double> norms_;
};

} // namespace lookhd::hdc

#endif // LOOKHD_HDC_QUANTIZED_MODEL_HPP
