/**
 * @file
 * Quantized serving forms of a trained classifier.
 *
 * The paper's FPGA result comes from scoring low-bit class models
 * with integer/popcount arithmetic instead of float MACs. This
 * module derives exactly those forms from a trained model at save
 * (or explicit quantize()) time:
 *
 *  - int8: every effective float class row (normalized class
 *    hypervector, or key-bound compressed-group product) is scaled
 *    by its own max-abs/127 factor and rounded to int8; queries are
 *    quantized the same way per request. A score is then one exact
 *    dotI8I8 kernel call times the two scales.
 *  - binary: the sign of each effective row, packed 64 dims per
 *    word (hdc::PackedHv); a score is one popcount kernel call
 *    turned into the +-1 dot 2 * matches - D. This is the
 *    sign-binarized Hamming model of prior binary HDC (Sec. VII):
 *    2 * matches - D is strictly monotone in the Hamming fraction.
 *
 * Both forms are always materialized together (the pair costs
 * ~9 bits per dimension per class). Scoring is bit-identical across
 * kernel Impls because every kernel involved is exact integer
 * arithmetic; the only doubles appear in the final per-score scalar
 * multiply, which is identical on every path. Accuracy relative to
 * the float path is enforced by bench_quantized_predict's gated
 * accuracy-delta metrics, not assumed.
 */

#ifndef LOOKHD_LOOKHD_QUANTIZED_INFERENCE_HPP
#define LOOKHD_LOOKHD_QUANTIZED_INFERENCE_HPP

#include <cstdint>
#include <optional>
#include <string_view>
#include <vector>

#include "hdc/bitpack.hpp"
#include "hdc/model.hpp"
#include "lookhd/compressed_model.hpp"

namespace lookhd {

/** Arithmetic a classifier serves predictions with. */
enum class Precision
{
    kFloat64 = 0, ///< Double accumulation (the exact float path).
    kInt8 = 1,    ///< Per-row-scaled int8 rows, integer dot products.
    kBinary = 2,  ///< Sign-packed rows, popcount scoring.
};

/** Stable lowercase name ("float64", "int8", "binary"). */
const char *precisionName(Precision p);

/** Inverse of precisionName(); nullopt for unknown names. */
std::optional<Precision> precisionFromName(std::string_view name);

/**
 * The int8 + binary serving forms of one trained model's effective
 * class rows. Immutable after construction.
 */
class QuantizedServingModel
{
  public:
    /**
     * Assemble from explicit parts (deserialization).
     * @param dim Hypervector dimensionality (> 0).
     * @param rows k x dim int8 class rows, row-major; elements must
     *        lie in [-127, 127] (-128 is never produced by
     *        quantization and is rejected as corruption).
     * @param scales One positive finite scale per class.
     * @param binary One packed sign row of dimensionality dim per
     *        class.
     */
    QuantizedServingModel(hdc::Dim dim, std::vector<std::int8_t> rows,
                   std::vector<double> scales,
                   std::vector<hdc::PackedHv> binary);

    /**
     * Quantize a trained uncompressed model's normalized class rows.
     * @pre model.normalized().
     */
    static QuantizedServingModel fromClassModel(const hdc::ClassModel &model);

    /**
     * Quantize a compressed model: the effective row of class c is
     * key_c * group_{g(c)} (divided by the tracked norm when the
     * model scales scores), so int8 scoring reproduces the
     * compressed float scores up to quantization error. The binary
     * form of these rows is much lossier than fromClassModel()'s
     * (sign-binarization discards the magnitudes that cancel the
     * other grouped classes), so callers with prototypes available
     * should prefer fromClassModel(); see Classifier::quantize().
     */
    static QuantizedServingModel
    fromCompressedModel(const CompressedModel &model);

    hdc::Dim dim() const { return dim_; }
    std::size_t numClasses() const { return scales_.size(); }

    /** Flat k x dim int8 rows (serialization). */
    const std::vector<std::int8_t> &int8Rows() const { return rows_; }
    /** Per-class score scales (serialization). */
    const std::vector<double> &scales() const { return scales_; }
    /** Packed sign rows (serialization). */
    const std::vector<hdc::PackedHv> &binaryRows() const
    {
        return binary_;
    }

    /**
     * Int8-path scores of a batch of encoded queries, flat
     * out[q * numClasses() + c]. Each query is quantized with its
     * own max-abs/127 scale; results are bit-identical across kernel
     * Impls and to a batch of size one (exact integer dot, one
     * fixed-order scalar multiply per score).
     */
    std::vector<double>
    scoresBatchI8(const hdc::IntHv *const *queries,
                  std::size_t numQueries) const;

    /**
     * Binary-path scores: sign-binarize each query, popcount against
     * every packed row, report the +-1 dot 2 * matches - D as a
     * double. Same identity guarantees as scoresBatchI8().
     */
    std::vector<double>
    scoresBatchBinary(const hdc::IntHv *const *queries,
                      std::size_t numQueries) const;

  private:
    hdc::Dim dim_;
    std::vector<std::int8_t> rows_; ///< k x dim, row-major.
    std::vector<double> scales_;    ///< k per-class scales.
    std::vector<hdc::PackedHv> binary_; ///< k packed sign rows.
};

} // namespace lookhd

#endif // LOOKHD_LOOKHD_QUANTIZED_INFERENCE_HPP
