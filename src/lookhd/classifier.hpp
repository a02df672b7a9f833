/**
 * @file
 * High-level LookHD classifier: the library's main public API.
 *
 * Wires together the full pipeline of the paper - equalized
 * quantization, chunked lookup encoding, counter-based training, model
 * compression, and compressed-domain retraining - behind a
 * scikit-style fit/predict interface.
 *
 * @code
 *   lookhd::ClassifierConfig cfg;
 *   cfg.dim = 2000;
 *   cfg.quantLevels = 4;
 *   lookhd::Classifier clf(cfg);
 *   clf.fit(train);
 *   double acc = clf.evaluate(test);
 * @endcode
 */

#ifndef LOOKHD_LOOKHD_CLASSIFIER_HPP
#define LOOKHD_LOOKHD_CLASSIFIER_HPP

#include <memory>
#include <optional>

#include "data/dataset.hpp"
#include "data/metrics.hpp"
#include "hdc/trainer.hpp"
#include "lookhd/compressed_model.hpp"
#include "lookhd/counter_trainer.hpp"
#include "lookhd/quantized_inference.hpp"
#include "lookhd/retrainer.hpp"
#include "quant/quantizer.hpp"

namespace lookhd {

/** Which quantization policy fit() calibrates. */
using quant::QuantizationKind;

/** Full configuration of a LookHD classifier. */
struct ClassifierConfig
{
    /** Hypervector dimensionality D (paper default for results). */
    hdc::Dim dim = 2000;

    /** Quantization levels q. */
    std::size_t quantLevels = 4;

    /** Chunk size r. */
    std::size_t chunkSize = 5;

    QuantizationKind quantization = QuantizationKind::kEqualized;

    /**
     * Calibrate one quantizer per feature column instead of a single
     * global one. Needed when features live on heterogeneous scales;
     * the paper's normalized datasets use a global quantizer, which
     * stays the default.
     */
    bool perFeatureQuantization = false;

    hdc::LevelGen levelGen = hdc::LevelGen::kDistinctHalf;

    /**
     * Compress the trained model (Sec. IV). When false, inference and
     * retraining run on the uncompressed k-hypervector model (the
     * "exact mode" reference).
     */
    bool compressModel = true;

    /**
     * Compression options. Defaults to the paper's "exact mode":
     * at most 12 classes per compressed hypervector (Sec. VI-G),
     * which keeps compression loss-free; set maxClassesPerGroup = 0
     * to force a single hypervector regardless of k (Fig. 15's
     * aggressive mode).
     */
    CompressionConfig compression{.decorrelate = true,
                                  .maxClassesPerGroup = 12,
                                  .keepReference = false,
                                  .scaleScores = false};

    /** Retraining epochs after initial training (paper: ~10). */
    std::size_t retrainEpochs = 10;

    RetrainOptions retrain;

    LookupEncoderConfig encoder;

    CounterTrainerConfig counters;

    /** Seed controlling all hypervector generation. */
    std::uint64_t seed = 42;
};

/** Trained LookHD classifier. */
class Classifier
{
  public:
    explicit Classifier(ClassifierConfig config = {});

    /**
     * Rebuild a fitted classifier from deserialized parts; used by
     * serialize.hpp. At least one of model / compressed must be
     * provided.
     */
    static Classifier
    restore(ClassifierConfig config,
            std::unique_ptr<LookupEncoder> encoder,
            std::optional<hdc::ClassModel> model,
            std::optional<CompressedModel> compressed,
            std::vector<double> retrain_history);

    const ClassifierConfig &config() const { return config_; }

    /**
     * Train on @p train: calibrate the quantizer, build the level
     * memory and lookup encoder, counter-train the class model, then
     * (optionally) compress and retrain.
     */
    void fit(const data::Dataset &train);

    /** Whether fit() has completed. */
    bool fitted() const { return encoder_ != nullptr; }

    /** Predicted class of a raw feature vector. @pre fitted(). */
    std::size_t predict(std::span<const double> features) const;

    /** Per-class scores of a raw feature vector. @pre fitted(). */
    std::vector<double> scores(std::span<const double> features) const;

    /**
     * Scores for a batch of feature rows through the batched
     * encode + similarity kernels: out[i] == scores(rows[i]) bit for
     * bit, for every @p threads (1 = inline, 0 = one per hardware
     * thread). @pre fitted().
     */
    std::vector<std::vector<double>>
    scoresBatch(std::span<const std::span<const double>> rows,
                std::size_t threads = 1) const;

    /**
     * Predicted classes for a batch of feature rows; identical labels
     * to calling predict() per row. @pre fitted().
     */
    std::vector<std::size_t>
    predictBatch(std::span<const std::span<const double>> rows,
                 std::size_t threads = 1) const;

    /** Accuracy on a labeled dataset. @pre fitted(). */
    double evaluate(const data::Dataset &test) const;

    /**
     * Full evaluation: confusion matrix with per-class
     * precision/recall/F1. @pre fitted().
     */
    data::ConfusionMatrix evaluateDetailed(
        const data::Dataset &test) const;

    /** Training accuracy before retraining and after each epoch. */
    const std::vector<double> &retrainHistory() const
    {
        return retrainHistory_;
    }

    /** Deployed model size in bytes. @pre fitted(). */
    std::size_t modelSizeBytes() const;

    // --- Quantized serving ---

    /**
     * Build (or rebuild) the int8 + binary serving forms from the
     * trained model (the compressed model when present, else the
     * normalized uncompressed one). @pre fitted().
     */
    void quantize();

    /** Whether quantized serving forms are attached. */
    bool hasQuantized() const { return quantized_ != nullptr; }

    /** The attached serving forms. @pre hasQuantized(). */
    const QuantizedServingModel &quantizedModel() const;

    /**
     * Attach restored serving forms (deserialization). Shapes must
     * match the classifier's dimensionality and class count.
     */
    void attachQuantized(std::shared_ptr<const QuantizedServingModel> q);

    /**
     * Select the arithmetic scores()/scoresBatch() serve with.
     * kInt8/kBinary build the quantized forms on demand when none
     * are attached yet. @pre fitted().
     */
    void setServingPrecision(Precision p);

    /** Currently selected serving arithmetic. */
    Precision servingPrecision() const { return precision_; }

    // --- Access to the trained pieces (experiments, tests) ---

    const LookupEncoder &encoder() const;
    /** Uncompressed class model (as produced by counter training). */
    const hdc::ClassModel &uncompressedModel() const;
    /** Compressed model; @pre config().compressModel. */
    const CompressedModel &compressedModel() const;

  private:
    /** Quantized-path scores of one encoded query (batch of one). */
    std::vector<double>
    quantizedScores(const hdc::IntHv &query) const;

    ClassifierConfig config_;
    std::unique_ptr<LookupEncoder> encoder_;
    std::optional<hdc::ClassModel> model_;
    std::optional<CompressedModel> compressed_;
    std::shared_ptr<const QuantizedServingModel> quantized_;
    Precision precision_ = Precision::kFloat64;
    std::vector<double> retrainHistory_;
};

} // namespace lookhd

#endif // LOOKHD_LOOKHD_CLASSIFIER_HPP
