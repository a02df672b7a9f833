/**
 * @file
 * Compressed-domain retraining (paper Sec. IV-D, Fig. 9).
 *
 * Retraining iterates over the training set, checks each point against
 * the model, and applies a perceptron correction to mispredictions.
 * LookHD runs the similarity check on the *compressed* model and
 * applies the correction in the compressed domain:
 *
 *   C <- C + P'_correct * H - P'_wrong * H
 *
 * Following the hardware (Sec. V-C), updates land on a copy of the
 * compressed model while the original serves lookups for the rest of
 * the epoch; the copy is swapped in at the epoch boundary. The
 * similarity checks of an epoch therefore read the model the previous
 * epoch's accuracy pass just scored, so each epoch scores the training
 * set once, as one batch (CompressedModel::predictBatch).
 */

#ifndef LOOKHD_LOOKHD_RETRAINER_HPP
#define LOOKHD_LOOKHD_RETRAINER_HPP

#include "data/dataset.hpp"
#include "lookhd/compressed_model.hpp"
#include "lookhd/lookup_encoder.hpp"

namespace lookhd {

/** Settings for compressed-domain retraining. */
struct RetrainOptions
{
    /** Number of epochs (paper: ~10). */
    std::size_t epochs = 10;

    /** Update magnitude multiplier. */
    double learningRate = 1.0;

    /**
     * Scale each update by 1/||H||. Off by default: the compressed
     * model holds raw class sums, so adding the raw query reproduces
     * the baseline perceptron's relative step size.
     */
    bool normalizeQueries = false;

    /**
     * Swap the updated copy in only at epoch end (the pipelined
     * hardware behaviour). When false, updates apply immediately
     * (classic sequential perceptron).
     */
    bool deferredSwap = true;

    /**
     * Hold out this fraction of the training points as a validation
     * set and stop early once validation accuracy stops improving
     * (paper Sec. II-B: retraining continues "until the HDC accuracy
     * stabilized over the validation data, which is a part of the
     * training dataset"). The model left behind is the first one with
     * the best validation accuracy among epochs 0 (the model as
     * passed in) to epochsRun, so retraining that only loses
     * validation accuracy returns the model unchanged. 0 disables
     * validation and early stopping.
     */
    double validationFraction = 0.0;

    /** Epochs without validation improvement before stopping. */
    std::size_t earlyStopPatience = 3;

    /** Seed for the validation split. */
    std::uint64_t validationSeed = 1234;
};

/** Outcome of a retraining run. */
struct RetrainResult
{
    /** Training accuracy before retraining and after each epoch. */
    std::vector<double> accuracyHistory;
    /**
     * Validation accuracy before retraining and after each epoch,
     * indexed like accuracyHistory (empty when validationFraction is
     * 0).
     */
    std::vector<double> validationHistory;
    /** Total mispredictions corrected. */
    std::size_t updates = 0;
    std::size_t epochsRun = 0;
    /** Whether validation-based early stopping fired. */
    bool stoppedEarly = false;
};

/** Drives compressed-domain retraining over a dataset. */
class Retrainer
{
  public:
    explicit Retrainer(const LookupEncoder &encoder)
        : encoder_(encoder)
    {}

    /** Encode the dataset once (queries are reused every epoch). */
    std::vector<hdc::IntHv> encodeAll(const data::Dataset &ds) const;

    /** Retrain @p model in place. */
    RetrainResult retrain(CompressedModel &model,
                          const data::Dataset &train,
                          const RetrainOptions &options = {}) const;

    /** Retrain from pre-encoded queries. */
    RetrainResult retrainEncoded(CompressedModel &model,
                                 const std::vector<hdc::IntHv> &encoded,
                                 const std::vector<std::size_t> &labels,
                                 const RetrainOptions &options = {}) const;

    /** Accuracy of @p model on @p test. */
    double evaluate(const CompressedModel &model,
                    const data::Dataset &test) const;

  private:
    const LookupEncoder &encoder_;
};

} // namespace lookhd

#endif // LOOKHD_LOOKHD_RETRAINER_HPP
