/**
 * @file
 * Compressed HDC class model (paper Sec. IV, Eq. 4, Fig. 7).
 *
 * Instead of k class hypervectors, LookHD stores their superposition
 * after binding each with a private random bipolar key:
 *
 *   C = P'_1 * C_1 + P'_2 * C_2 + ... + P'_k * C_k
 *
 * The score of class i for a query H is dot(H * P'_i, C): unbinding
 * with P'_i recovers dot(H, C_i) (the signal) plus cross-terms damped
 * by the near-orthogonality of random keys (the noise, Eq. 5).
 *
 * Two refinements from the paper are implemented:
 *  - decorrelation (Sec. IV-C): classes share a large common component
 *    that makes their cosines cluster near 1 (Fig. 8); removing the
 *    projection on the class average widens the score gaps so the
 *    compression noise stops flipping rankings;
 *  - grouping (Sec. VI-G): when k is large the noise grows, so classes
 *    can be partitioned into groups of at most G (paper: 12), one
 *    compressed hypervector per group, trading a little model size for
 *    exactness.
 *
 * Retraining support (Sec. IV-D) applies perceptron updates directly
 * in the compressed domain: C += P'_correct * H - P'_wrong * H. Since
 * individual class norms are no longer recoverable after mixing, the
 * model tracks per-class norm estimates from the update stream and the
 * recovered signal (see applyUpdate()).
 */

#ifndef LOOKHD_LOOKHD_COMPRESSED_MODEL_HPP
#define LOOKHD_LOOKHD_COMPRESSED_MODEL_HPP

#include <vector>

#include "hdc/item_memory.hpp"
#include "hdc/model.hpp"
#include "util/rng.hpp"

namespace lookhd {

/** Knobs of the model compression. */
struct CompressionConfig
{
    /** Remove the common component before compressing (Sec. IV-C). */
    bool decorrelate = true;

    /**
     * Maximum classes folded into one compressed hypervector;
     * 0 means all k in a single one. The paper recommends 12 for
     * loss-free compression.
     */
    std::size_t maxClassesPerGroup = 0;

    /**
     * Keep a copy of the (decorrelated, normalized) per-class
     * hypervectors so exactScores() can report the noise-free
     * reference. Costs the uncompressed model size; meant for
     * experiments and tests, not deployment.
     */
    bool keepReference = false;

    /**
     * Divide each recovered score by the tracked class-norm estimate,
     * reproducing the cosine ranking of the (pre-normalized)
     * uncompressed model. Off by default: with balanced training data
     * the class norms are close and the raw dot-product ranking
     * already matches, while during retraining the norm estimates are
     * refreshed from noisy recovered signals and the estimation error
     * can compound. Enable for strongly imbalanced class sizes when
     * retraining is off or short.
     */
    bool scaleScores = false;
};

/** Compute the decorrelated class hypervectors of Sec. IV-C. */
std::vector<hdc::RealHv> decorrelateClasses(const hdc::ClassModel &model);

/** The compressed model: one (or a few) hypervectors for all classes. */
class CompressedModel
{
  public:
    /**
     * Compress a trained model.
     *
     * @param model Trained (uncompressed) class model.
     * @param rng Source for the k class keys P'_1..P'_k.
     * @param config Compression options.
     */
    CompressedModel(const hdc::ClassModel &model, util::Rng &rng,
                    CompressionConfig config = {});

    /**
     * Restore a compressed model from its stored state
     * (deserialization). @p common_dir may be empty when the model
     * was built without decorrelation.
     * @pre groups/norms/keys shapes are mutually consistent.
     */
    CompressedModel(CompressionConfig config, hdc::KeyMemory keys,
                    std::vector<hdc::RealHv> groups,
                    std::vector<double> norms,
                    hdc::RealHv common_dir);

    hdc::Dim dim() const { return dim_; }
    std::size_t numClasses() const { return keys_.count(); }
    std::size_t numGroups() const { return groups_.size(); }
    const CompressionConfig &config() const { return config_; }

    /** Group index holding class @p cls. */
    std::size_t groupOf(std::size_t cls) const;

    /** The compressed hypervector of group @p g. */
    const hdc::RealHv &groupHv(std::size_t g) const
    {
        return groups_.at(g);
    }

    /** The class keys P'. */
    const hdc::KeyMemory &classKeys() const { return keys_; }

    /**
     * Recovered per-class scores of @p query: dot(query * P'_i, C_g),
     * optionally divided by the tracked class norm.
     */
    std::vector<double> scores(const hdc::IntHv &query) const;

    /**
     * Buffers of the batch path: the unbound class rows
     * W_i = P'_i * C_g(i) (numClasses() x dim()) and one tile of
     * scores. Every batch call refills them from the model as it
     * stands; a caller scoring many batches (a retraining run) keeps
     * one and allocates once.
     */
    struct BatchScratch
    {
        std::vector<double> rows;
        std::vector<const double *> rowPtrs;
        std::vector<double> scores;
    };

    /**
     * Recovered scores for a batch of queries, out[q * numClasses()
     * + c], bit-identical to per-query scores(). scores() multiplies
     * H by the group and then signs each product with the key; the
     * batch path signs the group first (W_i[e] = P'_i[e] * C[e] =
     * +-C[e], exact) and scores every query against every W_i in
     * one kernels::similarityBatch call. IEEE multiplication is
     * symmetric under sign, so double(H[e]) * W_i[e] equals
     * (double(H[e]) * C[e]) * P'_i[e] lane for lane, and
     * dotIntReal and dotRealI8 share one 4-lane accumulation order:
     * every score, and so every argmax, matches.
     */
    std::vector<double> scoresBatch(const hdc::IntHv *const *queries,
                                    std::size_t numQueries) const;

    /** argmax of scores(). */
    std::size_t predict(const hdc::IntHv &query) const;

    /** Argmax per row of scoresBatch(); same labels as predict(). */
    std::vector<std::size_t>
    predictBatch(const hdc::IntHv *const *queries,
                 std::size_t numQueries) const;

    /** predictBatch() into labels[numQueries], reusing @p scratch. */
    void predictBatch(const hdc::IntHv *const *queries,
                      std::size_t numQueries, BatchScratch &scratch,
                      std::size_t *labels) const;

    /**
     * Scores computed over only the first @p dims dimensions. Because
     * random hypervector dimensions are interchangeable, a prefix of
     * the dimensions gives an unbiased (noisier) estimate of the full
     * scores - the basis for progressive-precision inference.
     * @pre 0 < dims <= dim().
     */
    std::vector<double> scoresPrefix(const hdc::IntHv &query,
                                     std::size_t dims) const;

    /**
     * Progressive-precision prediction (Table III's reduced-D
     * observation turned into an early-exit policy): score the first
     * @p initial_dims dimensions; if the winner's margin over the
     * runner-up exceeds @p margin times the score scale, stop;
     * otherwise double the window and repeat until full precision.
     *
     * @param dims_used Out-parameter (optional): dimensions actually
     *        consumed.
     */
    std::size_t predictProgressive(const hdc::IntHv &query,
                                   std::size_t initial_dims,
                                   double margin,
                                   std::size_t *dims_used =
                                       nullptr) const;

    /**
     * Noise-free reference scores dot(query, C_i) against the stored
     * per-class hypervectors. @pre config().keepReference.
     */
    std::vector<double> exactScores(const hdc::IntHv &query) const;

    /**
     * Compressed-domain perceptron update (Sec. IV-D):
     *   C_g(correct) += scale * P'_correct * u
     *   C_g(wrong)   -= scale * P'_wrong   * u
     * and refresh the norm estimates of both classes from the signal
     * recovered before the update. u is the query minus its
     * projection on the common direction when the model was
     * decorrelated (otherwise updates would re-inject the very
     * component decorrelation removed), else the query itself.
     */
    void applyUpdate(std::size_t correct, std::size_t wrong,
                     const hdc::IntHv &query, double scale);

    /**
     * Tracked norm estimate of class @p cls (exact at construction,
     * refreshed from recovered signals during retraining).
     */
    double trackedNorm(std::size_t cls) const
    {
        return norms_.at(cls);
    }

    /**
     * Model size in bytes: one float per dimension per group plus one
     * bit per dimension per class key. This is the quantity Fig. 15b
     * compares against k * D * 4 for the uncompressed model.
     */
    std::size_t sizeBytes() const;

    /**
     * Unit common-component direction removed by decorrelation;
     * empty when the model was built without it.
     */
    const hdc::RealHv &commonDirection() const { return commonDir_; }

  private:
    /** Queries scored per similarityBatch call of the batch path. */
    static constexpr std::size_t kBatchTile = 64;

    /**
     * Kernel-backed score computation over the first @p dims
     * dimensions into out[numClasses()]; @p product is caller-owned
     * scratch of at least @p dims elements.
     */
    void scoresInto(const hdc::IntHv &query, std::size_t dims,
                    hdc::RealHv &product, double *out) const;

    /** Fill @p scratch's unbound rows from the current groups. */
    void unbindRows(BatchScratch &scratch) const;

    /**
     * Scores of up to kBatchTile queries against the rows of
     * unbindRows(), into out[numQueries * numClasses()].
     */
    void scoreTile(const hdc::IntHv *const *queries,
                   std::size_t numQueries, const BatchScratch &scratch,
                   double *out) const;

    hdc::Dim dim_;
    CompressionConfig config_;
    hdc::KeyMemory keys_;
    std::size_t groupSize_; ///< Classes per group (except maybe last).
    std::vector<hdc::RealHv> groups_;
    std::vector<double> norms_;
    /** Unit common-component direction iff decorrelate. */
    hdc::RealHv commonDir_;
    /** Per-class reference hypervectors iff keepReference. */
    std::vector<hdc::RealHv> reference_;
};

} // namespace lookhd

#endif // LOOKHD_LOOKHD_COMPRESSED_MODEL_HPP
