#include "lookhd/classifier.hpp"

#include <algorithm>
#include <stdexcept>

#include "hdc/kernels.hpp"
#include "obs/obs.hpp"
#include "par/thread_pool.hpp"
#include "util/check.hpp"

#include "hdc/similarity.hpp"

namespace lookhd {

namespace {

/**
 * Work units of scoring that pay for one more thread in
 * scoresBatch(). Starting and joining a pool thread costs about
 * 30 us on a 4-core x86 host (a 16-row PHYSICAL float64 batch: 4 us
 * inline, 72 us on 4 threads). A unit is one float64 element
 * operation, 0.25-0.55 ns, so each thread gets at least 2^17 of them,
 * some 35-70 us of work.
 */
constexpr std::size_t kMinWorkPerThread = std::size_t{1} << 17;

/**
 * Quantized element operations per work unit. A quantized row gathers
 * and binds D elements per chunk and scores D per class, D * (chunks
 * + k) operations. The AVX2 and AVX-512 tables run them at 0.09-0.23
 * ns each (PHYSICAL int8: about 4.3 us for 46,000; binary 6-9 us),
 * so three make a unit and a thread still gets at least 35 us.
 * The scalar table takes about 0.6 ns (PHYSICAL int8: about 28 us),
 * one to a unit; NEON encodes and quantizes with the scalar entries
 * and keeps that weight too.
 */
std::size_t
quantizedOpsPerUnit()
{
    const hdc::kernels::Impl impl = hdc::kernels::activeImpl();
    return impl == hdc::kernels::Impl::kAvx2 ||
                   impl == hdc::kernels::Impl::kAvx512
               ? 3
               : 1;
}

} // namespace

Classifier::Classifier(ClassifierConfig config)
    : config_(std::move(config))
{
    LOOKHD_CHECK(config_.dim > 0, "classifier dim must be nonzero");
    LOOKHD_CHECK(config_.quantLevels >= 2,
                 "classifier needs at least 2 quantization levels");
    LOOKHD_CHECK(config_.chunkSize > 0,
                 "classifier chunk size must be nonzero");
}

Classifier
Classifier::restore(ClassifierConfig config,
                    std::unique_ptr<LookupEncoder> encoder,
                    std::optional<hdc::ClassModel> model,
                    std::optional<CompressedModel> compressed,
                    std::vector<double> retrain_history)
{
    LOOKHD_CHECK(encoder, "restore needs an encoder");
    LOOKHD_CHECK(model || compressed, "restore needs a model");

    Classifier clf(std::move(config));
    clf.encoder_ = std::move(encoder);
    clf.model_ = std::move(model);
    if (clf.model_)
        clf.model_->normalize();
    clf.compressed_ = std::move(compressed);
    clf.retrainHistory_ = std::move(retrain_history);
    // The table is built on first float64 use; a file whose shape is
    // past the table's cap fails here, at load.
    ScoreTable::checkShape(clf.encoder_->chunks().numFeatures(),
                           clf.encoder_->quantLevels(),
                           clf.compressed_ ? clf.compressed_->numClasses()
                                           : clf.model_->numClasses());
    return clf;
}

void
Classifier::fit(const data::Dataset &train)
{
    LOOKHD_CHECK(!train.empty(), "cannot fit on an empty dataset");
    // Before any training: a shape past the score table's cap could
    // not be served at float64.
    ScoreTable::checkShape(train.numFeatures(), config_.quantLevels,
                           train.numClasses());

    LOOKHD_SPAN("classifier.fit", "train");
    LOOKHD_COUNT_ADD("classifier.fit.calls", 1);
    LOOKHD_GAUGE_SET("classifier.config.dim", config_.dim);
    LOOKHD_GAUGE_SET("classifier.config.quant_levels",
                     config_.quantLevels);
    LOOKHD_GAUGE_SET("classifier.config.chunk_size", config_.chunkSize);
    LOOKHD_GAUGE_SET("classifier.fit.samples", train.size());
    table_ = std::make_unique<LazyScoreTable>();

    util::Rng rng(config_.seed);
    util::Rng level_rng = rng.split();
    util::Rng encoder_rng = rng.split();
    util::Rng key_rng = rng.split();

    // 1. Quantizer calibration: one global quantizer over every
    // training value, or one per feature column.
    quant::QuantizerBank bank = [&] {
        LOOKHD_SPAN("classifier.fit.quantize", "train");
        return quant::QuantizerBank::fit(train, config_.quantLevels,
                                         config_.quantization,
                                         config_.perFeatureQuantization);
    }();

    // 2. Item memories and the lookup encoder.
    {
        LOOKHD_SPAN("classifier.fit.build_encoder", "train");
        auto levels = std::make_shared<hdc::LevelMemory>(
            config_.dim, config_.quantLevels, level_rng,
            config_.levelGen);
        encoder_ = std::make_unique<LookupEncoder>(
            std::move(levels), std::move(bank),
            ChunkSpec(train.numFeatures(), config_.chunkSize),
            encoder_rng, config_.encoder);
    }

    // 3. Counter-based initial training.
    {
        LOOKHD_SPAN("classifier.fit.count_train", "train");
        CounterTrainer trainer(*encoder_, config_.counters);
        model_.emplace(trainer.train(train));
    }

    retrainHistory_.clear();
    RetrainOptions opts = config_.retrain;
    opts.epochs = config_.retrainEpochs;

    if (config_.compressModel) {
        // 4. Compress, then retrain in the compressed domain.
        {
            LOOKHD_SPAN("classifier.fit.compress", "train");
            compressed_.emplace(*model_, key_rng, config_.compression);
        }
        LOOKHD_SPAN("classifier.fit.retrain", "retrain");
        Retrainer retrainer(*encoder_);
        const RetrainResult rr =
            retrainer.retrain(*compressed_, train, opts);
        retrainHistory_ = rr.accuracyHistory;
    } else {
        // 4'. Exact mode: perceptron retraining on the uncompressed
        // model with lookup-encoded queries.
        LOOKHD_SPAN("classifier.fit.retrain", "retrain");
        compressed_.reset();
        std::vector<hdc::IntHv> encoded;
        encoded.reserve(train.size());
        for (std::size_t i = 0; i < train.size(); ++i)
            encoded.push_back(encoder_->encode(train.row(i)));

        model_->normalize();
        retrainHistory_.push_back(hdc::evaluateEncoded(
            *model_, encoded, train.labels()));
        for (std::size_t epoch = 0; epoch < opts.epochs; ++epoch) {
            for (std::size_t i = 0; i < encoded.size(); ++i) {
                const std::size_t pred = model_->predict(encoded[i]);
                if (pred != train.label(i)) {
                    model_->update(train.label(i), pred, encoded[i]);
                    model_->normalize();
                }
            }
            retrainHistory_.push_back(hdc::evaluateEncoded(
                *model_, encoded, train.labels()));
        }
    }

    LOOKHD_SPAN("classifier.fit.score_table", "train");
    scoreTable();
}

const ScoreTable &
Classifier::scoreTable() const
{
    LazyScoreTable &lazy = *table_;
    const ScoreTable *table = lazy.built.load(std::memory_order_acquire);
    if (table == nullptr) {
        const util::MutexLock lock(lazy.mutex);
        if (!lazy.table) {
            lazy.table.emplace(compressed_
                                   ? ScoreTable(*encoder_, *compressed_)
                                   : ScoreTable(*encoder_, *model_));
            lazy.built.store(&*lazy.table, std::memory_order_release);
        }
        table = &*lazy.table;
    }
    return *table;
}

std::size_t
Classifier::predict(std::span<const double> features) const
{
    return hdc::argmax(scores(features));
}

std::vector<double>
Classifier::scores(std::span<const double> features) const
{
    LOOKHD_CHECK(fitted(), "classifier not fitted");
    // No span and no margin per row: a float64 row costs about a
    // microsecond, and a span's two clock reads or a margin record
    // (a pass over the scores plus a locked histogram update) would be
    // a tenth of that. Batches keep both (classifier.predict.batch and
    // the classifier.predict margins).
    LOOKHD_COUNT_ADD("classifier.predict.calls", 1);
    if (precision_ == Precision::kFloat64)
        return scoreTable().scores(features);
    // The encoding lands in this thread's buffer, and int8 scoring
    // quantizes into reused ones: a warm row allocates only the
    // scores it returns.
    thread_local hdc::IntHv encoded;
    encoder_->encodeInto(features, encoded);
    return quantizedScores(encoded);
}

std::vector<double>
Classifier::quantizedScores(const hdc::IntHv &query) const
{
    LOOKHD_CHECK(quantized_, "no quantized serving forms attached");
    const hdc::IntHv *q = &query;
    // A batch of one: the quantized batch kernels score each query
    // independently, so this is bit-identical to the batched path.
    return precision_ == Precision::kInt8
               ? quantized_->scoresBatchI8(&q, 1)
               : quantized_->scoresBatchBinary(&q, 1);
}

std::vector<std::vector<double>>
Classifier::scoresBatch(std::span<const std::span<const double>> rows,
                        std::size_t threads) const
{
    LOOKHD_CHECK(fitted(), "classifier not fitted");
    LOOKHD_SPAN("classifier.predict.batch", "search");
    LOOKHD_COUNT_ADD("classifier.predict.calls", rows.size());
    const std::size_t n = rows.size();
    const std::size_t k = compressed_ ? compressed_->numClasses()
                                      : model_->numClasses();
    // Built here, before any worker runs: only the quantized forms
    // encode.
    const ScoreTable *table =
        precision_ == Precision::kFloat64 ? &scoreTable() : nullptr;
    std::vector<std::vector<double>> out(n);

    // Float64 rows read the score table one by one; the quantized
    // forms encode each row into one reused buffer and score it as
    // scores() does, so any thread count returns the bits
    // predict()/scores() would.
    const auto worker = [&](std::size_t lo, std::size_t hi) {
        if (table != nullptr) {
            for (std::size_t i = lo; i < hi; ++i)
                out[i] = table->scores(rows[i]);
        } else {
            hdc::IntHv encoded;
            for (std::size_t i = lo; i < hi; ++i) {
                encoder_->encodeInto(rows[i], encoded);
                out[i] = quantizedScores(encoded);
            }
        }
        for (std::size_t i = lo; i < hi; ++i)
            LOOKHD_QUALITY_MARGIN("classifier.predict", out[i]);
    };

    // Start no more threads than the batch has work for. A float64
    // row adds one k-vector of the table per feature; a quantized row
    // binds D elements per chunk and scores D per class.
    const ChunkSpec &chunks = encoder_->chunks();
    const std::size_t row_work =
        table != nullptr ? chunks.numFeatures() * k
                         : config_.dim * (chunks.numChunks() + k) /
                               quantizedOpsPerUnit();
    const std::size_t worth = std::max<std::size_t>(
        std::min(n, n * row_work / kMinWorkPerThread), 1);
    const std::size_t resolved =
        std::min(par::resolveThreads(threads), worth);
    if (resolved <= 1) {
        worker(0, n);
    } else {
        par::ThreadPool pool(resolved);
        pool.parallelFor(0, n, worker);
    }
    return out;
}

std::vector<std::size_t>
Classifier::predictBatch(std::span<const std::span<const double>> rows,
                         std::size_t threads) const
{
    const std::vector<std::vector<double>> all =
        scoresBatch(rows, threads);
    std::vector<std::size_t> labels(all.size());
    for (std::size_t i = 0; i < all.size(); ++i)
        labels[i] = hdc::argmax(all[i]);
    return labels;
}

double
Classifier::evaluate(const data::Dataset &test) const
{
    LOOKHD_CHECK(!test.empty(), "empty test set");
    std::size_t correct = 0;
    for (std::size_t i = 0; i < test.size(); ++i) {
        const std::vector<double> s = scores(test.row(i));
        LOOKHD_QUALITY_OUTCOME("classifier.evaluate", test.label(i), s);
        correct += hdc::argmax(s) == test.label(i);
    }
    return static_cast<double>(correct) / static_cast<double>(test.size());
}

data::ConfusionMatrix
Classifier::evaluateDetailed(const data::Dataset &test) const
{
    LOOKHD_CHECK(!test.empty(), "empty test set");
    return data::confusionOf(
        test, [this](auto row) { return predict(row); });
}

std::size_t
Classifier::modelSizeBytes() const
{
    LOOKHD_CHECK(fitted(), "classifier not fitted");
    if (compressed_)
        return compressed_->sizeBytes();
    return model_->sizeBytes();
}

void
Classifier::quantize()
{
    LOOKHD_CHECK(fitted(), "classifier not fitted");
    // Quantize the uncompressed normalized prototypes whenever they
    // exist: sign-binarizing a key-bound compressed-group product
    // throws away the magnitude structure that cancels the other
    // grouped classes' interference, costing tens of accuracy
    // points, while the per-class prototypes quantize within the
    // 1% budget (gated by bench_quantized_predict). The compressed
    // fallback only serves models restored without prototypes.
    if (model_) {
        model_->normalize();
        quantized_ = std::make_shared<const QuantizedServingModel>(
            QuantizedServingModel::fromClassModel(*model_));
        return;
    }
    quantized_ = std::make_shared<const QuantizedServingModel>(
        QuantizedServingModel::fromCompressedModel(*compressed_));
}

const QuantizedServingModel &
Classifier::quantizedModel() const
{
    LOOKHD_CHECK(quantized_, "no quantized serving forms attached");
    return *quantized_;
}

void
Classifier::attachQuantized(std::shared_ptr<const QuantizedServingModel> q)
{
    LOOKHD_CHECK(fitted(), "classifier not fitted");
    LOOKHD_CHECK(q != nullptr, "cannot attach a null quantized model");
    LOOKHD_CHECK(q->dim() == config_.dim,
                 "quantized model dimensionality mismatch");
    const std::size_t k = compressed_ ? compressed_->numClasses()
                                      : model_->numClasses();
    LOOKHD_CHECK(q->numClasses() == k,
                 "quantized model class count mismatch");
    quantized_ = std::move(q);
}

void
Classifier::setServingPrecision(Precision p)
{
    LOOKHD_CHECK(fitted(), "classifier not fitted");
    if (p != Precision::kFloat64 && !quantized_)
        quantize();
    precision_ = p;
}

const LookupEncoder &
Classifier::encoder() const
{
    LOOKHD_CHECK(encoder_, "classifier not fitted");
    return *encoder_;
}

const hdc::ClassModel &
Classifier::uncompressedModel() const
{
    LOOKHD_CHECK(model_, "classifier not fitted");
    return *model_;
}

const CompressedModel &
Classifier::compressedModel() const
{
    LOOKHD_CHECK(compressed_, "no compressed model");
    return *compressed_;
}

} // namespace lookhd
