#include "lookhd/retrainer.hpp"

#include <optional>

#include "obs/obs.hpp"
#include "util/check.hpp"

namespace lookhd {

std::vector<hdc::IntHv>
Retrainer::encodeAll(const data::Dataset &ds) const
{
    std::vector<hdc::IntHv> out;
    out.reserve(ds.size());
    for (std::size_t i = 0; i < ds.size(); ++i)
        out.push_back(encoder_.encode(ds.row(i)));
    return out;
}

RetrainResult
Retrainer::retrain(CompressedModel &model, const data::Dataset &train,
                   const RetrainOptions &options) const
{
    return retrainEncoded(model, encodeAll(train), train.labels(),
                          options);
}

RetrainResult
Retrainer::retrainEncoded(CompressedModel &model,
                          const std::vector<hdc::IntHv> &encoded,
                          const std::vector<std::size_t> &labels,
                          const RetrainOptions &options) const
{
    LOOKHD_CHECK(encoded.size() == labels.size() && !encoded.empty(),
                 "encoded/labels size mismatch");

    LOOKHD_SPAN("lookhd.retrain", "retrain");
    RetrainResult result;

    // Optional held-out validation split for early stopping.
    std::vector<std::size_t> update_idx(encoded.size());
    for (std::size_t i = 0; i < update_idx.size(); ++i)
        update_idx[i] = i;
    std::vector<std::size_t> val_idx;
    if (options.validationFraction > 0.0) {
        LOOKHD_CHECK(options.validationFraction < 1.0,
                     "validation fraction must be below 1");
        util::Rng rng(options.validationSeed);
        rng.shuffle(update_idx);
        const auto cut = static_cast<std::size_t>(
            options.validationFraction *
            static_cast<double>(update_idx.size()));
        val_idx.assign(update_idx.begin(), update_idx.begin() + cut);
        update_idx.erase(update_idx.begin(),
                         update_idx.begin() + cut);
        LOOKHD_CHECK(!update_idx.empty(),
                     "validation split leaves no training points");
    }

    // One scoring pass per model, all rows in one batch: preds[i] is
    // row i's label under the model as it stands. That one pass gives
    // the model's training accuracy, its validation accuracy and,
    // under deferredSwap, the next epoch's oracle: the epoch's
    // similarity checks read the frozen model the pass just scored.
    // The batch labels are predict()'s bit for bit (see
    // CompressedModel::scoresBatch), so the loop below is the per-row
    // perceptron. The buffers live for the whole run.
    std::vector<const hdc::IntHv *> queries(encoded.size());
    for (std::size_t i = 0; i < encoded.size(); ++i)
        queries[i] = &encoded[i];
    CompressedModel::BatchScratch scratch;
    std::vector<std::size_t> preds(encoded.size());
    const auto score_pass = [&] {
        model.predictBatch(queries.data(), queries.size(), scratch,
                           preds.data());
        std::size_t ok = 0;
        for (std::size_t i = 0; i < preds.size(); ++i)
            ok += preds[i] == labels[i];
        result.accuracyHistory.push_back(
            static_cast<double>(ok) / static_cast<double>(preds.size()));
        if (val_idx.empty())
            return;
        std::size_t val_ok = 0;
        for (std::size_t i : val_idx)
            val_ok += preds[i] == labels[i];
        result.validationHistory.push_back(
            static_cast<double>(val_ok) /
            static_cast<double>(val_idx.size()));
    };
    score_pass();

    // The unretrained model is epoch 0 of the selection: when no
    // epoch beats its validation accuracy, it is what comes back.
    std::optional<CompressedModel> best_model;
    double best_val = 0.0;
    if (!val_idx.empty()) {
        best_val = result.validationHistory.back();
        best_model = model;
    }
    std::size_t stale = 0;

    for (std::size_t epoch = 0; epoch < options.epochs; ++epoch) {
        LOOKHD_SPAN("lookhd.retrain.epoch", "retrain");
        // The hardware applies updates to a copy while the original
        // keeps serving similarity checks (Sec. V-C). Without the
        // deferred swap every check reads the copy as it changes.
        CompressedModel working = model;

        for (std::size_t i : update_idx) {
            const std::size_t pred = options.deferredSwap
                                         ? preds[i]
                                         : working.predict(encoded[i]);
            if (pred == labels[i])
                continue;
            double scale = options.learningRate;
            if (options.normalizeQueries) {
                const double n = hdc::norm(encoded[i]);
                if (n > 0.0)
                    scale /= n;
            }
            working.applyUpdate(labels[i], pred, encoded[i], scale);
            ++result.updates;
        }
        model = std::move(working);
        ++result.epochsRun;
        score_pass();

        if (!val_idx.empty()) {
            const double val = result.validationHistory.back();
            if (val > best_val) {
                best_val = val;
                best_model = model;
                stale = 0;
            } else if (++stale >= options.earlyStopPatience) {
                result.stoppedEarly = true;
                break;
            }
        }
    }
    if (best_model)
        model = std::move(*best_model);
    return result;
}

double
Retrainer::evaluate(const CompressedModel &model,
                    const data::Dataset &test) const
{
    LOOKHD_CHECK(!test.empty(), "empty test set");
    std::size_t correct = 0;
    for (std::size_t i = 0; i < test.size(); ++i) {
        const hdc::IntHv query = encoder_.encode(test.row(i));
        correct += model.predict(query) == test.label(i);
    }
    return static_cast<double>(correct) / static_cast<double>(test.size());
}

} // namespace lookhd
