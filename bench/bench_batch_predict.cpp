/**
 * @file
 * Measures what the batched SIMD predict path buys over the
 * per-sample scalar loop it replaced, on the class-heaviest paper
 * app (SPEECH: 617 features, 26 classes).
 *
 * Three timed modes over the same test rows:
 *
 *   scalar_loop  dispatch pinned to the scalar kernels, one
 *                clf.scores() call per row - the pre-kernel-layer
 *                behaviour;
 *   batch        best available kernels (AVX2 where the CPU has
 *                it), one scoresBatch() call per pass, one thread;
 *   batch_mt     same, with one prediction thread per hardware
 *                thread.
 *
 * The determinism contract makes all three produce bit-identical
 * scores, which the bench asserts before reporting. The headline
 * metric `speedup_batch_vs_scalar` (single-threaded batch vs the
 * scalar loop) gates in bench/baselines/thresholds.json; a scoring-
 * only pair (pre-encoded queries through the compressed model) is
 * reported alongside to separate encode gains from search gains.
 */

#include <algorithm>
#include <vector>

#include "common.hpp"
#include "hdc/kernels.hpp"
#include "par/thread_pool.hpp"
#include "util/timer.hpp"

namespace {

using namespace lookhd;
namespace kernels = hdc::kernels;

std::string
fmt2(double value)
{
    char buffer[32];
    std::snprintf(buffer, sizeof(buffer), "%.2f", value);
    return buffer;
}

/** Wall-clock seconds of the fastest of `passes` runs of fn(). */
template <typename Fn>
double
minSeconds(std::size_t passes, Fn &&fn)
{
    double best = 0.0;
    for (std::size_t p = 0; p < passes; ++p) {
        const util::Timer timer;
        fn();
        const double s = timer.seconds();
        if (p == 0 || s < best)
            best = s;
    }
    return best;
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace lookhd;
    bench::BenchReporter rep("batch_predict", argc, argv);
    bench::banner("Batched SIMD predict vs per-sample scalar loop "
                  "(SPEECH, 26 classes)");

    const auto &app = data::appByName("SPEECH");
    const auto tt = bench::appData(app, 23);
    ClassifierConfig cfg = bench::appConfig(app);
    Classifier clf(cfg);
    clf.fit(tt.train);

    std::vector<std::span<const double>> rows;
    rows.reserve(tt.test.size());
    for (std::size_t i = 0; i < tt.test.size(); ++i)
        rows.push_back(tt.test.row(i));

    const std::size_t passes = rep.quick() ? 3 : 10;
    const std::size_t hwThreads = par::resolveThreads(0);

    // Per-sample loop on the scalar kernels: the shape and the
    // instruction set of the code this PR's batch path replaced.
    kernels::forceImpl(kernels::Impl::kScalar);
    std::vector<std::vector<double>> scalarScores;
    const double tScalar = minSeconds(passes, [&] {
        scalarScores.clear();
        scalarScores.reserve(rows.size());
        for (const auto &row : rows)
            scalarScores.push_back(clf.scores(row));
    });
    kernels::clearForcedImpl();

    // One batched call, best kernels, single thread.
    std::vector<std::vector<double>> batchScores;
    const double tBatch = minSeconds(
        passes, [&] { batchScores = clf.scoresBatch(rows, 1); });

    // Same, one prediction thread per hardware thread.
    std::vector<std::vector<double>> batchMtScores;
    const double tBatchMt = minSeconds(passes, [&] {
        batchMtScores = clf.scoresBatch(rows, hwThreads);
    });

    // Scoring only (pre-encoded queries against the compressed
    // model), isolating the similarity kernels from the encoder.
    std::vector<hdc::IntHv> queries;
    std::vector<const hdc::IntHv *> qptrs;
    queries.reserve(rows.size());
    for (const auto &row : rows)
        queries.push_back(clf.encoder().encode(row));
    for (const hdc::IntHv &q : queries)
        qptrs.push_back(&q);
    const CompressedModel &model = clf.compressedModel();

    kernels::forceImpl(kernels::Impl::kScalar);
    const double tScoreScalar = minSeconds(passes, [&] {
        for (const hdc::IntHv *q : qptrs)
            static_cast<void>(model.scores(*q));
    });
    kernels::clearForcedImpl();
    const double tScoreBatch = minSeconds(passes, [&] {
        static_cast<void>(
            model.scoresBatch(qptrs.data(), qptrs.size()));
    });

    // The determinism contract: every mode must agree bit-for-bit.
    bool identical = scalarScores.size() == batchScores.size() &&
                     batchScores.size() == batchMtScores.size();
    for (std::size_t i = 0; identical && i < batchScores.size(); ++i)
        identical = scalarScores[i] == batchScores[i] &&
                    batchScores[i] == batchMtScores[i];
    if (!identical) {
        std::fprintf(stderr,
                     "bench_batch_predict: scalar/batch/threaded "
                     "scores diverge - determinism contract broken\n");
        return 1;
    }

    const double speedup = tScalar / std::max(tBatch, 1e-12);
    const double speedupMt = tScalar / std::max(tBatchMt, 1e-12);
    const double speedupScore =
        tScoreScalar / std::max(tScoreBatch, 1e-12);

    util::Table table({"mode", "kernel", "threads", "ms/pass",
                       "speedup vs scalar loop"});
    const char *best = kernels::implName(kernels::activeImpl());
    auto ms = [](double s) { return fmt2(1e3 * s); };
    table.addRow({"scalar per-sample loop", "scalar", "1",
                  ms(tScalar), "1.00x"});
    table.addRow({"batched", best, "1", ms(tBatch),
                  fmt2(speedup) + "x"});
    table.addRow({"batched", best, std::to_string(hwThreads),
                  ms(tBatchMt), fmt2(speedupMt) + "x"});
    table.addRow({"scoring-only scalar loop", "scalar", "1",
                  ms(tScoreScalar), "1.00x"});
    table.addRow({"scoring-only batched", best, "1", ms(tScoreBatch),
                  fmt2(speedupScore) + "x"});
    std::printf("%s", table.render().c_str());
    std::printf("\nAll modes returned bit-identical scores over %zu "
                "rows.\n",
                rows.size());

    // Small quantized batches at 1 and 4 requested threads: scoresBatch
    // starts a thread only for enough work to pay for its start-up,
    // so a batch too small for four runs on fewer (or inline) rather
    // than slower. The thread cap weighs a quantized operation by the
    // active kernel table, so int8 and binary run on every table this
    // host has. Printed, not gated: it shows where the cap falls.
    const data::AppSpec &physicalApp = data::appByName("PHYSICAL");
    const auto physicalData = bench::appData(physicalApp, 23);
    Classifier physical(bench::appConfig(physicalApp));
    physical.fit(physicalData.train);
    struct SmallCase
    {
        const char *name;
        Classifier *model;
        const data::Dataset *test;
    };
    const SmallCase smallCases[] = {{"PHYSICAL", &physical,
                                     &physicalData.test},
                                    {"SPEECH", &clf, &tt.test}};
    struct SmallForm
    {
        Precision precision;
        kernels::Impl impl;
    };
    std::vector<SmallForm> smallForms;
    for (const Precision precision : {Precision::kInt8, Precision::kBinary})
        for (const kernels::Impl impl :
             {kernels::Impl::kAvx512, kernels::Impl::kAvx2,
              kernels::Impl::kNeon, kernels::Impl::kScalar})
            if (kernels::implAvailable(impl))
                smallForms.push_back({precision, impl});
    util::Table small({"app", "form", "kernel", "rows",
                       "us/batch 1 thread", "us/batch 4 threads"});
    for (const SmallCase &c : smallCases) {
        for (const SmallForm &form : smallForms) {
            c.model->setServingPrecision(form.precision);
            kernels::forceImpl(form.impl);
            for (const std::size_t count : {16UL, 64UL}) {
                std::vector<std::span<const double>> batch;
                for (std::size_t i = 0; i < count && i < c.test->size();
                     ++i)
                    batch.push_back(c.test->row(i));
                const std::size_t reps = rep.quick() ? 20 : 200;
                const auto usPerBatch = [&](std::size_t threads) {
                    return 1e6 * minSeconds(reps, [&] {
                               static_cast<void>(
                                   c.model->scoresBatch(batch, threads));
                           });
                };
                small.addRow({c.name, precisionName(form.precision),
                              kernels::implName(form.impl),
                              std::to_string(batch.size()),
                              fmt2(usPerBatch(1)), fmt2(usPerBatch(4))});
            }
            kernels::clearForcedImpl();
        }
    }
    std::printf("\nquantized scoresBatch, small batches:\n%s",
                small.render().c_str());

    rep.config("app", app.name);
    rep.config("kernel", best);
    rep.config("threads", static_cast<double>(hwThreads));
    rep.config("dim", static_cast<double>(cfg.dim));
    rep.config("classes", static_cast<double>(app.numClasses));
    rep.config("features", static_cast<double>(app.numFeatures));
    rep.config("rows", static_cast<double>(rows.size()));
    rep.config("passes", static_cast<double>(passes));
    rep.metric("predict_scalar_loop_ms", 1e3 * tScalar);
    rep.metric("predict_batch_ms", 1e3 * tBatch);
    rep.metric("predict_batch_mt_ms", 1e3 * tBatchMt);
    rep.metric("score_scalar_loop_ms", 1e3 * tScoreScalar);
    rep.metric("score_batch_ms", 1e3 * tScoreBatch);
    rep.metric("speedup_batch_vs_scalar", speedup);
    rep.metric("speedup_batch_mt_vs_scalar", speedupMt);
    rep.metric("speedup_score_batch_vs_scalar", speedupScore);
    rep.metric("results_identical", identical ? 1.0 : 0.0);
    rep.write();
    return 0;
}
