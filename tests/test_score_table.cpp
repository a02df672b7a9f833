/**
 * @file
 * Tests for the fused float64 score table (lookhd/score_table.hpp)
 * behind Classifier::scores/predict: the same argmax as encode +
 * search on the paper apps, bit-identity across kernel Impls, batch
 * vs single, thread counts and save -> load, and fail-closed loading
 * of shapes past the table's entry cap.
 */

#include <gtest/gtest.h>

#include <fstream>
#include <optional>
#include <span>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "data/apps.hpp"
#include "data/synthetic.hpp"
#include "hdc/kernels.hpp"
#include "hdc/similarity.hpp"
#include "lookhd/classifier.hpp"
#include "lookhd/score_table.hpp"
#include "lookhd/serialize.hpp"
#include "util/check.hpp"

namespace {

using namespace lookhd;
namespace kernels = lookhd::hdc::kernels;

ClassifierConfig
appConfig(const data::AppSpec &app, bool compress)
{
    ClassifierConfig cfg;
    cfg.dim = 2000;
    cfg.quantLevels = app.lookhdQ;
    cfg.chunkSize = app.chunkSize;
    cfg.retrainEpochs = 2;
    cfg.compressModel = compress;
    return cfg;
}

data::TrainTest
appData(const data::AppSpec &app, std::size_t testRows)
{
    return data::makeTrainTest(app.synthetic(1), 20 * app.numClasses,
                               testRows);
}

/** The served float64 form's scores of encode(row): the reference. */
std::vector<double>
referenceScores(const Classifier &clf, std::span<const double> row)
{
    const hdc::IntHv h = clf.encoder().encode(row);
    return clf.config().compressModel ? clf.compressedModel().scores(h)
                                      : clf.uncompressedModel().scores(h);
}

/** Rows where predict() and the reference argmax differ, each with
 * the reference's top-two gap (a tie is a gap within rounding). */
std::string
argmaxMismatches(const Classifier &clf, const data::Dataset &test)
{
    std::ostringstream out;
    for (std::size_t i = 0; i < test.size(); ++i) {
        const std::vector<double> ref = referenceScores(clf, test.row(i));
        const std::size_t best = hdc::argmax(ref);
        const std::size_t got = clf.predict(test.row(i));
        if (got != best)
            out << " row " << i << ": table " << got << ", reference "
                << best << " (gap " << ref[best] - ref[got] << ")";
    }
    return out.str();
}

std::vector<std::vector<double>>
allScores(const Classifier &clf, const data::Dataset &test)
{
    std::vector<std::vector<double>> out;
    for (std::size_t i = 0; i < test.size(); ++i)
        out.push_back(clf.scores(test.row(i)));
    return out;
}

std::string
saved(const Classifier &clf)
{
    std::ostringstream out;
    saveClassifier(clf, out);
    return out.str();
}

Classifier
loaded(const std::string &blob)
{
    std::istringstream in(blob);
    return loadClassifier(in);
}

/** Pins dispatch for a scope, restoring best-available on exit. */
struct ForcedImpl
{
    explicit ForcedImpl(kernels::Impl impl) { kernels::forceImpl(impl); }
    ~ForcedImpl() { kernels::clearForcedImpl(); }
};

TEST(ScoreTable, SameArgmaxAsEncodeAndSearchOnEveryPaperApp)
{
    for (const data::AppSpec &app : data::paperApps()) {
        const data::TrainTest tt = appData(app, 1000);
        for (const bool compress : {true, false}) {
            SCOPED_TRACE(std::string(app.name) +
                         (compress ? " compressed" : " prototypes"));
            Classifier clf(appConfig(app, compress));
            clf.fit(tt.train);
            EXPECT_EQ(argmaxMismatches(clf, tt.test), "");
            const std::size_t paddedClasses = (app.numClasses + 3) / 4 * 4;
            const ScoreTable table =
                compress ? ScoreTable(clf.encoder(), clf.compressedModel())
                         : ScoreTable(clf.encoder(), clf.uncompressedModel());
            EXPECT_EQ(table.tableBytes(),
                      app.numFeatures * app.lookhdQ * paddedClasses *
                          sizeof(double));
        }
    }
}

TEST(ScoreTable, ScaledCompressedScoresKeepTheArgmax)
{
    const data::AppSpec &app = data::appByName("PHYSICAL");
    const data::TrainTest tt = appData(app, 1000);
    ClassifierConfig cfg = appConfig(app, true);
    cfg.compression.scaleScores = true;
    Classifier clf(cfg);
    clf.fit(tt.train);
    EXPECT_EQ(argmaxMismatches(clf, tt.test), "");
}

TEST(ScoreTable, ScoresDoNotDependOnTheMaterializeBudget)
{
    // Chunk rows computed on the fly equal the materialized ones, so
    // the fitted model and its table are the same bits.
    const data::AppSpec &app = data::appByName("EXTRA");
    const data::TrainTest tt = appData(app, 200);
    ClassifierConfig cfg = appConfig(app, true);
    Classifier materialized(cfg);
    materialized.fit(tt.train);
    cfg.encoder.materializeBudgetBytes = 0;
    Classifier onTheFly(cfg);
    onTheFly.fit(tt.train);
    ASSERT_EQ(onTheFly.encoder().materializedBytes(), 0u);
    EXPECT_EQ(allScores(onTheFly, tt.test), allScores(materialized, tt.test));
}

TEST(ScoreTable, SaveLoadGivesIdenticalScores)
{
    const data::AppSpec &app = data::appByName("PHYSICAL");
    const data::TrainTest tt = appData(app, 300);
    for (const bool compress : {true, false}) {
        Classifier clf(appConfig(app, compress));
        clf.fit(tt.train);
        const Classifier back = loaded(saved(clf));
        EXPECT_EQ(allScores(back, tt.test), allScores(clf, tt.test))
            << (compress ? "compressed" : "prototypes");
    }
}

TEST(ScoreTable, BitIdenticalAcrossImplsBatchesAndThreads)
{
    // Tables built by fit() and by loadClassifier under every kernel
    // Impl score the same bits, one row at a time or batched, at any
    // thread count.
    const data::AppSpec &app = data::appByName("PHYSICAL");
    const data::TrainTest tt = appData(app, 200);
    std::vector<std::span<const double>> rows;
    for (std::size_t i = 0; i < tt.test.size(); ++i)
        rows.push_back(tt.test.row(i));

    std::vector<kernels::Impl> impls;
    for (const kernels::Impl impl :
         {kernels::Impl::kScalar, kernels::Impl::kAvx2,
          kernels::Impl::kAvx512, kernels::Impl::kNeon})
        if (kernels::implAvailable(impl))
            impls.push_back(impl);

    std::vector<std::vector<double>> reference;
    std::string blob;
    {
        const ForcedImpl forced(kernels::Impl::kScalar);
        Classifier clf(appConfig(app, true));
        clf.fit(tt.train);
        reference = allScores(clf, tt.test);
        blob = saved(clf);
    }
    for (const kernels::Impl built : impls) {
        for (const bool fromFile : {false, true}) {
            std::optional<Classifier> clf;
            {
                const ForcedImpl forced(built);
                if (fromFile) {
                    clf.emplace(loaded(blob));
                } else {
                    clf.emplace(appConfig(app, true));
                    clf->fit(tt.train);
                }
                // A loaded model builds its table on first use.
                (void)clf->scores(rows[0]);
            }
            for (const kernels::Impl scored : impls) {
                const ForcedImpl forced(scored);
                SCOPED_TRACE(std::string("built ") +
                             kernels::implName(built) +
                             (fromFile ? " by load" : " by fit") +
                             ", scored " + kernels::implName(scored));
                EXPECT_EQ(allScores(*clf, tt.test), reference);
                EXPECT_EQ(clf->scoresBatch(rows, 1), reference);
                EXPECT_EQ(clf->scoresBatch(rows, 3), reference);
            }
        }
    }
}

TEST(ScoreTable, LoadedModelBuildsItsTableOnceUnderConcurrentFirstUse)
{
    // A loaded model builds its table on first float64 use; threads
    // that all predict first must share one table and its bits.
    const data::AppSpec &app = data::appByName("PHYSICAL");
    const data::TrainTest tt = appData(app, 64);
    Classifier fitted(appConfig(app, true));
    fitted.fit(tt.train);
    const std::vector<std::vector<double>> reference =
        allScores(fitted, tt.test);
    const Classifier clf = loaded(saved(fitted));
    std::vector<std::vector<std::vector<double>>> got(4);
    std::vector<std::thread> threads;
    for (auto &out : got)
        threads.emplace_back(
            [&clf, &tt, &out] { out = allScores(clf, tt.test); });
    for (std::thread &t : threads)
        t.join();
    for (const auto &out : got)
        EXPECT_EQ(out, reference);
}

std::string
loadError(const std::string &seed)
{
    const std::string path =
        std::string(LOOKHD_FUZZ_CORPUS_DIR) + "/load_classifier/" + seed;
    std::ifstream in(path, std::ios::binary);
    EXPECT_TRUE(in) << path;
    try {
        (void)loadClassifier(in);
    } catch (const SerializeError &e) {
        return e.what();
    }
    return "loaded";
}

TEST(ScoreTable, OverCapShapeFailsClosedBeforeAllocating)
{
    // A 42 KB file declaring n = q = k = 1000 would need 10^9 entries
    // (8 GB): the loader must refuse it.
    const std::string error = loadError("score_table_over_cap.bin");
    EXPECT_NE(error.find("entry cap"), std::string::npos) << error;
}

TEST(ScoreTable, OverCapShapeFailsBeforeFitTrains)
{
    // n * q * k = 1024 * 256 * 65 > 2^24: fit() must refuse the shape
    // before it trains anything, leaving the classifier unfitted.
    const std::size_t n = 1024;
    const std::size_t k = 65;
    data::Dataset train(n, k);
    const std::vector<double> row(n, 0.5);
    for (std::size_t label = 0; label < k; ++label)
        train.add(row, label);
    ClassifierConfig cfg;
    cfg.dim = 64;
    cfg.quantLevels = 256;
    Classifier clf(cfg);
    try {
        clf.fit(train);
        ADD_FAILURE() << "fit() accepted an over-cap shape";
    } catch (const util::ContractViolation &e) {
        EXPECT_NE(std::string(e.what()).find("entry cap"),
                  std::string::npos)
            << e.what();
    }
    EXPECT_FALSE(clf.fitted());
}

TEST(ScoreTable, NaNBoundaryFailsClosed)
{
    const std::string error = loadError("nan_boundary.bin");
    EXPECT_NE(error.find("NaN"), std::string::npos) << error;
}

} // namespace
