/**
 * @file
 * Parallel-equivalence tests for the batched predict path and the
 * parallel counter trainer: predictBatch / scoresBatch must return
 * bit-identical results for any thread count and any kernel, and
 * must match the single-sample predict()/scores() loop exactly; a
 * counter trainer sharded across N threads must produce the exact
 * same model as the serial one. The suite runs under TSan in CI.
 */

#include <gtest/gtest.h>

#include <span>
#include <vector>

#include "data/synthetic.hpp"
#include "hdc/kernels.hpp"
#include "hdc/similarity.hpp"
#include "lookhd/classifier.hpp"
#include "lookhd/counter_trainer.hpp"

namespace {

using namespace lookhd;
namespace kernels = lookhd::hdc::kernels;

data::SyntheticSpec
spec4(std::uint64_t seed)
{
    data::SyntheticSpec spec;
    spec.numFeatures = 40;
    spec.numClasses = 4;
    spec.seed = seed;
    return spec;
}

ClassifierConfig
smallConfig(bool compress)
{
    ClassifierConfig cfg;
    cfg.dim = 1000;
    cfg.quantLevels = 4;
    cfg.chunkSize = 5;
    cfg.retrainEpochs = 3;
    cfg.compressModel = compress;
    return cfg;
}

std::vector<std::span<const double>>
allRows(const data::Dataset &ds)
{
    std::vector<std::span<const double>> rows;
    rows.reserve(ds.size());
    for (std::size_t i = 0; i < ds.size(); ++i)
        rows.push_back(ds.row(i));
    return rows;
}

class BatchPredict : public ::testing::TestWithParam<bool>
{
};

TEST_P(BatchPredict, BatchScoresEqualSingleSampleScoresBitwise)
{
    auto [train, test] = data::makeTrainTest(spec4(31), 300, 60);
    Classifier clf(smallConfig(GetParam()));
    clf.fit(train);

    const auto rows = allRows(test);
    const std::vector<std::vector<double>> batch =
        clf.scoresBatch(rows, 1);
    ASSERT_EQ(batch.size(), test.size());
    for (std::size_t i = 0; i < test.size(); ++i) {
        // operator== on vector<double> is exact: the batch path
        // runs the same kernels in the same order per sample.
        EXPECT_EQ(batch[i], clf.scores(test.row(i))) << "row " << i;
    }
}

TEST_P(BatchPredict, ThreadCountNeverChangesScores)
{
    // Batches too small to pay for a thread run inline; 4,000 float64
    // rows of this shape are work enough for several threads.
    auto [train, test] = data::makeTrainTest(spec4(33), 300, 4000);
    Classifier clf(smallConfig(GetParam()));
    clf.fit(train);

    const auto rows = allRows(test);
    const auto serial = clf.scoresBatch(rows, 1);
    for (const std::size_t threads : {2u, 7u}) {
        const auto parallel = clf.scoresBatch(rows, threads);
        ASSERT_EQ(parallel.size(), serial.size());
        for (std::size_t i = 0; i < serial.size(); ++i)
            EXPECT_EQ(parallel[i], serial[i])
                << "threads=" << threads << " row " << i;
    }
}

TEST_P(BatchPredict, PredictBatchLabelsMatchPredictLoop)
{
    auto [train, test] = data::makeTrainTest(spec4(35), 300, 60);
    Classifier clf(smallConfig(GetParam()));
    clf.fit(train);

    const auto rows = allRows(test);
    for (const std::size_t threads : {1u, 2u, 7u}) {
        const std::vector<std::size_t> labels =
            clf.predictBatch(rows, threads);
        ASSERT_EQ(labels.size(), test.size());
        for (std::size_t i = 0; i < test.size(); ++i)
            EXPECT_EQ(labels[i], clf.predict(test.row(i)))
                << "threads=" << threads << " row " << i;
    }
}

TEST_P(BatchPredict, ScoresIdenticalAcrossKernelImpls)
{
    auto [train, test] = data::makeTrainTest(spec4(37), 300, 60);
    Classifier clf(smallConfig(GetParam()));
    clf.fit(train);
    const auto rows = allRows(test);

    kernels::forceImpl(kernels::Impl::kScalar);
    const auto scalar = clf.scoresBatch(rows, 1);
    kernels::clearForcedImpl();
    if (!kernels::implAvailable(kernels::Impl::kAvx2))
        GTEST_SKIP() << "AVX2 unavailable; scalar-only host";
    kernels::forceImpl(kernels::Impl::kAvx2);
    const auto avx2 = clf.scoresBatch(rows, 1);
    kernels::clearForcedImpl();

    ASSERT_EQ(avx2.size(), scalar.size());
    for (std::size_t i = 0; i < scalar.size(); ++i)
        EXPECT_EQ(avx2[i], scalar[i]) << "row " << i;
}

TEST_P(BatchPredict, EmptyBatchYieldsEmptyResult)
{
    auto [train, test] = data::makeTrainTest(spec4(39), 200, 10);
    Classifier clf(smallConfig(GetParam()));
    clf.fit(train);
    const std::vector<std::span<const double>> none;
    EXPECT_TRUE(clf.scoresBatch(none, 4).empty());
    EXPECT_TRUE(clf.predictBatch(none, 4).empty());
}

INSTANTIATE_TEST_SUITE_P(Models, BatchPredict,
                         ::testing::Values(true, false),
                         [](const auto &info) {
                             return info.param ? "Compressed"
                                               : "Uncompressed";
                         });

TEST(BatchPredictTraining, ParallelCounterTrainingIsBitExact)
{
    auto [train, test] = data::makeTrainTest(spec4(41), 400, 80);
    for (const bool compress : {true, false}) {
        ClassifierConfig cfg = smallConfig(compress);
        Classifier serial(cfg);
        serial.fit(train);
        for (const std::size_t threads : {2u, 7u}) {
            cfg.counters.threads = threads;
            Classifier parallel(cfg);
            parallel.fit(train);
            EXPECT_EQ(parallel.retrainHistory(),
                      serial.retrainHistory())
                << "threads=" << threads;
            for (std::size_t i = 0; i < test.size(); ++i)
                EXPECT_EQ(parallel.scores(test.row(i)),
                          serial.scores(test.row(i)))
                    << "threads=" << threads << " row " << i;
        }
    }
}

TEST(BatchPredictTraining, ParallelTrainedClassModelIsBitExact)
{
    // Below the classifier facade: the trainer's sharded counting
    // and parallel finalize must reproduce the serial counters'
    // class hypervectors integer-for-integer.
    data::SyntheticProblem problem(spec4(43));
    const data::Dataset train = problem.sample(150);

    ClassifierConfig cfg = smallConfig(false);
    Classifier probe(cfg);
    probe.fit(train);
    const LookupEncoder &encoder = probe.encoder();

    CounterTrainerConfig serialCfg;
    serialCfg.threads = 1;
    const hdc::ClassModel serial =
        CounterTrainer(encoder, serialCfg).train(train);
    for (const std::size_t threads : {0u, 2u, 7u}) {
        CounterTrainerConfig parCfg;
        parCfg.threads = threads;
        const hdc::ClassModel parallel =
            CounterTrainer(encoder, parCfg).train(train);
        for (std::size_t c = 0; c < train.numClasses(); ++c)
            EXPECT_EQ(parallel.classHv(c), serial.classHv(c))
                << "threads=" << threads << " class " << c;
    }
}

} // namespace
