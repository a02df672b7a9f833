/**
 * @file
 * google-benchmark microbenchmarks of the real C++ kernels: measured
 * wall-clock counterpart to the analytical CPU model. The interesting
 * ratios are baseline-encode vs lookup-encode, sequential-sum
 * training vs counter training, and uncompressed vs compressed
 * search.
 */

#include <benchmark/benchmark.h>

#include <memory>

#include "data/apps.hpp"
#include "hdc/encoder.hpp"
#include "hdc/trainer.hpp"
#include "lookhd/compressed_model.hpp"
#include "lookhd/counter_trainer.hpp"
#include "quant/quantizer_bank.hpp"

namespace {

using namespace lookhd;

/** Everything the kernels need, built once per benchmark family. */
struct Env
{
    data::Dataset train;
    data::Dataset test;
    std::shared_ptr<hdc::LevelMemory> levels;
    std::unique_ptr<hdc::BaselineEncoder> baseEncoder;
    std::unique_ptr<LookupEncoder> lookEncoder;
    std::unique_ptr<hdc::ClassModel> model;
    std::unique_ptr<CompressedModel> compressed;
    std::vector<hdc::IntHv> queries;

    Env() : train(1, 1), test(1, 1)
    {
        const auto &app = data::appByName("SPEECH");
        auto tt = data::makeTrainTest(app.synthetic(1),
                                      20 * app.numClasses,
                                      4 * app.numClasses);
        train = std::move(tt.train);
        test = std::move(tt.test);

        util::Rng rng(17);
        levels = std::make_shared<hdc::LevelMemory>(2000, 4, rng);
        const quant::Quantizer quantizer =
            quant::fitEqualized(train.allValues(), 4);
        baseEncoder = std::make_unique<hdc::BaselineEncoder>(
            levels, quantizer);
        lookEncoder = std::make_unique<LookupEncoder>(
            levels, quant::QuantizerBank(quantizer, app.numFeatures),
            ChunkSpec(app.numFeatures, 5), rng);

        CounterTrainer trainer(*lookEncoder);
        model = std::make_unique<hdc::ClassModel>(
            trainer.train(train));
        util::Rng key_rng(19);
        compressed = std::make_unique<CompressedModel>(
            *model, key_rng, CompressionConfig{});
        for (std::size_t i = 0; i < test.size(); ++i)
            queries.push_back(lookEncoder->encode(test.row(i)));
    }
};

Env &
env()
{
    static Env instance;
    return instance;
}

void
BM_BaselineEncode(benchmark::State &state)
{
    Env &e = env();
    std::size_t i = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            e.baseEncoder->encode(e.train.row(i)));
        i = (i + 1) % e.train.size();
    }
}
BENCHMARK(BM_BaselineEncode);

void
BM_LookupEncode(benchmark::State &state)
{
    Env &e = env();
    std::size_t i = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            e.lookEncoder->encode(e.train.row(i)));
        i = (i + 1) % e.train.size();
    }
}
BENCHMARK(BM_LookupEncode);

void
BM_BaselineTrainFull(benchmark::State &state)
{
    Env &e = env();
    for (auto _ : state) {
        hdc::BaselineTrainer trainer(*e.baseEncoder);
        hdc::TrainOptions opts;
        opts.retrainEpochs = 0;
        benchmark::DoNotOptimize(trainer.train(e.train, opts));
    }
}
BENCHMARK(BM_BaselineTrainFull);

void
BM_CounterTrainFull(benchmark::State &state)
{
    Env &e = env();
    for (auto _ : state) {
        CounterTrainer trainer(*e.lookEncoder);
        benchmark::DoNotOptimize(trainer.train(e.train));
    }
}
BENCHMARK(BM_CounterTrainFull);

void
BM_UncompressedSearch(benchmark::State &state)
{
    Env &e = env();
    std::size_t i = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(e.model->scores(e.queries[i]));
        i = (i + 1) % e.queries.size();
    }
}
BENCHMARK(BM_UncompressedSearch);

void
BM_CompressedSearch(benchmark::State &state)
{
    Env &e = env();
    std::size_t i = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            e.compressed->scores(e.queries[i]));
        i = (i + 1) % e.queries.size();
    }
}
BENCHMARK(BM_CompressedSearch);

void
BM_QuantizeOnly(benchmark::State &state)
{
    Env &e = env();
    std::size_t i = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            e.lookEncoder->quantize(e.train.row(i)));
        i = (i + 1) % e.train.size();
    }
}
BENCHMARK(BM_QuantizeOnly);

void
BM_CompressedUpdate(benchmark::State &state)
{
    Env &e = env();
    CompressedModel copy = *e.compressed;
    std::size_t i = 0;
    for (auto _ : state) {
        copy.applyUpdate(0, 1, e.queries[i], 1e-3);
        i = (i + 1) % e.queries.size();
    }
}
BENCHMARK(BM_CompressedUpdate);

} // namespace

BENCHMARK_MAIN();
