/**
 * @file
 * Online / incremental learning example: the IoT scenario where data
 * arrives in batches and the device keeps learning after deployment.
 * Counter-based training makes this natural - the counters are the
 * sufficient statistics of the training set, so new batches just
 * increment counters and the model is re-finalized on demand, without
 * storing any raw data or encodings.
 */

#include <cstdio>
#include <memory>

#include "data/synthetic.hpp"
#include "lookhd/counter_trainer.hpp"
#include "lookhd/retrainer.hpp"
#include "quant/quantizer_bank.hpp"

int
main()
{
    using namespace lookhd;

    data::SyntheticSpec spec;
    spec.numFeatures = 64;
    spec.numClasses = 6;
    spec.classSeparation = 0.9;
    spec.informativeFraction = 0.6;
    spec.seed = 5;
    data::SyntheticProblem problem(spec);
    const data::Dataset calibration = problem.sample(300);
    const data::Dataset test = problem.sample(300);

    // Fit quantizer and build the encoder once from a calibration
    // batch; streams then reuse them.
    util::Rng rng(11);
    auto levels = std::make_shared<hdc::LevelMemory>(2000, 4, rng);
    LookupEncoder encoder(
        levels,
        quant::QuantizerBank(quant::fitEqualized(calibration.allValues(), 4),
                             spec.numFeatures),
        ChunkSpec(spec.numFeatures, 5), rng);

    CounterTrainer trainer(encoder);
    CounterTrainerConfig ccfg;
    CounterBank bank(encoder, spec.numClasses, ccfg);

    std::printf("batch  cumulative-samples  test-accuracy\n");
    std::size_t seen = 0;
    for (int batch = 1; batch <= 6; ++batch) {
        // A new batch of labeled data arrives on-device. Counting is
        // the only per-sample work: one quantization pass and m
        // counter increments - no hypervector is touched.
        const data::Dataset chunk = problem.sample(120);
        for (std::size_t i = 0; i < chunk.size(); ++i)
            bank.observe(chunk.label(i),
                         encoder.chunkAddresses(chunk.row(i)));
        seen += chunk.size();

        // Re-finalize (weighted accumulation) and compress whenever a
        // fresh model is needed.
        hdc::ClassModel model = trainer.finalize(bank);
        util::Rng key_rng(17);
        CompressedModel compressed(model, key_rng, {});
        Retrainer retrainer(encoder);
        std::size_t ok = 0;
        for (std::size_t i = 0; i < test.size(); ++i) {
            ok += compressed.predict(encoder.encode(test.row(i))) ==
                  test.label(i);
        }
        std::printf("%5d  %18zu  %12.1f%%\n", batch, seen,
                    100.0 * static_cast<double>(ok) /
                        static_cast<double>(test.size()));
    }

    std::printf("\nThe counter bank is the entire training state: "
                "new data only increments counters, and finalize() "
                "rebuilds the model from them at any time.\n");
    return 0;
}
