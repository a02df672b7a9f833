/**
 * @file
 * Ablation: training strategies on the uncompressed model.
 *
 * Compares (a) plain initial training (class sums), (b) initial +
 * perceptron retraining for 5/10 epochs, and (c) OnlineHD-style
 * adaptive training for 1/2 passes - the single-pass on-device
 * alternative the paper cites as [13]. Reports test accuracy and
 * passes over the data.
 */

#include <memory>

#include "common.hpp"
#include "hdc/online_trainer.hpp"
#include "hdc/trainer.hpp"
#include "lookhd/counter_trainer.hpp"
#include "quant/quantizer_bank.hpp"

int
main(int argc, char **argv)
{
    using namespace lookhd;
    bench::BenchReporter rep("ablation_training", argc, argv);
    using namespace lookhd::hdc;
    bench::banner("Ablation: plain vs retrained vs adaptive (online) "
                  "training");

    for (const char *name : {"ACTIVITY", "PHYSICAL", "EXTRA"}) {
        const auto &app = data::appByName(name);
        const auto tt = bench::appData(app);

        util::Rng rng(13);
        auto levels = std::make_shared<LevelMemory>(
            2000, app.lookhdQ, rng);
        LookupEncoder encoder(
            levels,
            quant::QuantizerBank(
                quant::fitEqualized(tt.train.allValues(), app.lookhdQ),
                app.numFeatures),
            ChunkSpec(app.numFeatures, app.chunkSize), rng);

        std::vector<IntHv> enc_train, enc_test;
        for (std::size_t i = 0; i < tt.train.size(); ++i)
            enc_train.push_back(encoder.encode(tt.train.row(i)));
        for (std::size_t i = 0; i < tt.test.size(); ++i)
            enc_test.push_back(encoder.encode(tt.test.row(i)));

        auto test_acc = [&](const ClassModel &model) {
            return evaluateEncoded(model, enc_test,
                                   tt.test.labels());
        };

        util::Table table({"strategy", "data passes", "test acc"});

        CounterTrainer counter(encoder);
        ClassModel initial = counter.train(tt.train);
        table.addRow({"initial (counter) only", "1",
                      util::fmtPercent(test_acc(initial))});

        // Perceptron retraining uses a dummy BaselineEncoder-free
        // path: re-run the update loop on the encoded points.
        for (std::size_t epochs : {5, 10}) {
            ClassModel model = counter.train(tt.train);
            for (std::size_t e = 0; e < epochs; ++e) {
                for (std::size_t i = 0; i < enc_train.size(); ++i) {
                    const std::size_t pred =
                        model.predict(enc_train[i]);
                    if (pred != tt.train.label(i)) {
                        model.update(tt.train.label(i), pred,
                                     enc_train[i]);
                        model.normalize();
                    }
                }
            }
            table.addRow(
                {"initial + retrain x" + std::to_string(epochs),
                 std::to_string(1 + epochs),
                 util::fmtPercent(test_acc(model))});
        }

        for (std::size_t passes : {1, 2}) {
            OnlineTrainOptions opts;
            opts.epochs = passes;
            const OnlineTrainResult adaptive = onlineTrain(
                enc_train, tt.train.labels(), 2000,
                app.numClasses, opts);
            table.addRow({"adaptive (OnlineHD) x" +
                              std::to_string(passes),
                          std::to_string(passes),
                          util::fmtPercent(test_acc(adaptive.model))});
        }
        std::printf("%s:\n%s\n", name, table.render().c_str());
    }
    std::printf("Adaptive single-pass training approaches the "
                "retrained accuracy with a fraction of the passes - "
                "the OnlineHD result the paper cites.\n");
    rep.write();
    return 0;
}
