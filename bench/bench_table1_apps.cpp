/**
 * @file
 * Regenerates paper Table I: the characteristics of the five
 * applications (n, q, k), the baseline-HD accuracy at the paper's
 * quantization, and the infeasible size of a naive full-vector lookup
 * table (log2 of q^n rows).
 */

#include <cmath>
#include <memory>

#include "common.hpp"
#include "hdc/encoder.hpp"
#include "hdc/trainer.hpp"
#include "quant/quantizer.hpp"

namespace {

using namespace lookhd;

/** Baseline HDC accuracy with linear quantization at the paper's q. */
double
baselineAccuracy(const data::AppSpec &app, const data::TrainTest &tt)
{
    util::Rng rng(11);
    auto levels =
        std::make_shared<hdc::LevelMemory>(2000, app.paperQ, rng);
    hdc::BaselineEncoder encoder(
        levels, quant::fitLinear(tt.train.allValues(), app.paperQ));
    hdc::BaselineTrainer trainer(encoder);
    hdc::TrainOptions opts;
    opts.retrainEpochs = 5;
    const auto result = trainer.train(tt.train, opts);
    return trainer.evaluate(result.model, tt.test);
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace lookhd;
    bench::BenchReporter rep("table1_apps", argc, argv);
    bench::banner("Table I: application characteristics and the naive "
                  "lookup size");

    util::Table table({"Application", "n", "q", "k", "HD accuracy",
                       "paper acc.", "naive lookup rows (log2)"});
    for (const auto &app : data::paperApps()) {
        const auto tt = bench::appData(app);
        const double acc = baselineAccuracy(app, tt);
        // log2(q^n) = n * log2(q): the Table I "Lookup Size" exponent.
        const double log2_rows =
            static_cast<double>(app.numFeatures) *
            std::log2(static_cast<double>(app.paperQ));
        table.addRow({app.name, std::to_string(app.numFeatures),
                      std::to_string(app.paperQ),
                      std::to_string(app.numClasses),
                      util::fmtPercent(acc),
                      util::fmtPercent(app.paperAccuracy),
                      "2^" + util::fmt(log2_rows, 0)});
    }
    std::printf("%s", table.render().c_str());
    std::printf("\nPaper Table I exponents: SPEECH 2^2468, ACTIVITY "
                "2^1683, PHYSICAL 2^156, FACE 2^432, EXTRA 2^900\n"
                "(PHYSICAL/FACE/EXTRA paper rows correspond to q=8/q=2/"
                "q=16 variants; the point - far beyond any memory - "
                "holds regardless).\n");
    rep.write();
    return 0;
}
