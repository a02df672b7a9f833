/**
 * @file
 * Regenerates the Sec. VII accuracy comparison: binarized-model HDC
 * (the binary frameworks of prior work) vs LookHD's non-binary model.
 * The paper reports the binary model averages 17.5% below LookHD on
 * practical workloads.
 */

#include <memory>

#include "common.hpp"

int
main(int argc, char **argv)
{
    using namespace lookhd;
    bench::BenchReporter rep("binary_vs_lookhd", argc, argv);
    bench::banner("Sec. VII: binary HDC model vs LookHD accuracy");

    util::Table table({"App", "LookHD non-binary (exact)",
                       "binary model", "gap", "binary size gain"});
    double gap_sum = 0.0;
    for (const auto &app : data::paperApps()) {
        const auto tt = bench::appData(app);

        // Exact (uncompressed) LookHD model, so the only difference
        // between the two columns is binarization itself.
        ClassifierConfig cfg = bench::appConfig(app);
        cfg.compressModel = false;
        Classifier clf(cfg);
        clf.fit(tt.train);
        const double look_acc = clf.evaluate(tt.test);

        // Binarize the same trained model: its sign-packed serving
        // form, one bit per dimension per class.
        const hdc::ClassModel &model = clf.uncompressedModel();
        const QuantizedServingModel binary =
            QuantizedServingModel::fromClassModel(model);
        std::size_t ok = 0;
        for (std::size_t i = 0; i < tt.test.size(); ++i)
            ok += bench::predictBinary(
                      binary, clf.encoder().encode(tt.test.row(i))) ==
                  tt.test.label(i);
        const double bin_acc =
            static_cast<double>(ok) /
            static_cast<double>(tt.test.size());
        const std::size_t binary_bytes =
            (model.numClasses() * model.dim() + 7) / 8;
        gap_sum += look_acc - bin_acc;
        table.addRow(
            {app.name, util::fmtPercent(look_acc),
             util::fmtPercent(bin_acc),
             util::fmtPercent(look_acc - bin_acc),
             util::fmtRatio(static_cast<double>(model.sizeBytes()) /
                            static_cast<double>(binary_bytes))});
    }
    std::printf("%s", table.render().c_str());
    std::printf("\nAverage gap: %s. Paper: binary frameworks average "
                "17.5%% below LookHD on its real datasets. On these "
                "synthetic stand-ins most class information survives "
                "in the sign pattern (and binarization even strips "
                "part of the common component), so the measured gap "
                "is small; the qualitative point - binarization never "
                "helps the non-binary model's margins and costs "
                "accuracy on magnitude-sensitive data - is discussed "
                "in EXPERIMENTS.md.\n",
                util::fmtPercent(gap_sum / 5.0).c_str());
    rep.write();
    return 0;
}
