/**
 * @file
 * Regenerates paper Fig. 3: the skewed distribution of feature values
 * (5% sample of the SPEECH workload) and where the linear vs the
 * proposed equalized quantization place their level boundaries.
 */

#include "common.hpp"
#include "quant/quantizer.hpp"
#include "util/histogram.hpp"
#include "util/stats.hpp"

int
main(int argc, char **argv)
{
    using namespace lookhd;
    bench::BenchReporter rep("fig03_quantization", argc, argv);
    bench::banner("Fig. 3: feature-value distribution and quantization "
                  "boundaries (SPEECH, q = 4)");

    const auto &app = data::appByName("SPEECH");
    auto tt = bench::appData(app);
    util::Rng rng(5);
    const auto sample = tt.train.sampleValues(0.05, rng);

    // Plot range: clip the extreme tail for readability.
    std::vector<double> clipped = sample;
    const double hi = util::quantile(clipped, 0.99);
    util::Histogram hist(0.0, hi, 24);
    hist.addAll(sample);
    std::printf("Feature-value distribution (5%% sample, 99th "
                "percentile clip):\n%s\n",
                hist.render(48).c_str());

    auto show = [&](const char *name, const quant::Quantizer &q) {
        std::printf("%s boundaries:", name);
        for (double b : q.boundaries())
            std::printf(" %.3f", b);
        std::printf("   level occupancy:");
        for (auto c : quant::occupancy(q, sample))
            std::printf(" %.1f%%",
                        100.0 * static_cast<double>(c) /
                            static_cast<double>(sample.size()));
        std::printf("\n");
    };
    show("linear   ", quant::fitLinear(sample, 4));
    show("equalized", quant::fitEqualized(sample, 4));

    std::printf("\nPaper: feature values are non-uniform; linear "
                "levels go mostly unused while equalized boundaries "
                "give every level an equal share (Fig. 3b).\n");
    rep.write();
    return 0;
}
