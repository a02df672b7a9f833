/**
 * @file
 * lookhd_info: inspect a saved LookHD model.
 *
 * Usage:
 *   lookhd_info --model model.bin [--help] [--version]
 */

#include <cstdio>

#include "cli.hpp"
#include "lookhd/serialize.hpp"
#include "version.hpp"

namespace {

constexpr const char *kUsage =
    "usage: lookhd_info --model model.bin [--help] [--version]\n"
    "\n"
    "Prints the configuration, geometry and deployed size of a saved\n"
    "LookHD model.\n"
    "  --version           print build identity and exit\n";

} // namespace

int
main(int argc, char **argv)
{
    using namespace lookhd;
    try {
        const tools::Args args(argc, argv,
                               {{"model", tools::Opt::kText},
                                {"help", tools::Opt::kFlag},
                                {"version", tools::Opt::kFlag}});
        if (args.has("help")) {
            std::printf("%s", kUsage);
            return 0;
        }
        if (tools::handleVersionFlag(args, "lookhd_info"))
            return 0;
        const Classifier clf =
            loadClassifierFile(args.require("model"));
        const ClassifierConfig &cfg = clf.config();
        const LookupEncoder &enc = clf.encoder();

        std::printf("LookHD model\n");
        std::printf("  dimensionality D      %zu\n", cfg.dim);
        std::printf("  quantization          %s, q = %zu%s\n",
                    cfg.quantization == QuantizationKind::kEqualized
                        ? "equalized"
                        : "linear",
                    cfg.quantLevels,
                    cfg.perFeatureQuantization ? " (per-feature)"
                                               : "");
        std::printf("  features / chunks     %zu features, %zu "
                    "chunks of r = %zu\n",
                    enc.chunks().numFeatures(),
                    enc.chunks().numChunks(), cfg.chunkSize);
        std::printf("  classes               %zu\n",
                    clf.uncompressedModel().numClasses());
        if (cfg.compressModel) {
            const CompressedModel &cm = clf.compressedModel();
            std::printf("  compression           %zu group(s), "
                        "decorrelate %s\n",
                        cm.numGroups(),
                        cfg.compression.decorrelate ? "on" : "off");
        } else {
            std::printf("  compression           off\n");
        }
        std::printf("  deployed model size   %zu bytes\n",
                    clf.modelSizeBytes());
        std::printf("  uncompressed size     %zu bytes\n",
                    clf.uncompressedModel().sizeBytes());
        if (!clf.retrainHistory().empty()) {
            std::printf("  retrain curve        ");
            for (double acc : clf.retrainHistory())
                std::printf(" %.3f", acc);
            std::printf("\n");
        }
        return 0;
    } catch (const std::exception &e) {
        std::fprintf(stderr, "lookhd_info: %s\n", e.what());
        return 1;
    }
}
