/**
 * @file
 * lookhd_train: train a LookHD classifier on a CSV dataset and save
 * the model.
 *
 * Usage:
 *   lookhd_train --input data.csv --output model.bin
 *                [--dim 2000] [--q 4] [--r 5] [--epochs 10]
 *                [--seed 42] [--test-fraction 0.2] [--threads 1]
 *                [--linear] [--per-feature] [--no-compress]
 *                [--label-first] [--skip-rows N] [--quiet]
 *                [--metrics-out metrics.json]
 *                [--quality-out quality.json]
 *                [--trace-out trace.json]
 *                [--profile-out profile.txt] [--profile-hz 99]
 *
 * --metrics-out dumps the obs metric registry (counters, gauges,
 * latency histograms) as JSON after training; --quality-out dumps
 * the quality telemetry (held-out confusion counters + margin
 * histograms; empty under -DLOOKHD_OBS=OFF); --trace-out records
 * trace spans during the run and writes a Chrome trace_event file
 * viewable in about:tracing / Perfetto.
 *
 * The CSV layout is features...,label (or label,features... with
 * --label-first). A held-out test split reports accuracy and the
 * confusion matrix before the model is written.
 */

#include <cstdio>
#include <fstream>

#include "cli.hpp"
#include "data/csv.hpp"
#include "data/metrics.hpp"
#include "hdc/similarity.hpp"
#include "lookhd/serialize.hpp"
#include "obs/obs.hpp"
#include "profile_cli.hpp"
#include "version.hpp"

namespace {

constexpr const char *kUsage =
    "usage: lookhd_train --input data.csv --output model.bin\n"
    "                    [--dim 2000] [--q 4] [--r 5] [--epochs 10]\n"
    "                    [--seed 42] [--test-fraction 0.2]\n"
    "                    [--threads 1]\n"
    "                    [--linear] [--per-feature] [--no-compress]\n"
    "                    [--label-first] [--skip-rows N] [--quiet]\n"
    "                    [--metrics-out metrics.json]\n"
    "                    [--quality-out quality.json]\n"
    "                    [--trace-out trace.json]\n"
    "                    [--profile-out profile.txt]\n"
    "                    [--profile-hz 99]\n"
    "\n"
    "Trains a LookHD classifier on the CSV and writes the model.\n"
    "  --threads N         counter-training threads (1 = serial,\n"
    "                      0 = one per hardware thread); any value\n"
    "                      trains the exact same model\n"
    "  --metrics-out FILE  dump the obs metric registry as JSON\n"
    "  --quality-out FILE  dump quality telemetry (held-out\n"
    "                      confusion counters + margin histograms)\n"
    "                      as JSON; sections are empty when the\n"
    "                      build has observability compiled out\n"
    "  --trace-out FILE    record spans, write a Chrome trace\n"
    "  --profile-out FILE  sample the run with the CPU profiler and\n"
    "                      write speedscope JSON (.json) or\n"
    "                      collapsed stacks (anything else)\n"
    "  --profile-hz N      profiler sampling rate (default 99)\n";

} // namespace

int
main(int argc, char **argv)
{
    using namespace lookhd;
    try {
        using tools::Opt;
        const tools::Args args(
            argc, argv,
            {{"input", Opt::kText},         {"output", Opt::kText},
             {"dim", Opt::kCount},          {"q", Opt::kCount},
             {"r", Opt::kCount},            {"epochs", Opt::kCount},
             {"seed", Opt::kCount},         {"test-fraction", Opt::kNumber},
             {"threads", Opt::kCount},      {"linear", Opt::kFlag},
             {"per-feature", Opt::kFlag},   {"no-compress", Opt::kFlag},
             {"label-first", Opt::kFlag},   {"skip-rows", Opt::kCount},
             {"quiet", Opt::kFlag},         {"metrics-out", Opt::kText},
             {"quality-out", Opt::kText},   {"trace-out", Opt::kText},
             {"profile-out", Opt::kText},   {"profile-hz", Opt::kCount},
             {"help", Opt::kFlag},          {"version", Opt::kFlag}});
        if (args.has("help")) {
            std::printf("%s", kUsage);
            return 0;
        }
        if (tools::handleVersionFlag(args, "lookhd_train"))
            return 0;

        const std::string trace_out = args.get("trace-out", "");
        if (!trace_out.empty())
            obs::setTracing(true);
        const std::string profile_out = args.get("profile-out", "");
        tools::startProfile(profile_out,
                            args.getInt("profile-hz", 0));

        data::CsvOptions csv;
        csv.labelColumn = args.has("label-first")
                              ? data::LabelColumn::kFirst
                              : data::LabelColumn::kLast;
        csv.skipRows =
            static_cast<std::size_t>(args.getInt("skip-rows", 0));
        const data::Dataset full =
            data::readCsvFile(args.require("input"), csv);

        ClassifierConfig cfg;
        cfg.dim = static_cast<std::size_t>(args.getInt("dim", 2000));
        cfg.quantLevels =
            static_cast<std::size_t>(args.getInt("q", 4));
        cfg.chunkSize = static_cast<std::size_t>(args.getInt("r", 5));
        cfg.retrainEpochs =
            static_cast<std::size_t>(args.getInt("epochs", 10));
        cfg.seed = static_cast<std::uint64_t>(args.getInt("seed", 42));
        cfg.counters.threads =
            static_cast<std::size_t>(args.getInt("threads", 1));
        if (args.has("linear"))
            cfg.quantization = QuantizationKind::kLinear;
        cfg.perFeatureQuantization = args.has("per-feature");
        cfg.compressModel = !args.has("no-compress");

        const double test_fraction =
            args.getDouble("test-fraction", 0.2);
        util::Rng split_rng(cfg.seed ^ 0x5eedULL);

        const std::string quality_out = args.get("quality-out", "");

        Classifier clf(cfg);
        if (test_fraction > 0.0 && test_fraction < 1.0 &&
            full.size() >= 10) {
            const auto [train, test] =
                full.split(1.0 - test_fraction, split_rng);
            clf.fit(train);
            if (!args.has("quiet") || !quality_out.empty()) {
                data::ConfusionMatrix cm(test.numClasses());
                for (std::size_t i = 0; i < test.size(); ++i) {
                    const std::vector<double> scores =
                        clf.scores(test.row(i));
                    LOOKHD_QUALITY_OUTCOME("train.test",
                                           test.label(i), scores);
                    cm.add(test.label(i), hdc::argmax(scores));
                }
                if (!args.has("quiet")) {
                    std::printf("train: %zu points, test: %zu "
                                "points\n",
                                train.size(), test.size());
                    std::printf("test accuracy: %.2f%%  macro-F1: "
                                "%.3f\n",
                                100.0 * cm.accuracy(), cm.macroF1());
                    if (full.numClasses() <= 16)
                        std::printf("%s", cm.render().c_str());
                }
            }
        } else {
            clf.fit(full);
            if (!args.has("quiet"))
                std::printf("trained on all %zu points (no test "
                            "split)\n",
                            full.size());
        }

        saveClassifierFile(clf, args.require("output"));
        if (!args.has("quiet")) {
            std::printf("model written to %s (%zu model bytes)\n",
                        args.require("output").c_str(),
                        clf.modelSizeBytes());
        }

        const std::string metrics_out = args.get("metrics-out", "");
        if (!metrics_out.empty()) {
            std::ofstream out(metrics_out);
            if (!out)
                throw std::runtime_error("cannot write " + metrics_out);
            out << obs::MetricRegistry::global().toJson() << "\n";
        }
        if (!quality_out.empty()) {
            std::ofstream out(quality_out);
            if (!out)
                throw std::runtime_error("cannot write " + quality_out);
            out << obs::QualityTelemetry::global().toJson() << "\n";
        }
        if (!trace_out.empty() &&
            !obs::writeChromeTraceFile(trace_out))
            throw std::runtime_error("cannot write " + trace_out);
        tools::writeProfile(profile_out);
        return 0;
    } catch (const std::exception &e) {
        std::fprintf(stderr, "lookhd_train: %s\n", e.what());
        return 1;
    }
}
