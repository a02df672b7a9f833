/**
 * @file
 * lookhd_predict: classify a CSV dataset with a saved model.
 *
 * Usage:
 *   lookhd_predict --model model.bin --input data.csv
 *                  [--threads 1] [--batch 64]
 *                  [--label-first] [--skip-rows N] [--quiet]
 *                  [--metrics-out metrics.json]
 *                  [--quality-out quality.json]
 *                  [--trace-out trace.json]
 *                  [--profile-out profile.txt] [--profile-hz 99]
 *
 * Prints one predicted class index per input row. When the CSV
 * carries labels (it must, structurally), accuracy and macro-F1 are
 * reported on stderr so stdout stays machine-readable. --metrics-out
 * and --trace-out dump the obs metric registry / Chrome trace of the
 * run, as in lookhd_train; --quality-out dumps the quality telemetry
 * (per-class confusion counters + similarity-margin histograms of
 * this run's predictions; empty under -DLOOKHD_OBS=OFF).
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
    "usage: lookhd_predict --model model.bin --input data.csv\n"
    "                      [--threads 1] [--batch 64]\n"
    "                      [--label-first] [--skip-rows N] [--quiet]\n"
    "                      [--metrics-out metrics.json]\n"
    "                      [--quality-out quality.json]\n"
    "                      [--trace-out trace.json]\n"
    "                      [--profile-out profile.txt]\n"
    "                      [--profile-hz 99]\n"
    "\n"
    "Prints one predicted class index per row; accuracy/macro-F1 go\n"
    "to stderr.\n"
    "  --threads N         prediction threads per batch (1 = serial,\n"
    "                      0 = one per hardware thread); predictions\n"
    "                      are identical for any value\n"
    "  --batch N           rows scored per batched kernel pass\n"
    "  --metrics-out FILE  dump the obs metric registry as JSON\n"
    "  --quality-out FILE  dump quality telemetry (confusion\n"
    "                      counters + margin histograms) as JSON;\n"
    "                      sections are empty when the build has\n"
    "                      observability compiled out\n"
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
            {{"model", Opt::kText},        {"input", Opt::kText},
             {"label-first", Opt::kFlag},  {"skip-rows", Opt::kCount},
             {"threads", Opt::kCount},     {"batch", Opt::kCount},
             {"quiet", Opt::kFlag},        {"metrics-out", Opt::kText},
             {"quality-out", Opt::kText},  {"trace-out", Opt::kText},
             {"profile-out", Opt::kText},  {"profile-hz", Opt::kCount},
             {"help", Opt::kFlag},         {"version", Opt::kFlag}});
        if (args.has("help")) {
            std::printf("%s", kUsage);
            return 0;
        }
        if (tools::handleVersionFlag(args, "lookhd_predict"))
            return 0;

        const std::string trace_out = args.get("trace-out", "");
        if (!trace_out.empty())
            obs::setTracing(true);
        const std::string profile_out = args.get("profile-out", "");
        tools::startProfile(profile_out,
                            args.getInt("profile-hz", 0));

        const Classifier clf =
            loadClassifierFile(args.require("model"));

        data::CsvOptions csv;
        csv.labelColumn = args.has("label-first")
                              ? data::LabelColumn::kFirst
                              : data::LabelColumn::kLast;
        csv.skipRows =
            static_cast<std::size_t>(args.getInt("skip-rows", 0));
        const data::Dataset ds =
            data::readCsvFile(args.require("input"), csv);

        const std::size_t threads =
            static_cast<std::size_t>(args.getInt("threads", 1));
        const std::size_t batch = std::max<std::size_t>(
            static_cast<std::size_t>(args.getInt("batch", 64)), 1);

        data::ConfusionMatrix cm(
            std::max(ds.numClasses(), std::size_t{1}));
        bool labels_usable = true;
        // Score in batches through the batched kernels; output order
        // and predictions match the per-row path exactly.
        std::vector<std::span<const double>> rows;
        for (std::size_t first = 0; first < ds.size();
             first += batch) {
            const std::size_t last =
                std::min(ds.size(), first + batch);
            rows.clear();
            for (std::size_t i = first; i < last; ++i)
                rows.push_back(ds.row(i));
            const std::vector<std::vector<double>> batchScores =
                clf.scoresBatch(rows, threads);
            for (std::size_t i = first; i < last; ++i) {
                const std::vector<double> &scores =
                    batchScores[i - first];
                const std::size_t pred = hdc::argmax(scores);
                LOOKHD_QUALITY_OUTCOME("predict", ds.label(i),
                                       scores);
                std::printf("%zu\n", pred);
                if (pred < cm.numClasses())
                    cm.add(ds.label(i), pred);
                else
                    labels_usable = false;
            }
        }
        if (!args.has("quiet") && labels_usable && cm.total() > 0) {
            std::fprintf(stderr,
                         "accuracy: %.2f%%  macro-F1: %.3f over %zu "
                         "points\n",
                         100.0 * cm.accuracy(), cm.macroF1(),
                         cm.total());
        }

        const std::string metrics_out = args.get("metrics-out", "");
        if (!metrics_out.empty()) {
            std::ofstream out(metrics_out);
            if (!out)
                throw std::runtime_error("cannot write " + metrics_out);
            out << obs::MetricRegistry::global().toJson() << "\n";
        }
        const std::string quality_out = args.get("quality-out", "");
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
        std::fprintf(stderr, "lookhd_predict: %s\n", e.what());
        return 1;
    }
}
