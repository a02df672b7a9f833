/**
 * @file
 * Shared helpers for the per-table/figure bench binaries.
 *
 * Every bench regenerates one table or figure from the paper on the
 * synthetic stand-in workloads (see DESIGN.md for the substitution
 * rationale). Sample counts are scaled relative to the full app specs
 * through kTrainPerClass/kTestPerClass so the whole harness runs in
 * minutes on one core; pass more budget by editing those constants.
 */

#ifndef LOOKHD_BENCH_COMMON_HPP
#define LOOKHD_BENCH_COMMON_HPP

#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>
#include <variant>

#include "data/apps.hpp"
#include "hdc/similarity.hpp"
#include "lookhd/classifier.hpp"
#include "obs/json.hpp"
#include "obs/obs.hpp"
#include "obs/profiler.hpp"
#include "util/table.hpp"

namespace lookhd::bench {

/** Training samples per class used by the accuracy benches. */
inline constexpr std::size_t kTrainPerClass = 60;
/** Test samples per class used by the accuracy benches. */
inline constexpr std::size_t kTestPerClass = 30;

/**
 * Runtime sample scale, defaulting to the compile-time constants.
 * BenchReporter's --quick flag shrinks it so CI smoke runs finish in
 * seconds; appData() reads it.
 */
struct SampleScale
{
    std::size_t trainPerClass = kTrainPerClass;
    std::size_t testPerClass = kTestPerClass;
};

inline SampleScale gScale; // NOLINT: bench-harness knob, single thread

/** Train/test pair for one paper app at bench scale. */
inline data::TrainTest
appData(const data::AppSpec &app, std::uint64_t seed = 1)
{
    return data::makeTrainTest(app.synthetic(seed),
                               gScale.trainPerClass * app.numClasses,
                               gScale.testPerClass * app.numClasses);
}

/** LookHD configuration for one app at the paper's defaults. */
inline ClassifierConfig
appConfig(const data::AppSpec &app, hdc::Dim dim = 2000)
{
    ClassifierConfig cfg;
    cfg.dim = dim;
    cfg.quantLevels = app.lookhdQ;
    cfg.chunkSize = app.chunkSize;
    cfg.retrainEpochs = 5;
    return cfg;
}

/** Train a classifier and return its test accuracy. */
inline double
accuracyOf(const ClassifierConfig &cfg, const data::TrainTest &tt)
{
    Classifier clf(cfg);
    clf.fit(tt.train);
    return clf.evaluate(tt.test);
}

/**
 * Class predicted for one encoded query by the sign-packed binary
 * form (popcount scoring of the sign-binarized query): the binary
 * HDC model of Sec. VII.
 */
inline std::size_t
predictBinary(const QuantizedServingModel &binary, const hdc::IntHv &query)
{
    const hdc::IntHv *q = &query;
    return hdc::argmax(binary.scoresBatchBinary(&q, 1));
}

/** Print a header line identifying the experiment. */
inline void
banner(const std::string &what)
{
    std::printf("==============================================\n");
    std::printf("%s\n", what.c_str());
    std::printf("==============================================\n");
}

/**
 * Machine-readable result sink shared by every bench binary.
 *
 * Alongside the human-readable stdout tables, each bench writes
 * `BENCH_<name>.json` (schema `lookhd-bench-v3`, checked by
 * tools/validate_bench_json.py): the bench's headline metrics, its
 * config, the full metric registry, the span rollup and the quality
 * telemetry (confusion counters + margin histograms). This is the
 * trajectory format tools/bench_compare.py diffs against
 * bench/baselines/.
 *
 * Recognized CLI arguments (unknown ones are ignored so benches can
 * grow their own):
 *   --out-dir DIR    where BENCH_<name>.json lands (default: cwd)
 *   --git-rev REV    recorded in the JSON (or env LOOKHD_GIT_REV)
 *   --quick          shrink bench::gScale for CI smoke runs
 *   --trace-out F    also record spans and write a Chrome trace
 *   --profile-out F  sample the bench with the CPU profiler
 *                    (obs/profiler.hpp) and write speedscope JSON
 *                    (.json) or collapsed stacks (anything else)
 *   --profile-hz N   profiler sampling rate (default 99)
 */
class BenchReporter
{
  public:
    BenchReporter(const std::string &name, int argc = 0,
                  char **argv = nullptr)
        : name_(name)
    {
        if (const char *rev = std::getenv("LOOKHD_GIT_REV"))
            gitRev_ = rev;
        for (int i = 1; i < argc; ++i) {
            const std::string arg = argv[i];
            auto next = [&]() -> std::string {
                return i + 1 < argc ? argv[++i] : std::string();
            };
            if (arg == "--out-dir")
                outDir_ = next();
            else if (arg == "--git-rev")
                gitRev_ = next();
            else if (arg == "--trace-out")
                traceOut_ = next();
            else if (arg == "--profile-out")
                profileOut_ = next();
            else if (arg == "--profile-hz")
                profileHz_ = std::strtoul(next().c_str(), nullptr,
                                          10);
            else if (arg == "--quick")
                quick_ = true;
        }
        if (quick_)
            gScale = SampleScale{8, 4};
        if (!traceOut_.empty())
            obs::setTracing(true);
        if (!profileOut_.empty()) {
            obs::Profiler::registerCurrentThread();
            obs::ProfileOptions opts;
            if (profileHz_ > 0)
                opts.hz = static_cast<unsigned>(profileHz_);
            obs::Profiler::global().start(opts);
        }
    }

    ~BenchReporter()
    {
        if (!written_) {
            try {
                write();
            } catch (...) {
                // Destructor best-effort; write() explicitly to see
                // failures.
            }
        }
    }

    BenchReporter(const BenchReporter &) = delete;
    BenchReporter &operator=(const BenchReporter &) = delete;

    /** Whether --quick asked for a reduced-sample smoke run. */
    bool quick() const { return quick_; }

    /** Record one config key (shown under "config"). */
    void
    config(const std::string &key, const std::string &value)
    {
        config_[key] = value;
    }

    void
    config(const std::string &key, double value)
    {
        config_[key] = value;
    }

    /** Record one headline result (shown under "metrics"). */
    void
    metric(const std::string &key, double value)
    {
        metrics_[key] = value;
    }

    /** Emit BENCH_<name>.json (and the Chrome trace if requested). */
    void
    write()
    {
        written_ = true;
        obs::JsonWriter w;
        w.beginObject();
        w.kv("schema", "lookhd-bench-v3");
        w.kv("name", name_);
        w.kv("git_rev", gitRev_);
        w.kv("quick", quick_);
        w.key("config").beginObject();
        for (const auto &[key, value] : config_) {
            if (std::holds_alternative<double>(value))
                w.kv(key, std::get<double>(value));
            else
                w.kv(key, std::get<std::string>(value));
        }
        w.endObject();
        w.key("metrics").beginObject();
        for (const auto &[key, value] : metrics_)
            w.kv(key, value);
        w.endObject();
        w.key("registry");
        obs::MetricRegistry::global().writeJson(w);
        w.key("span_rollup").beginArray();
        for (const obs::SpanStats &s : obs::spanRollup()) {
            w.beginObject();
            w.kv("name", s.name);
            w.kv("category", s.category);
            w.kv("count", s.count);
            w.kv("total_ns", s.totalNs);
            w.kv("self_ns", s.selfNs);
            w.endObject();
        }
        w.endArray();
        w.key("quality");
        obs::QualityTelemetry::global().writeJson(w);
        w.endObject();

        const std::string path = outPath();
        std::FILE *f = std::fopen(path.c_str(), "w");
        if (!f) {
            std::fprintf(stderr, "BenchReporter: cannot write %s\n",
                         path.c_str());
            return;
        }
        std::fputs(w.str().c_str(), f);
        std::fputc('\n', f);
        std::fclose(f);
        std::printf("\n[bench json: %s]\n", path.c_str());

        if (!traceOut_.empty() &&
            !obs::writeChromeTraceFile(traceOut_)) {
            std::fprintf(stderr, "BenchReporter: cannot write %s\n",
                         traceOut_.c_str());
        }

        if (!profileOut_.empty()) {
            obs::Profiler &profiler = obs::Profiler::global();
            profiler.stop();
            const obs::ProfileReport report = profiler.collect();
            const bool speedscope =
                profileOut_.size() >= 5 &&
                profileOut_.compare(profileOut_.size() - 5, 5,
                                    ".json") == 0;
            const std::string doc =
                speedscope ? report.speedscopeJson() + "\n"
                           : report.collapsed();
            std::FILE *pf = std::fopen(profileOut_.c_str(), "w");
            if (pf == nullptr) {
                std::fprintf(stderr,
                             "BenchReporter: cannot write %s\n",
                             profileOut_.c_str());
            } else {
                std::fputs(doc.c_str(), pf);
                std::fclose(pf);
            }
        }
    }

  private:
    std::string
    outPath() const
    {
        std::string dir = outDir_;
        if (!dir.empty() && dir.back() != '/')
            dir += '/';
        return dir + "BENCH_" + name_ + ".json";
    }

    std::string name_;
    std::string outDir_;
    std::string gitRev_ = "unknown";
    std::string traceOut_;
    std::string profileOut_;
    unsigned long profileHz_ = 0;
    bool quick_ = false;
    bool written_ = false;
    std::map<std::string, std::variant<std::string, double>> config_;
    std::map<std::string, double> metrics_;
};

} // namespace lookhd::bench

#endif // LOOKHD_BENCH_COMMON_HPP
