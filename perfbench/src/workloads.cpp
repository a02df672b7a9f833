/**
 * @file
 * The workloads. Each reaches the library only through the API
 * the CLI tools use (Classifier, saveClassifier/loadClassifier,
 * serve::InferenceServer over loopback TCP), sets only what defines
 * its shape (app, dim, q, r) and leaves every other config field at
 * its default, so a changed default is measured as users get it.
 */

#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <random>
#include <span>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "data/apps.hpp"
#include "data/synthetic.hpp"
#include "hdc/similarity.hpp"
#include "lookhd/classifier.hpp"
#include "lookhd/serialize.hpp"
#include "serve/server.hpp"

#include "loadgen.hpp"
#include "workloads.hpp"
#include "stats.hpp"

namespace perfbench {

namespace {

using lookhd::Classifier;
using lookhd::data::Dataset;
using lookhd::hdc::IntHv;
using Rows = std::vector<std::span<const double>>;

/** Shape-defining settings of a workload. */
struct Shape
{
    const char *app;
    lookhd::hdc::Dim dim;
    std::size_t q;
    std::size_t r;
    /** Held-out rows: the accuracy set and the rows every loop
     * cycles through. */
    std::size_t testRows;
};

const Shape &
shapeOf(const std::string &workload)
{
    static const Shape speech{"SPEECH", 2000, 4, 5, 2000};
    static const Shape physical{"PHYSICAL", 2000, 2, 5, 2000};
    static const Shape serveSpeech{"SPEECH", 2000, 4, 5, 1000};
    static const Shape servePhysical{"PHYSICAL", 2000, 2, 5, 2000};
    if (workload == "speech")
        return speech;
    if (workload == "physical")
        return physical;
    if (workload == "serve-speech")
        return serveSpeech;
    if (workload == "serve-physical")
        return servePhysical;
    throw std::invalid_argument("unknown workload: " + workload);
}

lookhd::ClassifierConfig
configOf(const Shape &shape)
{
    lookhd::ClassifierConfig cfg;
    cfg.dim = shape.dim;
    cfg.quantLevels = shape.q;
    cfg.chunkSize = shape.r;
    return cfg;
}

/**
 * Seeded inputs. Like a real dataset, each app's synthetic problem
 * (class structure, feature scales, row stream) is fixed; the seed
 * only chooses which rows of that stream are held out and which
 * train, as a seeded split would. Accuracy then varies across seeds
 * by sampling alone, not by drawing a different problem. Rows are
 * drawn one class-balanced block at a time and only wanted ones kept,
 * so a process that needs only the held-out rows stays small.
 */
struct Inputs
{
    Dataset test;
    Dataset train;
};

Inputs
drawInputs(const Shape &shape, std::uint64_t seed, bool withTrain)
{
    const lookhd::data::AppSpec &app = lookhd::data::appByName(shape.app);
    lookhd::data::SyntheticProblem problem(app.synthetic());
    const std::size_t total = app.trainCount + shape.testRows;
    std::vector<bool> heldOut(total, false);
    std::fill_n(heldOut.begin(), shape.testRows, true);
    std::mt19937_64 rng(seed);
    std::shuffle(heldOut.begin(), heldOut.end(), rng);

    Inputs in{Dataset(app.numFeatures, app.numClasses),
              Dataset(app.numFeatures, app.numClasses)};
    for (std::size_t pos = 0; pos < total;) {
        const Dataset block = problem.sample(app.numClasses);
        for (std::size_t i = 0; i < block.size() && pos < total; ++i, ++pos) {
            if (heldOut[pos])
                in.test.add(block.row(i), block.label(i));
            else if (withTrain)
                in.train.add(block.row(i), block.label(i));
        }
    }
    return in;
}

Rows
rowsOf(const Dataset &ds)
{
    Rows rows(ds.size());
    for (std::size_t i = 0; i < ds.size(); ++i)
        rows[i] = ds.row(i);
    return rows;
}

double
secondsBetween(std::int64_t t0, std::int64_t t1)
{
    return static_cast<double>(t1 - t0) / 1e9;
}

double
microsBetween(std::int64_t t0, std::int64_t t1)
{
    return static_cast<double>(t1 - t0) / 1e3;
}

double
peakRssMb()
{
    rusage usage{};
    ::getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0; // KiB on Linux
}

double
accuracyOf(const std::vector<std::size_t> &labels, const Dataset &ds)
{
    std::size_t right = 0;
    for (std::size_t i = 0; i < labels.size(); ++i)
        right += labels[i] == ds.label(i);
    return static_cast<double>(right) / static_cast<double>(labels.size());
}

// --- Predict-side loops ---------------------------------------------

/** Rows cycle through the held-out set; outputs are checked against
 * the labels predictBatch gave before timing. */
struct Cursor
{
    std::size_t next = 0;
    std::size_t
    take(std::size_t n)
    {
        const std::size_t i = next % n;
        ++next;
        return i;
    }
};

void
closedLoopPredict(const Classifier &clf, const Rows &rows,
                  const std::vector<std::size_t> &expected, double seconds,
                  Cursor &cursor, std::vector<double> &latUs,
                  Report &report)
{
    std::uint64_t checked = 0;
    std::uint64_t wrong = 0;
    const std::int64_t end = nowNs() + static_cast<std::int64_t>(seconds * 1e9);
    for (std::int64_t t1 = nowNs(); t1 < end;) {
        const std::size_t i = cursor.take(rows.size());
        const std::int64_t t0 = nowNs();
        const std::size_t label = clf.predict(rows[i]);
        t1 = nowNs();
        latUs.push_back(microsBetween(t0, t1));
        ++checked;
        wrong += label != expected[i];
    }
    report.count(checked, wrong);
}

constexpr std::size_t kBatchRows = 64;

void
batchLoop(const Classifier &clf, const Rows &rows,
          const std::vector<std::size_t> &expected, std::size_t threads,
          double seconds, Cursor &cursor, std::vector<double> &rowsPerS,
          Report &report)
{
    Rows batch(kBatchRows);
    std::vector<std::size_t> index(kBatchRows);
    std::uint64_t checked = 0;
    std::uint64_t wrong = 0;
    const std::int64_t end = nowNs() + static_cast<std::int64_t>(seconds * 1e9);
    for (std::int64_t t1 = nowNs(); t1 < end;) {
        for (std::size_t j = 0; j < kBatchRows; ++j) {
            index[j] = cursor.take(rows.size());
            batch[j] = rows[index[j]];
        }
        const std::int64_t t0 = nowNs();
        const std::vector<std::size_t> labels =
            clf.predictBatch(batch, threads);
        t1 = nowNs();
        rowsPerS.push_back(static_cast<double>(kBatchRows) /
                           secondsBetween(t0, t1));
        checked += kBatchRows;
        for (std::size_t j = 0; j < kBatchRows; ++j)
            wrong += labels[j] != expected[index[j]];
    }
    report.count(checked, wrong);
}

/**
 * Per-row predict labels must equal predictBatch labels at 1 and at
 * 4 threads. Returns the 1-thread labels, the reference every timed
 * loop checks against.
 */
std::vector<std::size_t>
checkedLabels(const Classifier &clf, const Rows &rows, Report &report)
{
    std::vector<std::size_t> one = clf.predictBatch(rows, 1);
    const std::vector<std::size_t> four = clf.predictBatch(rows, 4);
    std::uint64_t wrong = 0;
    for (std::size_t i = 0; i < rows.size(); ++i) {
        wrong += clf.predict(rows[i]) != one[i];
        wrong += four[i] != one[i];
    }
    report.count(2 * rows.size(), wrong);
    return one;
}

// --- Traced layer breakdown -----------------------------------------

/** A class-model form scoring a batch of encoded queries. */
struct ScoreForm
{
    std::string name;
    std::function<std::vector<double>(const IntHv *const *, std::size_t)>
        scoresBatch;
};

/** Every class-model form a classifier can score with; the quantized
 * ones need a loaded model or Classifier::quantize() first. */
std::vector<ScoreForm>
scoreForms(const Classifier &clf)
{
    return {
        {"f64_compressed",
         [&clf](const IntHv *const *q, std::size_t n) {
             return clf.compressedModel().scoresBatch(q, n);
         }},
        {"f64_prototype",
         [&clf](const IntHv *const *q, std::size_t n) {
             return clf.uncompressedModel().scoresBatch(q, n);
         }},
        {"int8",
         [&clf](const IntHv *const *q, std::size_t n) {
             return clf.quantizedModel().scoresBatchI8(q, n);
         }},
        {"binary",
         [&clf](const IntHv *const *q, std::size_t n) {
             return clf.quantizedModel().scoresBatchBinary(q, n);
         }},
    };
}

/** The form Classifier::scores serves with. */
ScoreForm
servedForm(const Classifier &clf)
{
    std::string name = clf.config().compressModel ? "f64_compressed"
                                                  : "f64_prototype";
    if (clf.servingPrecision() != lookhd::Precision::kFloat64)
        name = lookhd::precisionName(clf.servingPrecision());
    for (ScoreForm &form : scoreForms(clf))
        if (form.name == name)
            return form;
    throw std::logic_error("no score form named " + name);
}

enum SpanName : std::uint16_t
{
    kPredict,
    kLayers,
    kQuant,
    kAddress,
    kEncode,
    kScore,
    kArgmax,
    kSpanNames
};
constexpr const char *kSpanNameText[kSpanNames] = {
    "predict", "layers", "quant", "address", "encode", "score", "argmax"};

void
writeSpans(const std::string &path, const RunOptions &opt,
           const std::vector<Span> &spans)
{
    if (path.empty())
        return;
    std::ofstream out(path);
    out << "# perfbench spans workload=" << opt.workload
        << " seed=" << opt.seed << "\n"
        << "index,row,name,parent,start_ns,end_ns\n";
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const Span &s = spans[i];
        out << i << ',' << s.row << ',' << kSpanNameText[s.name] << ','
            << s.parent << ',' << s.startNs << ',' << s.endNs << '\n';
    }
    if (!out)
        throw std::runtime_error("cannot write spans to " + path);
}

/**
 * Time the five public layer calls behind one prediction on the same
 * rows Classifier::predict answers. Rows are visited in blocks: a
 * block of `predict` spans (the library's own call), then a `layers`
 * span per row of the same block, with one child span per layer.
 */
void
layerBreakdown(const Classifier &clf, const Rows &rows,
               const std::vector<std::size_t> &expected, double seconds,
               const RunOptions &opt, Report &report)
{
    const lookhd::LookupEncoder &enc = clf.encoder();
    const ScoreForm form = servedForm(clf);

    constexpr std::size_t kBlock = 32;
    // Enough rows for steady medians, few enough that the span file
    // stays a few MB on the fastest workload.
    constexpr std::uint32_t kMaxRows = 20'000;
    std::vector<Span> spans;
    // Reserved up front: growing the vector mid-run would land inside
    // a `layers` span.
    spans.reserve(std::size_t{kMaxRows} * 7);
    std::vector<std::size_t> predictLabel(kBlock);
    std::uint64_t mismatches = 0;
    std::uint32_t visit = 0;
    Cursor cursor;
    const std::int64_t end =
        nowNs() + static_cast<std::int64_t>(seconds * 1e9);
    while (nowNs() < end && visit < kMaxRows) {
        const std::size_t first = cursor.next;
        for (std::size_t j = 0; j < kBlock; ++j) {
            const std::size_t i = cursor.take(rows.size());
            const std::int64_t t0 = nowNs();
            predictLabel[j] = clf.predict(rows[i]);
            const std::int64_t t1 = nowNs();
            spans.push_back({kPredict, visit + static_cast<std::uint32_t>(j),
                             -1, t0, t1});
            report.count(1, predictLabel[j] != expected[i]);
        }
        for (std::size_t j = 0; j < kBlock; ++j) {
            const std::size_t i = (first + j) % rows.size();
            const auto row = visit + static_cast<std::uint32_t>(j);
            const auto root = static_cast<std::int32_t>(spans.size());
            spans.push_back({kLayers, row, -1, nowNs(), 0});
            const std::int64_t t0 = nowNs();
            const std::vector<std::size_t> levels = enc.quantize(rows[i]);
            const std::int64_t t1 = nowNs();
            const std::vector<lookhd::Address> addrs =
                enc.chunkAddressesOfLevels(levels);
            const std::int64_t t2 = nowNs();
            const IntHv hv = enc.encodeFromAddresses(addrs);
            const std::int64_t t3 = nowNs();
            const IntHv *query = &hv;
            const std::vector<double> scores = form.scoresBatch(&query, 1);
            const std::int64_t t4 = nowNs();
            const std::size_t label = lookhd::hdc::argmax(scores);
            const std::int64_t t5 = nowNs();
            spans.push_back({kQuant, row, root, t0, t1});
            spans.push_back({kAddress, row, root, t1, t2});
            spans.push_back({kEncode, row, root, t2, t3});
            spans.push_back({kScore, row, root, t3, t4});
            spans.push_back({kArgmax, row, root, t4, t5});
            spans[static_cast<std::size_t>(root)].endNs = nowNs();
            mismatches += label != predictLabel[j];
        }
        visit += kBlock;
    }
    report.count(visit, mismatches);

    // Per-row self time of every span, then the per-layer medians.
    const std::vector<std::int64_t> self = selfTimesNs(spans);
    std::vector<std::vector<double>> selfUs(kSpanNames);
    std::vector<double> predictUs(visit, 0);
    std::vector<double> layersUs(visit, 0);
    for (std::size_t s = 0; s < spans.size(); ++s) {
        selfUs[spans[s].name].push_back(static_cast<double>(self[s]) / 1e3);
        const double dur = microsBetween(spans[s].startNs, spans[s].endNs);
        if (spans[s].name == kPredict)
            predictUs[spans[s].row] = dur;
        else if (spans[s].parent >= 0)
            layersUs[spans[s].row] += dur;
    }
    std::vector<double> unattributed(visit);
    for (std::uint32_t v = 0; v < visit; ++v)
        unattributed[v] = predictUs[v] - layersUs[v];

    const std::size_t n = visit;
    report.set("quant.us_per_row", median(selfUs[kQuant]), "us", n);
    report.set("address.us_per_row", median(selfUs[kAddress]), "us", n);
    report.set("encode.us_per_row", median(selfUs[kEncode]), "us", n);
    report.set("score.us_per_row", median(selfUs[kScore]), "us", n);
    report.set("argmax.us_per_row", median(selfUs[kArgmax]), "us", n);
    report.set("predict.unattributed_us_per_row", median(unattributed),
               "us", n);
    const char *largest = "quant";
    for (const char *layer : {"address", "encode", "score", "argmax"})
        if (report.metrics[std::string(layer) + ".us_per_row"].value >
            report.metrics[std::string(largest) + ".us_per_row"].value)
            largest = layer;
    std::printf("# largest layer: %s, %.1f us of a %.1f us predict\n",
                largest,
                report.metrics[std::string(largest) + ".us_per_row"].value,
                median(predictUs));
    std::vector<double> layersTotalUs;
    for (std::size_t s = 0; s < spans.size(); ++s)
        if (spans[s].name == kLayers)
            layersTotalUs.push_back(
                microsBetween(spans[s].startNs, spans[s].endNs));
    // A `predict` span is the library call timed plainly, in the same
    // blocks and so the same machine state as the traced layer path.
    report.set("trace.overhead_frac",
               median(layersTotalUs) / median(predictUs) - 1, "fraction", n);
    const Quantiles plain = quantiles(predictUs);
    if (!plain.p99Valid)
        throw std::runtime_error("the traced run left fewer than 10 predict "
                                 "calls beyond their p99; run longer");
    report.set("predict_p99_us", plain.p99, "us", plain.n);
    report.set("trace.layer_mismatches", static_cast<double>(mismatches),
               "count", n);

    const lookhd::ChunkLookupTable &table = enc.tableFor(0);
    const double rowBytes = static_cast<double>(table.tableBytes()) /
                            static_cast<double>(table.addressSpaceSize());
    report.set("encode.gathered_bytes_per_row",
               static_cast<double>(enc.chunks().numChunks()) * rowBytes,
               "bytes", 1);
    report.set("encode.table_bytes",
               static_cast<double>(enc.materializedBytes()), "bytes", 1);
    std::printf("# served form: %s, %u rows traced, %zu spans\n",
                form.name.c_str(), visit, spans.size());
    writeSpans(opt.traceOut, opt, spans);
}

/**
 * Every class-model form scored on the same encoded rows, one row per
 * call as predict() does. Builds the quantized forms on @p clf.
 */
void
perFormTable(Classifier &clf, const Dataset &test, const Rows &rows,
             const std::vector<std::size_t> &expected, double seconds,
             Report &report)
{
    clf.quantize();
    std::vector<IntHv> encoded(rows.size());
    for (std::size_t i = 0; i < rows.size(); ++i)
        encoded[i] = clf.encoder().encode(rows[i]);

    const std::string served = servedForm(clf).name;
    const std::vector<ScoreForm> forms = scoreForms(clf);
    for (const ScoreForm &form : forms) {
        std::vector<double> us;
        std::size_t right = 0;
        std::uint64_t wrong = 0;
        const std::int64_t end = nowNs() + static_cast<std::int64_t>(
                                               seconds / 4 * 1e9);
        for (std::size_t pass = 0; pass == 0 || nowNs() < end; ++pass) {
            for (std::size_t i = 0; i < encoded.size(); ++i) {
                const IntHv *query = &encoded[i];
                const std::int64_t t0 = nowNs();
                const std::vector<double> s = form.scoresBatch(&query, 1);
                const std::int64_t t1 = nowNs();
                us.push_back(microsBetween(t0, t1));
                if (pass > 0)
                    continue;
                const std::size_t label = lookhd::hdc::argmax(s);
                right += label == test.label(i);
                // The served form must reproduce predict()'s labels.
                if (form.name == served)
                    wrong += label != expected[i];
            }
        }
        if (form.name == served)
            report.count(rows.size(), wrong);
        report.set("score." + form.name + ".us_per_row", median(us), "us",
                   us.size());
        report.set("score." + form.name + ".accuracy",
                   static_cast<double>(right) /
                       static_cast<double>(rows.size()),
                   "fraction", rows.size());
    }
}

// --- Serve-side helpers ---------------------------------------------

/** `,"features":[...]}\n`: everything of a request line after its id,
 * rendered before any timing. */
std::string
renderTail(std::span<const double> row)
{
    std::string out = ",\"features\":[";
    char buf[32];
    for (std::size_t f = 0; f < row.size(); ++f) {
        const int len = std::snprintf(buf, sizeof buf, "%.17g", row[f]);
        if (f > 0)
            out += ',';
        out.append(buf, static_cast<std::size_t>(len));
    }
    out += "]}\n";
    return out;
}

constexpr const char *kStages[] = {"parse",     "queue", "batch_form",
                                   "score",     "serialize", "write"};

/** Counters of the server's /metrics that one phase moves. */
struct Scrape
{
    std::map<std::string, double> samples;

    double
    get(const std::string &key) const
    {
        const auto it = samples.find(key);
        return it == samples.end() ? 0 : it->second;
    }

    /** Add what every sample moved from @p before to @p after. */
    void
    addDelta(const Scrape &before, const Scrape &after)
    {
        for (const auto &[key, value] : after.samples)
            samples[key] += value - before.get(key);
    }
};

Scrape
scrape(std::uint16_t metricsPort)
{
    return Scrape{parsePrometheus(httpGet(metricsPort, "/metrics"))};
}

/** Requests answered per batch over the phases @p delta covers. */
std::pair<double, std::size_t>
batchSize(const Scrape &delta)
{
    const double ok = delta.get("lookhd_serve_requests_total");
    const double batches = delta.get("lookhd_serve_batches_total");
    return {batches > 0 ? ok / batches : 0,
            static_cast<std::size_t>(batches)};
}

/** Mean per-request stage times and batch size over the phases
 * @p delta covers. */
void
reportStages(Report &report, const std::string &phase, const Scrape &delta)
{
    for (const char *stage : kStages) {
        const std::string labels = std::string("{stage=\"") + stage + "\"}";
        const double count = delta.get("lookhd_serve_stage_ns_count" + labels);
        const double sum = delta.get("lookhd_serve_stage_ns_sum" + labels);
        report.set("serve." + phase + "." + stage + "_us",
                   count > 0 ? sum / count / 1e3 : 0, "us",
                   static_cast<std::size_t>(count));
    }
    const auto [size, batches] = batchSize(delta);
    report.set("serve." + phase + ".batch_size", size, "req/batch", batches);
}

/**
 * The generator fell behind when its own lag (not time blocked by the
 * server's back-pressure) reached 1 ms on the median, or a tenth of
 * the phase at p99: the phase then measured the generator, not the
 * server.
 */
void
checkGenerator(const std::string &phase, const PhaseResult &r,
               double seconds)
{
    const double lagP50 = median(r.selfLagUs);
    const double lagP99 = percentile(r.selfLagUs, 99);
    if (lagP50 > 1000 || lagP99 > seconds * 1e5)
        throw std::runtime_error(
            "load generator fell behind in the " + phase +
            " phase (own lag p50 " + std::to_string(lagP50) + " us, p99 " +
            std::to_string(lagP99) + " us); phase invalid");
}

/** The precision the server resolved, from its build_info label. */
lookhd::Precision
servedPrecision(std::uint16_t metricsPort)
{
    for (const auto &[key, value] : scrape(metricsPort).samples) {
        const std::size_t at = key.find("precision=\"");
        if (key.rfind("lookhd_build_info", 0) != 0 || at == std::string::npos)
            continue;
        const std::size_t from = at + 11;
        const auto p = lookhd::precisionFromName(
            key.substr(from, key.find('"', from) - from));
        if (p)
            return *p;
    }
    throw std::runtime_error("server exports no precision label");
}

/** A ladder step from one open-loop phase. */
LadderStep
ladderStep(double rps, const PhaseResult &r)
{
    LadderStep step;
    step.targetRps = rps;
    step.achievedRps = r.achievedRps;
    step.sent = r.sent;
    step.rejected = r.rejected;
    step.failed = r.failed;
    step.p99Us = percentile(r.latencyUs, 99);
    step.backlogEarly = r.backlogEarly;
    step.backlogEnd = r.backlogEnd;
    return step;
}

/**
 * The open-loop load against one running server: rounds of a light
 * and a heavy phase, interleaved with the predict rounds, then the
 * rate ladder. Every response is checked against the expected labels.
 */
class ServeLoad
{
  public:
    ServeLoad(const lookhd::serve::InferenceServer &server, const Rows &rows,
                const std::vector<std::size_t> &expected, std::uint64_t seed)
        : metricsPort_(server.metricsPort()), rng_(seed),
          client_(server.port(), 2, renderTails(rows), expected)
    {
    }

    /** Warm-up: connections, allocator and caches; checked, not timed. */
    void
    warmUp(Report &report)
    {
        Scrape ignored;
        phase(500, 0.5, ignored, report);
    }

    /** One light and one heavy phase. */
    void
    round(double lightSeconds, double heavySeconds, Report &report)
    {
        light_.add(phase(500, lightSeconds, light_.delta, report), "light",
                   lightSeconds);
        heavy_.add(phase(2500, heavySeconds, heavy_.delta, report), "heavy",
                   heavySeconds);
    }

    /** The rate ladder, for at most @p seconds. */
    void
    ladder(double seconds, Report &report)
    {
        const LadderPlan plan;
        constexpr double kStepS = 0.4;
        const std::int64_t end =
            nowNs() + static_cast<std::int64_t>(seconds * 1e9);
        for (double rps = nextLadderRate(steps_, limits_, plan);
             rps > 0 && nowNs() < end;
             rps = nextLadderRate(steps_, limits_, plan)) {
            // A failing step runs once more before it counts: one VM
            // stall of 50 ms fails any step it lands in, overload fails
            // both.
            LadderStep step;
            std::string verdict;
            Scrape delta;
            for (int attempt = 0; attempt < 2 && verdict != "ok"; ++attempt) {
                delta = Scrape{};
                const PhaseResult r = scrapedPhase(rps, kStepS, delta);
                step = ladderStep(rps, r);
                verdict = judgeStep(step, limits_);
                // A failing attempt probes saturation on purpose: its
                // "overloaded" rejections end that branch of the ladder
                // instead of counting as failures. Wrong or missing
                // answers count on every attempt.
                report.count(r.sent,
                             r.failed + (verdict == "ok" ? r.rejected : 0));
                std::printf("# ladder %.0f req/s: achieved %.0f, p99 %.0f us, "
                            "backlog %zu -> %zu: %s\n",
                            rps, step.achievedRps, step.p99Us,
                            step.backlogEarly, step.backlogEnd,
                            verdict.c_str());
            }
            steps_.push_back(step);
            stepBatchSizes_.push_back(batchSize(delta));
        }
        if (nextLadderRate(steps_, limits_, plan) > 0)
            std::printf("# ladder time ran out before it finished\n");
        if (maxSustainedRps(steps_, limits_) <= 0)
            throw std::runtime_error("no ladder step met the serve limits");
    }

    void
    reportMetrics(bool trace, Report &report)
    {
        const Quantiles light = quantiles(light_.latencyUs);
        const Quantiles heavy = quantiles(heavy_.latencyUs);
        std::printf("# serve p50 per round: light");
        for (const double v : light_.p50Us)
            std::printf(" %.1f", v);
        std::printf(", heavy");
        for (const double v : heavy_.p50Us)
            std::printf(" %.1f", v);
        std::printf(" us\n");
        report.set("serve_light_p50_us", median(light_.p50Us), "us", light.n);
        report.set("serve_max_rps", maxSustainedRps(steps_, limits_), "req/s",
                   steps_.size());
        report.set("serve_heavy_p50_us", median(heavy_.p50Us), "us", heavy.n);
        reportStages(report, "light", light_.delta);
        reportStages(report, "heavy", heavy_.delta);
        const auto stage = [&report](const char *name) {
            return report.metrics[std::string("serve.light.") + name + "_us"]
                .value;
        };
        std::printf("# light phase: parse + queue + batch_form %.1f us, "
                    "score %.1f us\n",
                    stage("parse") + stage("queue") + stage("batch_form"),
                    stage("score"));
        // The traced run reports the p99s, so it needs their samples.
        if (trace && (!light.p99Valid || !heavy.p99Valid))
            throw std::runtime_error("a serve phase left fewer than 10 "
                                     "samples beyond its p99; run longer");
        report.set("serve_light_p99_us", light.p99, "us", light.n);
        report.set("serve_heavy_p99_us", heavy.p99, "us", heavy.n);
        report.set("loadgen.light.late_p99_us", percentile(light_.lateUs, 99),
                   "us", light_.lateUs.size());
        report.set("loadgen.heavy.late_p99_us", percentile(heavy_.lateUs, 99),
                   "us", heavy_.lateUs.size());
        // Batches of the ladder step serve_max_rps comes from.
        const double maxRps = maxSustainedRps(steps_, limits_);
        for (std::size_t i = 0; i < steps_.size(); ++i)
            if (steps_[i].achievedRps == maxRps)
                report.set("serve.max.batch_size", stepBatchSizes_[i].first,
                           "req/batch", stepBatchSizes_[i].second);
    }

  private:
    static std::vector<std::string>
    renderTails(const Rows &rows)
    {
        std::vector<std::string> tails;
        tails.reserve(rows.size());
        for (const auto &row : rows)
            tails.push_back(renderTail(row));
        return tails;
    }

    /** One phase between two /metrics scrapes, whose difference is
     * added to @p delta. */
    PhaseResult
    scrapedPhase(double rps, double seconds, Scrape &delta)
    {
        const Scrape before = scrape(metricsPort_);
        PhaseResult r = client_.runPhase(rps, seconds, rng_);
        delta.addDelta(before, scrape(metricsPort_));
        return r;
    }

    /** scrapedPhase() whose rejections count as failures. */
    PhaseResult
    phase(double rps, double seconds, Scrape &delta, Report &report)
    {
        PhaseResult r = scrapedPhase(rps, seconds, delta);
        report.count(r.sent, r.failed + r.rejected);
        return r;
    }

    std::uint16_t metricsPort_;
    std::mt19937_64 rng_;
    OpenLoopClient client_;
    const LadderLimits limits_;
    std::vector<LadderStep> steps_;
    /** Requests per batch and batch count of each ladder step. */
    std::vector<std::pair<double, std::size_t>> stepBatchSizes_;
    /** One phase kind over all rounds. */
    struct PhaseSamples
    {
        /** /metrics movement over the phase's rounds. */
        Scrape delta;
        std::vector<double> p50Us;
        std::vector<double> latencyUs;
        std::vector<double> lateUs;

        void
        add(const PhaseResult &r, const std::string &name, double seconds)
        {
            checkGenerator(name, r, seconds);
            p50Us.push_back(median(r.latencyUs));
            latencyUs.insert(latencyUs.end(), r.latencyUs.begin(),
                             r.latencyUs.end());
            lateUs.insert(lateUs.end(), r.lateUs.begin(), r.lateUs.end());
        }
    };
    PhaseSamples light_;
    PhaseSamples heavy_;
};

} // namespace

// --- Workloads ------------------------------------------------------

bool
servesLoadedModel(const std::string &workload)
{
    return workload.rfind("serve-", 0) == 0;
}

TrainedModel
trainServeModelInChild(const std::string &workload, std::uint64_t seed)
{
    int fds[2];
    if (::pipe(fds) != 0)
        throw std::runtime_error(std::string("pipe: ") + std::strerror(errno));
    const pid_t pid = ::fork();
    if (pid < 0)
        throw std::runtime_error(std::string("fork: ") + std::strerror(errno));
    if (pid == 0) {
        ::close(fds[0]);
        int status = 0;
        try {
            const Shape &shape = shapeOf(workload);
            const Inputs in = drawInputs(shape, seed, true);
            Classifier clf(configOf(shape));
            const std::int64_t t0 = nowNs();
            clf.fit(in.train);
            const double fitS = secondsBetween(t0, nowNs());
            std::ostringstream blob;
            blob.write(reinterpret_cast<const char *>(&fitS), sizeof fitS);
            lookhd::saveClassifier(clf, blob);
            const std::string bytes = blob.str();
            for (std::size_t off = 0; off < bytes.size();) {
                const ssize_t n =
                    ::write(fds[1], bytes.data() + off, bytes.size() - off);
                if (n < 0 && errno == EINTR)
                    continue;
                if (n <= 0)
                    throw std::runtime_error("short write of the model");
                off += static_cast<std::size_t>(n);
            }
        } catch (const std::exception &e) {
            std::fprintf(stderr, "perfbench: training child: %s\n", e.what());
            status = 1;
        }
        ::close(fds[1]);
        ::_exit(status);
    }
    ::close(fds[1]);
    std::string bytes;
    char buf[1 << 16];
    while (true) {
        const ssize_t n = ::read(fds[0], buf, sizeof buf);
        if (n < 0 && errno == EINTR)
            continue;
        if (n <= 0)
            break;
        bytes.append(buf, static_cast<std::size_t>(n));
    }
    ::close(fds[0]);
    int status = 0;
    while (::waitpid(pid, &status, 0) < 0 && errno == EINTR) {
    }
    TrainedModel model;
    if (!WIFEXITED(status) || WEXITSTATUS(status) != 0 ||
        bytes.size() <= sizeof model.fitS)
        throw std::runtime_error("training child failed");
    std::memcpy(&model.fitS, bytes.data(), sizeof model.fitS);
    model.blob = bytes.substr(sizeof model.fitS);
    return model;
}

void
runWorkload(const RunOptions &opt, const TrainedModel *trained,
            Report &report)
{
    const Shape &shape = shapeOf(opt.workload);
    const Inputs in = drawInputs(shape, opt.seed, trained == nullptr);
    const Rows rows = rowsOf(in.test);
    const double t = opt.seconds;

    // Set-up: what a user waits for before the first prediction,
    // repeated; the median is setup_s. A fitted model is served as
    // fit() left it, a loaded one as loadClassifier() returns it.
    std::vector<double> setupS;
    std::optional<Classifier> clf;
    std::unique_ptr<lookhd::serve::InferenceServer> server;
    if (trained != nullptr) {
        const auto load = [trained] {
            std::istringstream is(trained->blob);
            return lookhd::loadClassifier(is);
        };
        std::vector<double> loadS;
        std::vector<double> startS;
        for (int i = 0; i < 15; ++i) {
            server.reset();
            const std::int64_t t0 = nowNs();
            Classifier loaded = load();
            const std::int64_t t1 = nowNs();
            server = std::make_unique<lookhd::serve::InferenceServer>(
                std::move(loaded), lookhd::serve::ServeConfig{});
            server->start();
            const std::int64_t t2 = nowNs();
            setupS.push_back(secondsBetween(t0, t2));
            loadS.push_back(secondsBetween(t0, t1));
            startS.push_back(secondsBetween(t1, t2));
        }
        report.set("setup.fit_s", trained->fitS, "s", 1);
        report.set("setup.load_s", median(loadS), "s", loadS.size());
        report.set("setup.start_s", median(startS), "s", startS.size());
        // A second copy of the loaded model predicts in this process.
        clf.emplace(load());
        clf->setServingPrecision(servedPrecision(server->metricsPort()));
    } else {
        // Two fits before the rounds; the untraced run fits once more in
        // each round, so the set-up median samples the whole run.
        std::optional<Classifier> serverClf;
        for (int i = 0; i < 2; ++i) {
            Classifier fitted(configOf(shape));
            const std::int64_t t0 = nowNs();
            fitted.fit(in.train);
            setupS.push_back(secondsBetween(t0, nowNs()));
            (i == 0 ? serverClf : clf).emplace(std::move(fitted));
        }
        report.set("setup.fit_s", median(setupS), "s", setupS.size());
        // Only a loaded model has a load step: 0 over 0 samples.
        report.set("setup.load_s", 0, "s", 0);
        const std::int64_t t0 = nowNs();
        server = std::make_unique<lookhd::serve::InferenceServer>(
            std::move(*serverClf), lookhd::serve::ServeConfig{});
        server->start();
        report.set("setup.start_s", secondsBetween(t0, nowNs()), "s", 1);
        clf->setServingPrecision(servedPrecision(server->metricsPort()));
    }
    // Predictions in this process, the reference for every served
    // label, use the form the server resolved.
    const std::vector<std::size_t> expected =
        checkedLabels(*clf, rows, report);
    const double accuracy = accuracyOf(expected, in.test);

    if (opt.trace) {
        layerBreakdown(*clf, rows, expected, 0.2 * t, opt, report);
        Cursor c1;
        Cursor c4;
        std::vector<double> qps1;
        std::vector<double> qps4;
        batchLoop(*clf, rows, expected, 1, 0.05 * t, c1, qps1, report);
        batchLoop(*clf, rows, expected, 4, 0.05 * t, c4, qps4, report);
        report.set("par.efficiency", median(qps4) / (4 * median(qps1)),
                   "fraction", qps1.size() + qps4.size());
        report.set("batch_qps_mt", median(qps4), "rows/s", qps4.size());
        perFormTable(*clf, in.test, rows, expected, 0.15 * t, report);
    }

    ServeLoad serve(*server, rows, expected, opt.seed);
    serve.warmUp(report);
    // Peak memory of set-up and of serving, read before the rounds: their
    // refits and the ladder's deliberate overload would add heap growth
    // that depends on allocation order and on how far the ladder climbs.
    const double peakMb = peakRssMb();

    // Rounds interleave the predict loops with the light and heavy serve
    // phases, so a slow stretch of the machine spreads over every metric
    // instead of ruining one. Serve metrics are medians over rounds of
    // per-round figures. The predict loops run in slices of about 0.1 s,
    // each giving one median per-call latency and one median batch rate.
    // A shared host moves between speed states for seconds at a time (one
    // thread runs up to twice as slow in the slowest), and how much of a
    // run each state takes changes from run to run, so a median over
    // slices jumps between states. The fastest slice reads the least
    // contended state; with a table that fits in L2, every run of some
    // seconds reaches it. The untraced run, whose gated figures all come
    // from the predict loops, gives them 70% of its time; the traced run
    // reports the serve figures.
    constexpr int kRounds = 5;
    const double serveShare = opt.trace ? 0.55 : 0.3;
    const double lightS = 0.35 * serveShare * t / kRounds;
    const double heavyS = 0.2 * serveShare * t / kRounds;
    const double predictS = (1 - serveShare) * t / kRounds;
    constexpr double kSliceS = 0.1;
    const auto slices = static_cast<int>(
        std::max(1.0, std::round(predictS / kSliceS)));
    const double slice = predictS / slices;
    Cursor cp;
    Cursor cb;
    std::size_t calls = 0;
    std::size_t batches = 0;
    std::vector<double> sliceP50;
    std::vector<double> sliceQps;
    for (int r = 0; r < kRounds; ++r) {
        if (!opt.trace && trained == nullptr) {
            Classifier refitted(configOf(shape));
            const std::int64_t t0 = nowNs();
            refitted.fit(in.train);
            setupS.push_back(secondsBetween(t0, nowNs()));
        }
        for (int i = 0; !opt.trace && i < slices; ++i) {
            std::vector<double> latUs;
            std::vector<double> qps;
            closedLoopPredict(*clf, rows, expected, 0.5 * slice, cp, latUs,
                              report);
            batchLoop(*clf, rows, expected, 1, 0.5 * slice, cb, qps, report);
            sliceP50.push_back(median(latUs));
            sliceQps.push_back(median(qps));
            calls += latUs.size();
            batches += qps.size();
        }
        serve.round(lightS, heavyS, report);
    }
    serve.ladder(0.45 * serveShare * t, report);
    serve.reportMetrics(opt.trace, report);
    server.reset();

    if (!opt.trace) {
        std::printf("# over %zu slices: predict p50 fastest %.2f, median "
                    "%.2f, slowest %.2f us; batch rate fastest %.0f, "
                    "median %.0f, slowest %.0f rows/s\n",
                    sliceP50.size(),
                    *std::min_element(sliceP50.begin(), sliceP50.end()),
                    median(sliceP50),
                    *std::max_element(sliceP50.begin(), sliceP50.end()),
                    *std::max_element(sliceQps.begin(), sliceQps.end()),
                    median(sliceQps),
                    *std::min_element(sliceQps.begin(), sliceQps.end()));
        report.set("predict_p50_us",
                   *std::min_element(sliceP50.begin(), sliceP50.end()), "us",
                   calls);
        report.set("batch_qps",
                   *std::max_element(sliceQps.begin(), sliceQps.end()),
                   "rows/s", batches);
        report.set("setup_s", median(setupS), "s", setupS.size());
        report.set("accuracy", accuracy, "fraction", rows.size());
        report.set("peak_rss_mb", peakMb, "MB", 1);
    }
}

} // namespace perfbench
