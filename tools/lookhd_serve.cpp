/**
 * @file
 * lookhd_serve: batched-inference server over a saved model.
 *
 * Usage:
 *   lookhd_serve --model model.bin
 *                [--port 7070] [--metrics-port 7071]
 *                [--workers 2] [--batch-max 16] [--threads 1]
 *                [--precision auto]
 *                [--queue-cap 1024]
 *                [--watchdog-ms 2000]
 *                [--slow-ms 100] [--sample-every N]
 *                [--slow-log slow.jsonl]
 *                [--event-log events.jsonl]
 *                [--metrics-out metrics.json]
 *                [--max-seconds N] [--quiet] [--version]
 *
 * Speaks newline-delimited JSON on the request port
 * ({"id":7,"features":[...]} -> {"id":7,"pred":1}) and HTTP on the
 * metrics port (GET /metrics = Prometheus text format v0.0.4,
 * /metrics.json = JSON snapshot, /healthz). Port 0 asks the kernel
 * for a free port; both bound ports are announced on stdout:
 *
 *   lookhd_serve: listening on 127.0.0.1:PORT
 *   lookhd_serve: metrics on 127.0.0.1:PORT
 *
 * so drivers (tools/serve_smoke.py) can parse them. SIGTERM/SIGINT
 * triggers a graceful shutdown: stop accepting, drain the queue,
 * flush the event log, exit 0. --event-log appends JSON-lines
 * events (flushed every watchdog period, on shutdown, and
 * best-effort on crash); --metrics-out dumps the final registry
 * JSON on exit. --max-seconds is a CI belt: self-terminate cleanly
 * after N seconds even if no signal arrives.
 */

#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <fstream>
#include <thread>

#include <sstream>

#include "cli.hpp"
#include "lookhd/serialize.hpp"
#include "obs/eventlog.hpp"
#include "obs/obs.hpp"
#include "obs/quality.hpp"
#include "profile_cli.hpp"
#include "serve/jsonin.hpp"
#include "serve/server.hpp"
#include "util/timer.hpp"
#include "version.hpp"

namespace {

constexpr const char *kUsage =
    "usage: lookhd_serve --model model.bin\n"
    "                    [--port 7070] [--metrics-port 7071]\n"
    "                    [--workers 2] [--batch-max 16]\n"
    "                    [--threads 1] [--precision auto]\n"
    "                    [--queue-cap 1024]\n"
    "                    [--watchdog-ms 2000]\n"
    "                    [--slow-ms 100] [--sample-every N]\n"
    "                    [--slow-log slow.jsonl]\n"
    "                    [--event-log events.jsonl]\n"
    "                    [--metrics-out metrics.json]\n"
    "                    [--window-s 5] [--slo-p99-ms 0]\n"
    "                    [--slo-error-rate 0] [--drift-psi 0.25]\n"
    "                    [--drift-ph-lambda 0]\n"
    "                    [--drift-warmup 3] [--drift-ref q.json]\n"
    "                    [--overload-hold-ms 2000]\n"
    "                    [--score-delay-us 0]\n"
    "                    [--profile-out profile.txt]\n"
    "                    [--profile-hz 99]\n"
    "                    [--max-seconds N] [--quiet] [--version]\n"
    "\n"
    "Serves newline-delimited JSON inference requests on --port and\n"
    "Prometheus text format v0.0.4 on GET /metrics of\n"
    "--metrics-port (plus /metrics.json, /healthz, /livez,\n"
    "/debug/health, /debug/windows?s=N, /debug/requests,\n"
    "/debug/inflight, /debug/trace?ms=N and\n"
    "/debug/profile?seconds=N&hz=H). Port 0 picks\n"
    "a free port; both are announced on stdout. SIGTERM/SIGINT\n"
    "drains and exits 0.\n"
    "  --threads N         prediction threads per worker batch\n"
    "                      (1 = the worker alone, 0 = one per\n"
    "                      hardware thread); results are identical\n"
    "  --precision P       serving arithmetic: auto (int8 when the\n"
    "                      model carries quantized forms, float64\n"
    "                      otherwise), float64, int8, or binary;\n"
    "                      exported as the precision label on\n"
    "                      /metrics\n"
    "  --slow-ms N         capture requests slower than N ms in the\n"
    "                      slow-request log (0 disables)\n"
    "  --sample-every N    also capture every Nth request\n"
    "  --slow-log FILE     append captured requests as JSON lines\n"
    "  --event-log FILE    append JSON-lines request-scope events\n"
    "  --metrics-out FILE  dump the final metric registry as JSON\n"
    "  --window-s N        health/telemetry window length in seconds\n"
    "                      (0 disables the window sampler; /healthz\n"
    "                      still reflects drain/overload/stall)\n"
    "  --slo-p99-ms N      p99 latency objective per window set\n"
    "                      (0 disables the rule)\n"
    "  --slo-error-rate F  error-ratio objective, e.g. 0.01\n"
    "                      (0 disables the rule)\n"
    "  --drift-psi F       PSI drift threshold on serve margins\n"
    "                      (0 disables; default 0.25)\n"
    "  --drift-ph-lambda F Page-Hinkley threshold on window margin\n"
    "                      means (0 disables; try 0.1-0.3)\n"
    "  --drift-warmup N    windows folded into the live reference\n"
    "  --drift-ref FILE    quality JSON from lookhd_train\n"
    "                      --quality-out; its margin histogram\n"
    "                      becomes the drift reference\n"
    "  --overload-hold-ms N  keep /healthz unready this long after\n"
    "                      an overload rejection\n"
    "  --score-delay-us N  artificial per-batch scoring delay\n"
    "                      (load-testing aid)\n"
    "  --profile-out FILE  profile the whole serve run and write\n"
    "                      speedscope JSON (.json) or collapsed\n"
    "                      stacks on shutdown (while it runs,\n"
    "                      /debug/profile answers 503)\n"
    "  --profile-hz N      profiler sampling rate (default 99)\n"
    "  --max-seconds N     self-terminate after N seconds (CI belt)\n"
    "  --version           print build identity and exit\n";

std::atomic<bool> gStopRequested{false};

void
handleStopSignal(int)
{
    gStopRequested.store(true);
}

/**
 * Load a drift reference from a `--quality-out` JSON document: the
 * margin histogram named "train.test" (lookhd_train's eval-split
 * margins), falling back to "predict", then the first entry. The
 * JSON parsing stays in the tool so obs/health.hpp takes plain
 * bucket fractions and never depends on the serve wire parser.
 */
std::vector<double>
loadDriftReference(const std::string &path)
{
    std::ifstream in(path);
    if (!in)
        throw std::runtime_error("cannot read " + path);
    std::ostringstream text;
    text << in.rdbuf();
    std::string parseError;
    const std::unique_ptr<lookhd::serve::JsonValue> doc =
        lookhd::serve::parseJson(text.str(), parseError);
    if (!doc)
        throw std::runtime_error("bad JSON in " + path + ": " +
                                 parseError);
    const lookhd::serve::JsonValue *margins = doc->find("margins");
    if (margins == nullptr || !margins->isObject() ||
        margins->object.empty())
        throw std::runtime_error(
            path + " has no \"margins\" histograms");
    const lookhd::serve::JsonValue *entry =
        margins->find("train.test");
    if (entry == nullptr)
        entry = margins->find("predict");
    if (entry == nullptr)
        entry = &margins->object.begin()->second;
    const lookhd::serve::JsonValue *buckets = entry->find("buckets");
    if (buckets == nullptr || !buckets->isArray() ||
        buckets->array.size() !=
            lookhd::obs::MarginHistogram::kNumBuckets)
        throw std::runtime_error(
            path + ": margin histogram has no " +
            std::to_string(
                lookhd::obs::MarginHistogram::kNumBuckets) +
            "-bucket \"buckets\" array");
    double total = 0.0;
    std::vector<double> fractions;
    fractions.reserve(buckets->array.size());
    for (const lookhd::serve::JsonValue &b : buckets->array) {
        if (!b.isNumber() || b.number < 0.0)
            throw std::runtime_error(path +
                                     ": non-numeric bucket count");
        fractions.push_back(b.number);
        total += b.number;
    }
    if (total <= 0.0)
        throw std::runtime_error(path +
                                 ": empty margin histogram");
    for (double &f : fractions)
        f /= total;
    return fractions;
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace lookhd;
    try {
        const tools::Args args(argc, argv,
                               {"quiet", "help", "version"});
        if (args.has("help")) {
            std::printf("%s", kUsage);
            return 0;
        }
        if (tools::handleVersionFlag(args, "lookhd_serve"))
            return 0;

        serve::ServeConfig cfg;
        cfg.port =
            static_cast<std::uint16_t>(args.getInt("port", 7070));
        cfg.metricsPort = static_cast<std::uint16_t>(
            args.getInt("metrics-port", 7071));
        cfg.workers =
            static_cast<std::size_t>(args.getInt("workers", 2));
        cfg.batchMaxSize =
            static_cast<std::size_t>(args.getInt("batch-max", 16));
        cfg.predictThreads =
            static_cast<std::size_t>(args.getInt("threads", 1));
        cfg.precision = args.get("precision", "auto");
        cfg.queueCapacity =
            static_cast<std::size_t>(args.getInt("queue-cap", 1024));
        cfg.watchdogDeadlineMs = static_cast<std::uint64_t>(
            args.getInt("watchdog-ms", 2000));
        cfg.slowThresholdNs =
            static_cast<std::uint64_t>(
                args.getInt("slow-ms", 100)) *
            1'000'000ULL;
        cfg.sampleEveryN = static_cast<std::uint64_t>(
            args.getInt("sample-every", 0));
        cfg.scoreDelayNs = static_cast<std::uint64_t>(
                               args.getInt("score-delay-us", 0)) *
                           1'000ULL;
        cfg.overloadHoldMs = static_cast<std::uint64_t>(
            args.getInt("overload-hold-ms", 2000));
        cfg.health.windowSeconds = args.getDouble("window-s", 5.0);
        cfg.health.slo.p99Ms = args.getDouble("slo-p99-ms", 0.0);
        cfg.health.slo.errorRate =
            args.getDouble("slo-error-rate", 0.0);
        cfg.health.drift.psiThreshold =
            args.getDouble("drift-psi", 0.25);
        cfg.health.drift.pageHinkley.lambda =
            args.getDouble("drift-ph-lambda", 0.0);
        cfg.health.drift.warmupWindows = static_cast<std::size_t>(
            args.getInt("drift-warmup", 3));
        const std::string drift_ref = args.get("drift-ref", "");
        if (!drift_ref.empty())
            cfg.health.drift.referenceFractions =
                loadDriftReference(drift_ref);

        const std::string slow_log = args.get("slow-log", "");
        if (!slow_log.empty()) {
            std::ofstream truncate(slow_log, std::ios::trunc);
            if (!truncate)
                throw std::runtime_error("cannot write " + slow_log);
        }

        const std::string event_log = args.get("event-log", "");
        if (!event_log.empty()) {
            // Truncate stale content, then append incrementally.
            std::ofstream truncate(event_log, std::ios::trunc);
            if (!truncate)
                throw std::runtime_error("cannot write " + event_log);
            obs::EventLog::installCrashFlush(event_log);
        }

        tools::applyBuildInfoLabels("lookhd_serve");
        Classifier clf = loadClassifierFile(args.require("model"));
        obs::EventLog::global().emit(
            obs::LogLevel::kInfo, "serve.model.loaded",
            {{"path", args.require("model")},
             {"bytes", std::to_string(clf.modelSizeBytes())}});

        // Start the continuous session before the server threads so
        // they arm their timers as they register.
        const std::string profile_out = args.get("profile-out", "");
        tools::startProfile(profile_out,
                            args.getInt("profile-hz", 0));

        serve::InferenceServer server(std::move(clf), cfg);
        server.start();
        std::printf("lookhd_serve: listening on 127.0.0.1:%u\n",
                    server.port());
        std::printf("lookhd_serve: metrics on 127.0.0.1:%u\n",
                    server.metricsPort());
        std::fflush(stdout);

        std::signal(SIGTERM, handleStopSignal);
        std::signal(SIGINT, handleStopSignal);

        // Incremental slow-log flush: the seq watermark makes each
        // append emit only records captured since the last flush.
        std::uint64_t slowLogSeq = 0;
        const auto flushSlowLog = [&] {
            if (slow_log.empty())
                return true;
            std::ofstream out(slow_log, std::ios::app);
            if (!out)
                return false;
            slowLogSeq =
                server.slowLog().writeJsonLines(out, slowLogSeq);
            return static_cast<bool>(out);
        };

        const long max_seconds = args.getInt("max-seconds", 0);
        util::Timer uptime;
        while (!gStopRequested.load()) {
            std::this_thread::sleep_for(
                std::chrono::milliseconds(50));
            if (max_seconds > 0 &&
                uptime.seconds() >=
                    static_cast<double>(max_seconds)) {
                obs::EventLog::global().emit(
                    obs::LogLevel::kWarn, "serve.max_seconds",
                    {{"limit", std::to_string(max_seconds)}});
                break;
            }
            if (!event_log.empty())
                obs::EventLog::global().flushToFile(event_log);
            flushSlowLog();
            if (!profile_out.empty())
                obs::Profiler::global().drain();
        }

        server.stop();
        tools::writeProfile(profile_out);
        if (!event_log.empty() &&
            !obs::EventLog::global().flushToFile(event_log))
            throw std::runtime_error("cannot write " + event_log);
        if (!flushSlowLog())
            throw std::runtime_error("cannot write " + slow_log);

        const std::string metrics_out = args.get("metrics-out", "");
        if (!metrics_out.empty()) {
            std::ofstream out(metrics_out);
            if (!out)
                throw std::runtime_error("cannot write " +
                                         metrics_out);
            out << obs::MetricRegistry::global().toJson() << "\n";
        }
        if (!args.has("quiet")) {
            std::printf("lookhd_serve: served %llu requests, "
                        "clean shutdown\n",
                        static_cast<unsigned long long>(
                            server.requestsServed()));
        }
        return 0;
    } catch (const std::exception &e) {
        std::fprintf(stderr, "lookhd_serve: %s\n", e.what());
        return 1;
    }
}
