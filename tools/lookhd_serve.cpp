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
 *                [--metrics-out metrics.json]
 *                [--window-s 5] [--overload-hold-ms 2000]
 *                [--score-delay-us 0]
 *                [--profile-out profile.txt] [--profile-hz 99]
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
 * flush the slow-request log, exit 0. --slow-log appends captured
 * requests as JSON lines (flushed every 50 ms and on shutdown);
 * --metrics-out dumps the final registry JSON on exit.
 * --max-seconds is a CI belt: self-terminate cleanly after N
 * seconds even if no signal arrives. An undeclared option or a
 * malformed number exits 1 before anything starts (tools/cli.hpp).
 */

#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <fstream>
#include <thread>

#include "cli.hpp"
#include "lookhd/serialize.hpp"
#include "obs/obs.hpp"
#include "profile_cli.hpp"
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
    "                    [--metrics-out metrics.json]\n"
    "                    [--window-s 5] [--overload-hold-ms 2000]\n"
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
    "  --metrics-out FILE  dump the final metric registry as JSON\n"
    "  --window-s N        telemetry window length in seconds; each\n"
    "                      window's margins are checked for drift\n"
    "                      (PSI >= 0.25) against the first 3\n"
    "                      windows of live traffic (0 disables\n"
    "                      windows and the drift rule; /healthz\n"
    "                      still reflects drain/overload/stall)\n"
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

} // namespace

int
main(int argc, char **argv)
{
    using namespace lookhd;
    try {
        using tools::Opt;
        const tools::Args args(
            argc, argv,
            {{"model", Opt::kText},          {"port", Opt::kPort},
             {"metrics-port", Opt::kPort},   {"workers", Opt::kCount},
             {"batch-max", Opt::kCount},     {"threads", Opt::kCount},
             {"precision", Opt::kText},      {"queue-cap", Opt::kCount},
             {"watchdog-ms", Opt::kCount},   {"slow-ms", Opt::kCount},
             {"sample-every", Opt::kCount},  {"slow-log", Opt::kText},
             {"metrics-out", Opt::kText},    {"window-s", Opt::kNumber},
             {"overload-hold-ms", Opt::kCount},
             {"score-delay-us", Opt::kCount},
             {"profile-out", Opt::kText},    {"profile-hz", Opt::kCount},
             {"max-seconds", Opt::kCount},   {"quiet", Opt::kFlag},
             {"help", Opt::kFlag},           {"version", Opt::kFlag}});
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
        cfg.windowSeconds = args.getDouble("window-s", 5.0);

        const std::string slow_log = args.get("slow-log", "");
        if (!slow_log.empty()) {
            std::ofstream truncate(slow_log, std::ios::trunc);
            if (!truncate)
                throw std::runtime_error("cannot write " + slow_log);
        }

        tools::applyBuildInfoLabels("lookhd_serve");
        Classifier clf = loadClassifierFile(args.require("model"));

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
                    static_cast<double>(max_seconds))
                break;
            flushSlowLog();
            if (!profile_out.empty())
                obs::Profiler::global().drain();
        }

        server.stop();
        tools::writeProfile(profile_out);
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
