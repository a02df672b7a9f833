/**
 * @file
 * lookhd_loadgen: closed-loop load generator for lookhd_serve.
 *
 * Usage:
 *   lookhd_loadgen --port PORT --features N
 *                  [--host 127.0.0.1] [--connections 4]
 *                  [--requests 1000] [--seed 42] [--burst 1]
 *                  [--lo 0] [--hi 1] [--trace] [--slow-ms N]
 *                  [--json-out FILE] [--quick] [--quiet]
 *                  [--version]
 *
 * Opens --connections TCP connections, each running a closed loop:
 * send one {"id":k,"features":[...]} request, wait for the
 * response, measure the round trip, repeat until the shared budget
 * of --requests is spent. --burst N pipelines N requests per round
 * trip instead (send N lines, then read N responses, matched by id
 * in any order) - this is what fills server-side batches and
 * exercises the batched predict path even with few connections.
 * Feature vectors are deterministic (util::Rng seeded from --seed
 * and the connection index, uniform in [--lo,--hi]); responses are
 * checked for a "pred" field and a matching echoed id. --quick
 * shrinks the run for CI smoke (2 connections, 64 requests).
 *
 * --trace stamps every request with a client-generated 128-bit
 * trace id (deterministic, from --seed) and checks the server
 * echoes it back; a missing or wrong echo counts as an error.
 * --slow-ms N prints one `loadgen.slow:` line per response slower
 * than N ms, with its trace id, so slow client observations can be
 * cross-referenced against the server's /debug/requests records
 * and exemplars. --json-out writes the summary (and the slow list)
 * as a JSON document for drivers.
 *
 * Prints a one-line machine-readable summary (client-side exact
 * quantiles, not the server's histogram estimate):
 *
 *   loadgen: requests=200 errors=0 qps=10430.1 p50_us=181.2
 *   p90_us=312.4 p99_us=585.0
 *
 * Exit status 0 iff every request got a well-formed response.
 */

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <string>
#include <thread>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "cli.hpp"
#include "obs/json.hpp"
#include "serve/jsonin.hpp"
#include "serve/net.hpp"
#include "util/rng.hpp"
#include "util/timer.hpp"
#include "version.hpp"

namespace {

constexpr const char *kUsage =
    "usage: lookhd_loadgen --port PORT --features N\n"
    "                      [--host 127.0.0.1] [--connections 4]\n"
    "                      [--requests 1000] [--seed 42] [--burst 1]\n"
    "                      [--lo 0] [--hi 1] [--trace] [--slow-ms N]\n"
    "                      [--json-out FILE] [--quick] [--quiet]\n"
    "                      [--version]\n"
    "\n"
    "Closed-loop load generator for lookhd_serve: each connection\n"
    "sends a request, waits for the response, repeats. --burst N\n"
    "pipelines N requests per round trip (fills server batches).\n"
    "Prints achieved QPS and client-side p50/p90/p99. Exits 0 iff\n"
    "every request succeeded.\n"
    "  --trace          stamp requests with client trace ids and\n"
    "                   require the server to echo them\n"
    "  --slow-ms N      print trace ids of responses slower than\n"
    "                   N ms (loadgen.slow: lines)\n"
    "  --json-out FILE  write the summary (with the slow list) as\n"
    "                   JSON\n"
    "  --version        print build identity and exit\n";

/** One response slower than --slow-ms. */
struct SlowResponse
{
    std::uint64_t id = 0;
    std::string trace;
    double us = 0.0;
};

struct WorkerResult
{
    std::vector<double> latenciesUs;
    std::vector<SlowResponse> slow;
    std::uint64_t errors = 0;
};

/** Deterministic 32-hex client trace id from the worker's stream. */
std::string
makeClientTraceHex(lookhd::util::Rng &rng)
{
    std::uint64_t hi = rng.next();
    std::uint64_t lo = rng.next();
    if (hi == 0 && lo == 0)
        lo = 1; // all-zero is the protocol's "no trace" sentinel
    char buf[33];
    std::snprintf(buf, sizeof(buf), "%016llx%016llx",
                  static_cast<unsigned long long>(hi),
                  static_cast<unsigned long long>(lo));
    return buf;
}

double
exactQuantile(std::vector<double> &sorted, double p)
{
    if (sorted.empty())
        return 0.0;
    const double rank =
        p * static_cast<double>(sorted.size() - 1);
    const auto lowIndex = static_cast<std::size_t>(rank);
    const std::size_t highIndex =
        std::min(lowIndex + 1, sorted.size() - 1);
    const double fraction = rank - std::floor(rank);
    return sorted[lowIndex] * (1.0 - fraction) +
           sorted[highIndex] * fraction;
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
            {{"port", Opt::kPort},         {"features", Opt::kCount},
             {"host", Opt::kText},         {"connections", Opt::kCount},
             {"requests", Opt::kCount},    {"seed", Opt::kCount},
             {"burst", Opt::kCount},       {"lo", Opt::kNumber},
             {"hi", Opt::kNumber},         {"trace", Opt::kFlag},
             {"slow-ms", Opt::kCount},     {"json-out", Opt::kText},
             {"quick", Opt::kFlag},        {"quiet", Opt::kFlag},
             {"help", Opt::kFlag},         {"version", Opt::kFlag}});
        if (args.has("help")) {
            std::printf("%s", kUsage);
            return 0;
        }
        if (tools::handleVersionFlag(args, "lookhd_loadgen"))
            return 0;

        const std::string host = args.get("host", "127.0.0.1");
        const auto port = static_cast<std::uint16_t>(
            std::stoi(args.require("port")));
        const auto features = static_cast<std::size_t>(
            std::stol(args.require("features")));
        std::size_t connections = static_cast<std::size_t>(
            args.getInt("connections", 4));
        std::size_t totalRequests =
            static_cast<std::size_t>(args.getInt("requests", 1000));
        if (args.has("quick")) {
            connections = 2;
            totalRequests = 64;
        }
        connections = std::max<std::size_t>(connections, 1);
        totalRequests = std::max<std::size_t>(totalRequests, 1);
        const auto seed =
            static_cast<std::uint64_t>(args.getInt("seed", 42));
        const std::size_t burst = std::max<std::size_t>(
            static_cast<std::size_t>(args.getInt("burst", 1)), 1);
        const double lo = args.getDouble("lo", 0.0);
        const double hi = args.getDouble("hi", 1.0);
        const bool withTrace = args.has("trace");
        const double slowUs =
            static_cast<double>(args.getInt("slow-ms", 0)) * 1000.0;
        const std::string json_out = args.get("json-out", "");

        std::atomic<std::size_t> nextRequest{0};
        std::vector<WorkerResult> results(connections);
        std::vector<std::thread> threads;
        threads.reserve(connections);

        const util::Timer wall;
        for (std::size_t c = 0; c < connections; ++c) {
            threads.emplace_back([&, c] {
                WorkerResult &result = results[c];
                try {
                    serve::TcpStream stream =
                        serve::TcpStream::connect(host, port);
                    util::Rng rng((seed + 0x10ad) ^ c);
                    std::string line;
                    while (true) {
                        // Claim up to `burst` ids from the shared
                        // budget, pipeline them in one write, then
                        // collect the responses (workers may answer
                        // out of order across batches).
                        std::vector<std::size_t> ids;
                        ids.reserve(burst);
                        for (std::size_t j = 0; j < burst; ++j) {
                            const std::size_t k =
                                nextRequest.fetch_add(1);
                            if (k >= totalRequests)
                                break;
                            ids.push_back(k);
                        }
                        if (ids.empty())
                            return;

                        std::string payload;
                        std::unordered_map<std::size_t, std::string>
                            sentTraces;
                        for (const std::size_t k : ids) {
                            obs::JsonWriter w;
                            w.beginObject();
                            w.kv("id",
                                 static_cast<std::uint64_t>(k));
                            if (withTrace) {
                                std::string &trace = sentTraces[k];
                                trace = makeClientTraceHex(rng);
                                w.kv("trace", trace);
                            }
                            w.key("features").beginArray();
                            for (std::size_t f = 0; f < features;
                                 ++f)
                                w.value(rng.nextDouble(lo, hi));
                            w.endArray();
                            w.endObject();
                            payload += w.str();
                            payload += '\n';
                        }

                        const util::Timer rtt;
                        if (!stream.sendAll(payload)) {
                            result.errors += ids.size();
                            return; // connection is gone
                        }
                        std::unordered_set<std::size_t> expected(
                            ids.begin(), ids.end());
                        for (std::size_t j = 0; j < ids.size();
                             ++j) {
                            if (!stream.readLine(line)) {
                                result.errors += expected.size();
                                return;
                            }
                            const double us = rtt.microseconds();

                            std::string parseError;
                            const auto doc =
                                serve::parseJson(line, parseError);
                            const serve::JsonValue *pred =
                                doc ? doc->find("pred") : nullptr;
                            const serve::JsonValue *id =
                                doc ? doc->find("id") : nullptr;
                            const bool idMatches =
                                id != nullptr && id->isNumber() &&
                                expected.erase(static_cast<
                                               std::size_t>(
                                    id->number)) == 1;
                            const serve::JsonValue *echoed =
                                doc ? doc->find("trace") : nullptr;
                            std::string echoedTrace;
                            if (echoed != nullptr &&
                                echoed->isString())
                                echoedTrace = echoed->string;
                            // --trace requires the server to echo
                            // the exact id we stamped.
                            bool traceMatches = true;
                            if (withTrace && idMatches) {
                                const auto sent = sentTraces.find(
                                    static_cast<std::size_t>(
                                        id->number));
                                traceMatches =
                                    sent != sentTraces.end() &&
                                    echoedTrace == sent->second;
                            }
                            if (pred == nullptr ||
                                !pred->isNumber() || !idMatches ||
                                !traceMatches) {
                                ++result.errors;
                            } else {
                                result.latenciesUs.push_back(us);
                                if (slowUs > 0.0 && us >= slowUs)
                                    result.slow.push_back(
                                        {static_cast<std::uint64_t>(
                                             id->number),
                                         echoedTrace, us});
                            }
                        }
                    }
                } catch (const std::exception &) {
                    ++result.errors;
                }
            });
        }
        for (std::thread &t : threads)
            t.join();
        const double elapsed = wall.seconds();

        std::vector<double> latencies;
        std::vector<SlowResponse> slow;
        std::uint64_t errors = 0;
        for (const WorkerResult &result : results) {
            latencies.insert(latencies.end(),
                             result.latenciesUs.begin(),
                             result.latenciesUs.end());
            slow.insert(slow.end(), result.slow.begin(),
                        result.slow.end());
            errors += result.errors;
        }
        // Unanswered budget (a worker bailed early) counts as errors.
        if (latencies.size() + errors < totalRequests)
            errors = totalRequests - latencies.size();
        std::sort(latencies.begin(), latencies.end());
        std::sort(slow.begin(), slow.end(),
                  [](const SlowResponse &a, const SlowResponse &b) {
                      return a.us > b.us;
                  });

        const double qps =
            elapsed > 0.0
                ? static_cast<double>(latencies.size()) / elapsed
                : 0.0;
        const double p50 = exactQuantile(latencies, 0.50);
        const double p90 = exactQuantile(latencies, 0.90);
        const double p99 = exactQuantile(latencies, 0.99);
        std::printf("loadgen: requests=%zu errors=%llu qps=%.1f "
                    "p50_us=%.1f p90_us=%.1f p99_us=%.1f\n",
                    latencies.size(),
                    static_cast<unsigned long long>(errors), qps,
                    p50, p90, p99);
        for (const SlowResponse &s : slow)
            std::printf("loadgen.slow: id=%llu trace=%s us=%.1f\n",
                        static_cast<unsigned long long>(s.id),
                        s.trace.empty() ? "-" : s.trace.c_str(),
                        s.us);

        if (!json_out.empty()) {
            obs::JsonWriter w;
            w.beginObject();
            w.kv("requests",
                 static_cast<std::uint64_t>(latencies.size()));
            w.kv("errors", errors);
            w.kv("qps", qps);
            w.kv("p50_us", p50);
            w.kv("p90_us", p90);
            w.kv("p99_us", p99);
            w.key("slow").beginArray();
            for (const SlowResponse &s : slow) {
                w.beginObject();
                w.kv("id", s.id);
                w.kv("trace", s.trace);
                w.kv("us", s.us);
                w.endObject();
            }
            w.endArray();
            w.endObject();
            std::ofstream out(json_out);
            if (!out)
                throw std::runtime_error("cannot write " +
                                         json_out);
            out << w.str() << "\n";
        }
        if (!args.has("quiet") && errors > 0)
            std::fprintf(stderr,
                         "lookhd_loadgen: %llu request(s) failed\n",
                         static_cast<unsigned long long>(errors));
        return errors == 0 ? 0 : 1;
    } catch (const std::exception &e) {
        std::fprintf(stderr, "lookhd_loadgen: %s\n", e.what());
        return 1;
    }
}
