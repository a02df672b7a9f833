/**
 * @file
 * In-process end-to-end tests of the inference server: real sockets
 * on ephemeral loopback ports, the same wire protocol lookhd_serve
 * and lookhd_loadgen speak.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <csignal>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <sstream>
#include <string>
#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <thread>
#include <unistd.h>
#include <vector>

#include "data/synthetic.hpp"
#include "lookhd/classifier.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "obs/quality.hpp"
#include "obs/reqtrace.hpp"
#include "serve/jsonin.hpp"
#include "serve/net.hpp"
#include "serve/server.hpp"

#if defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#define LOOKHD_TEST_SANITIZED 1
#endif
#endif
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define LOOKHD_TEST_SANITIZED 1
#endif

namespace {

using namespace lookhd;

Classifier
trainedClassifier()
{
    data::SyntheticSpec spec;
    spec.numFeatures = 12;
    spec.numClasses = 3;
    spec.seed = 11;
    auto [train, test] = data::makeTrainTest(spec, 200, 10);
    ClassifierConfig cfg;
    cfg.dim = 500;
    cfg.quantLevels = 4;
    cfg.chunkSize = 4;
    cfg.retrainEpochs = 2;
    Classifier clf(cfg);
    clf.fit(train);
    return clf;
}

std::string
requestLine(std::uint64_t id, const std::vector<double> &features,
            bool scores = false)
{
    obs::JsonWriter w;
    w.beginObject();
    w.kv("id", id);
    w.key("features").beginArray();
    for (const double f : features)
        w.value(f);
    w.endArray();
    if (scores)
        w.kv("scores", true);
    w.endObject();
    return w.str();
}

/** Send one line, read one response line, parse it. */
std::unique_ptr<serve::JsonValue>
roundTrip(serve::TcpStream &stream, const std::string &request)
{
    EXPECT_TRUE(stream.sendAll(request));
    EXPECT_TRUE(stream.sendAll("\n"));
    std::string line;
    EXPECT_TRUE(stream.readLine(line));
    std::string error;
    auto doc = serve::parseJson(line, error);
    EXPECT_NE(doc, nullptr) << error << ": " << line;
    return doc;
}

/**
 * Minimal HTTP/1.0 request against the scrape port; returns the
 * body. Optionally surfaces the status line, the newline-joined
 * response headers, and a non-GET method.
 */
std::string
httpGet(std::uint16_t port, const std::string &path,
        std::string *statusOut = nullptr,
        std::string *headersOut = nullptr,
        const std::string &method = "GET")
{
    serve::TcpStream stream =
        serve::TcpStream::connect("127.0.0.1", port);
    EXPECT_TRUE(stream.sendAll(method + " " + path +
                               " HTTP/1.0\r\n\r\n"));
    std::string line;
    EXPECT_TRUE(stream.readLine(line));
    if (statusOut != nullptr)
        *statusOut = line;
    while (stream.readLine(line) && !line.empty()) {
        if (headersOut != nullptr) {
            *headersOut += line;
            *headersOut += '\n';
        }
    }
    std::string body;
    while (stream.readLine(line)) {
        body += line;
        body += '\n';
    }
    return body;
}

class ServeTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        serve::ServeConfig cfg;
        cfg.port = 0;
        cfg.metricsPort = 0;
        cfg.workers = 2;
        cfg.batchMaxSize = 8;
        server_ = std::make_unique<serve::InferenceServer>(
            trainedClassifier(), cfg);
        server_->start();
    }

    void
    TearDown() override
    {
        server_->stop();
    }

    std::unique_ptr<serve::InferenceServer> server_;
};

TEST_F(ServeTest, AnswersPredictionsMatchingLocalInference)
{
    Classifier reference = trainedClassifier();
    data::SyntheticSpec spec;
    spec.numFeatures = 12;
    spec.numClasses = 3;
    spec.seed = 77;
    const data::Dataset probes =
        data::SyntheticProblem(spec).sample(20);

    serve::TcpStream stream =
        serve::TcpStream::connect("127.0.0.1", server_->port());
    for (std::size_t i = 0; i < probes.size(); ++i) {
        const auto row = probes.row(i);
        const std::vector<double> features(row.begin(), row.end());
        const auto doc = roundTrip(stream, requestLine(i, features));
        ASSERT_NE(doc, nullptr);
        const serve::JsonValue *pred = doc->find("pred");
        ASSERT_NE(pred, nullptr)
            << "no pred in response " << i;
        ASSERT_TRUE(pred->isNumber());
        EXPECT_EQ(static_cast<std::size_t>(pred->number),
                  reference.predict(row));
        const serve::JsonValue *id = doc->find("id");
        ASSERT_NE(id, nullptr);
        EXPECT_EQ(id->number, static_cast<double>(i));
    }
    EXPECT_GE(server_->requestsServed(), 20u);
}

TEST_F(ServeTest, ScoresFlagReturnsPerClassScores)
{
    serve::TcpStream stream =
        serve::TcpStream::connect("127.0.0.1", server_->port());
    const std::vector<double> features(12, 0.25);
    const auto doc =
        roundTrip(stream, requestLine(1, features, true));
    ASSERT_NE(doc, nullptr);
    const serve::JsonValue *scores = doc->find("scores");
    ASSERT_NE(scores, nullptr);
    ASSERT_TRUE(scores->isArray());
    EXPECT_EQ(scores->array.size(), 3u);
}

TEST_F(ServeTest, BadRequestsGetErrorsAndKeepTheConnection)
{
    serve::TcpStream stream =
        serve::TcpStream::connect("127.0.0.1", server_->port());

    auto expectError = [&](const std::string &request) {
        const auto doc = roundTrip(stream, request);
        ASSERT_NE(doc, nullptr);
        EXPECT_NE(doc->find("error"), nullptr)
            << "expected error for: " << request;
        EXPECT_EQ(doc->find("pred"), nullptr);
    };
    expectError("this is not json");
    expectError("{\"id\":1}");
    expectError("{\"id\":2,\"features\":[1,2]}"); // wrong count
    expectError("{\"id\":3,\"features\":[\"a\"]}");

    // The connection survives all of that.
    const std::vector<double> features(12, 0.5);
    const auto ok = roundTrip(stream, requestLine(9, features));
    ASSERT_NE(ok, nullptr);
    EXPECT_NE(ok->find("pred"), nullptr);
}

TEST_F(ServeTest, MetricsEndpointsServeSnapshotAndHealth)
{
    // Generate some traffic first so the counters are nonzero.
    serve::TcpStream stream =
        serve::TcpStream::connect("127.0.0.1", server_->port());
    const std::vector<double> features(12, 0.75);
    for (std::uint64_t i = 0; i < 5; ++i)
        ASSERT_NE(roundTrip(stream, requestLine(i, features)),
                  nullptr);

    std::string status;
    const std::string health =
        httpGet(server_->metricsPort(), "/healthz", &status);
    EXPECT_NE(status.find("200"), std::string::npos);
    EXPECT_NE(health.find("ok"), std::string::npos);

    const std::string prom =
        httpGet(server_->metricsPort(), "/metrics");
    EXPECT_NE(prom.find("# TYPE lookhd_serve_requests_total "
                        "counter"),
              std::string::npos);
    EXPECT_NE(prom.find("lookhd_serve_request_latency_ns_bucket"
                        "{le=\"+Inf\"}"),
              std::string::npos);
    EXPECT_EQ(prom.find("lookhd_serve_requests_total 0\n"),
              std::string::npos)
        << "request counter still zero after traffic";

    const std::string json =
        httpGet(server_->metricsPort(), "/metrics.json");
    std::string error;
    const auto doc = serve::parseJson(json, error);
    ASSERT_NE(doc, nullptr) << error;
    ASSERT_NE(doc->find("registry"), nullptr);
    EXPECT_NE(doc->find("registry")->find("latency"), nullptr);
    EXPECT_NE(doc->find("span_rollup"), nullptr);
    EXPECT_NE(doc->find("quality"), nullptr);

    httpGet(server_->metricsPort(), "/nope", &status);
    EXPECT_NE(status.find("404"), std::string::npos);
}

/** Parse the value of a bare `name <value>` sample line. */
double
promSample(const std::string &prom, const std::string &name)
{
    const std::string needle = name + ' ';
    std::size_t pos = 0;
    while ((pos = prom.find(needle, pos)) != std::string::npos) {
        if (pos == 0 || prom[pos - 1] == '\n')
            return std::stod(prom.substr(pos + needle.size()));
        ++pos;
    }
    return -1.0;
}

TEST(ServeQuantized, Int8PathServesMatchingPredictions)
{
    // The same trained model, served quantized: responses must match
    // the local int8 path bit-for-bit (the server's exact
    // arithmetic). Agreement with the float path is only approximate
    // here: quantized forms derive from the uncompressed prototypes
    // while this compressed model's float path scores lossy group
    // superpositions, so we assert a fixed-seed agreement rate.
    Classifier reference = trainedClassifier();
    Classifier quantizedRef = trainedClassifier();
    quantizedRef.setServingPrecision(Precision::kInt8);

    serve::ServeConfig cfg;
    cfg.port = 0;
    cfg.metricsPort = 0;
    cfg.workers = 2;
    cfg.batchMaxSize = 8;
    cfg.precision = "int8";
    serve::InferenceServer server(trainedClassifier(), cfg);
    server.start();

    data::SyntheticSpec spec;
    spec.numFeatures = 12;
    spec.numClasses = 3;
    spec.seed = 99;
    const data::Dataset probes =
        data::SyntheticProblem(spec).sample(20);

    const std::string before =
        httpGet(server.metricsPort(), "/metrics");
    const double quantizedBefore =
        promSample(before, "lookhd_serve_requests_quantized_total");

    serve::TcpStream stream =
        serve::TcpStream::connect("127.0.0.1", server.port());
    std::size_t floatAgreement = 0;
    for (std::size_t i = 0; i < probes.size(); ++i) {
        const auto row = probes.row(i);
        const std::vector<double> features(row.begin(), row.end());
        const auto doc = roundTrip(stream, requestLine(i, features));
        ASSERT_NE(doc, nullptr);
        const serve::JsonValue *pred = doc->find("pred");
        ASSERT_NE(pred, nullptr);
        ASSERT_TRUE(pred->isNumber());
        // Exact agreement with the local int8 path (same arithmetic,
        // bit-identical across kernels)...
        EXPECT_EQ(static_cast<std::size_t>(pred->number),
                  quantizedRef.predict(row))
            << "probe " << i;
        // ...and approximate agreement with the float path.
        if (static_cast<std::size_t>(pred->number) ==
            reference.predict(row))
            ++floatAgreement;
    }
    EXPECT_GE(floatAgreement, probes.size() * 7 / 10)
        << "int8 serving diverged from the float path on "
        << (probes.size() - floatAgreement) << " of " << probes.size()
        << " probes";

    // The quantized path must have fired, visibly: the counter moved
    // by the number of requests, and the build-info labels pin the
    // serving kernel and precision.
    const std::string prom =
        httpGet(server.metricsPort(), "/metrics");
    const double quantizedAfter =
        promSample(prom, "lookhd_serve_requests_quantized_total");
    EXPECT_GE(quantizedAfter,
              std::max(0.0, quantizedBefore) +
                  static_cast<double>(probes.size()));
    EXPECT_NE(prom.find("precision=\"int8\""), std::string::npos)
        << prom.substr(0, 400);
    EXPECT_NE(prom.find("kernel=\""), std::string::npos);

    server.stop();
}

TEST(ServeQuantized, AutoModeSelectsInt8WhenFormsAttached)
{
    Classifier clf = trainedClassifier();
    clf.quantize();

    serve::ServeConfig cfg;
    cfg.port = 0;
    cfg.metricsPort = 0;
    cfg.workers = 1;
    cfg.precision = "auto";
    serve::InferenceServer server(std::move(clf), cfg);
    server.start();

    serve::TcpStream stream =
        serve::TcpStream::connect("127.0.0.1", server.port());
    const std::vector<double> features(12, 0.5);
    ASSERT_NE(roundTrip(stream, requestLine(1, features)), nullptr);

    const std::string prom =
        httpGet(server.metricsPort(), "/metrics");
    EXPECT_NE(prom.find("precision=\"int8\""), std::string::npos);
    server.stop();
}

TEST(ServeQuantized, AutoModeStaysFloatWithoutForms)
{
    serve::ServeConfig cfg;
    cfg.port = 0;
    cfg.metricsPort = 0;
    cfg.workers = 1;
    cfg.precision = "auto";
    serve::InferenceServer server(trainedClassifier(), cfg);
    server.start();

    const std::string before =
        httpGet(server.metricsPort(), "/metrics");
    const double quantizedBefore =
        promSample(before, "lookhd_serve_requests_quantized_total");

    serve::TcpStream stream =
        serve::TcpStream::connect("127.0.0.1", server.port());
    const std::vector<double> features(12, 0.5);
    ASSERT_NE(roundTrip(stream, requestLine(1, features)), nullptr);

    const std::string prom =
        httpGet(server.metricsPort(), "/metrics");
    EXPECT_NE(prom.find("precision=\"float64\""),
              std::string::npos);
    // Float traffic must not advance the quantized counter.
    EXPECT_EQ(promSample(prom, "lookhd_serve_requests_quantized_total"),
              quantizedBefore);
    server.stop();
}

TEST(ServeQuantized, BinaryPrecisionServes)
{
    serve::ServeConfig cfg;
    cfg.port = 0;
    cfg.metricsPort = 0;
    cfg.workers = 1;
    cfg.precision = "binary";
    serve::InferenceServer server(trainedClassifier(), cfg);
    server.start();

    Classifier binaryRef = trainedClassifier();
    binaryRef.setServingPrecision(Precision::kBinary);

    serve::TcpStream stream =
        serve::TcpStream::connect("127.0.0.1", server.port());
    data::SyntheticSpec spec;
    spec.numFeatures = 12;
    spec.numClasses = 3;
    spec.seed = 101;
    const data::Dataset probes =
        data::SyntheticProblem(spec).sample(10);
    for (std::size_t i = 0; i < probes.size(); ++i) {
        const auto row = probes.row(i);
        const std::vector<double> features(row.begin(), row.end());
        const auto doc = roundTrip(stream, requestLine(i, features));
        ASSERT_NE(doc, nullptr);
        const serve::JsonValue *pred = doc->find("pred");
        ASSERT_NE(pred, nullptr);
        EXPECT_EQ(static_cast<std::size_t>(pred->number),
                  binaryRef.predict(row))
            << "probe " << i;
    }
    const std::string prom =
        httpGet(server.metricsPort(), "/metrics");
    EXPECT_NE(prom.find("precision=\"binary\""), std::string::npos);
    server.stop();
}

TEST(ServeQuantized, UnknownPrecisionRejectedAtConstruction)
{
    serve::ServeConfig cfg;
    cfg.port = 0;
    cfg.metricsPort = 0;
    cfg.precision = "int4";
    EXPECT_THROW(serve::InferenceServer(trainedClassifier(), cfg),
                 std::invalid_argument);
}

TEST_F(ServeTest, StopIsGracefulAndIdempotent)
{
    serve::TcpStream stream =
        serve::TcpStream::connect("127.0.0.1", server_->port());
    const std::vector<double> features(12, 0.1);
    ASSERT_NE(roundTrip(stream, requestLine(0, features)), nullptr);

    server_->stop();
    EXPECT_FALSE(server_->running());
    server_->stop(); // second stop is a no-op
    EXPECT_GE(server_->requestsServed(), 1u);
}

TEST_F(ServeTest, EchoesClientSuppliedTraceOnEveryBuild)
{
    // Trace echo is wire protocol, not instrumentation: it must
    // hold under -DLOOKHD_OBS=OFF too.
    const std::string trace =
        "deadbeefdeadbeefdeadbeefdeadbeef";
    serve::TcpStream stream =
        serve::TcpStream::connect("127.0.0.1", server_->port());
    const auto doc = roundTrip(
        stream, "{\"id\":7,\"trace\":\"" + trace +
                    "\",\"features\":[0.5,0.5,0.5,0.5,0.5,0.5,"
                    "0.5,0.5,0.5,0.5,0.5,0.5]}");
    ASSERT_NE(doc, nullptr);
    ASSERT_NE(doc->find("pred"), nullptr);
    const serve::JsonValue *echoed = doc->find("trace");
    ASSERT_NE(echoed, nullptr);
    ASSERT_TRUE(echoed->isString());
    EXPECT_EQ(echoed->string, trace);
}

TEST_F(ServeTest, MalformedTraceIsIgnoredNotRejected)
{
    serve::TcpStream stream =
        serve::TcpStream::connect("127.0.0.1", server_->port());
    const auto doc = roundTrip(
        stream, "{\"id\":8,\"trace\":\"nope\",\"features\":[0.5,"
                "0.5,0.5,0.5,0.5,0.5,0.5,0.5,0.5,0.5,0.5,0.5]}");
    ASSERT_NE(doc, nullptr);
    EXPECT_EQ(doc->find("error"), nullptr);
    ASSERT_NE(doc->find("pred"), nullptr);
    const serve::JsonValue *echoed = doc->find("trace");
    if (obs::kReqTraceCompiled) {
        // The unusable client id was replaced server-side.
        ASSERT_NE(echoed, nullptr);
        EXPECT_NE(echoed->string, "nope");
        EXPECT_EQ(echoed->string.size(), 32u);
    } else if (echoed != nullptr) {
        EXPECT_NE(echoed->string, "nope");
    }
}

TEST_F(ServeTest, ServerGeneratesTraceIdsWhenCompiled)
{
    serve::TcpStream stream =
        serve::TcpStream::connect("127.0.0.1", server_->port());
    const std::vector<double> features(12, 0.25);
    const auto doc = roundTrip(stream, requestLine(21, features));
    ASSERT_NE(doc, nullptr);
    const serve::JsonValue *trace = doc->find("trace");
    if (!obs::kReqTraceCompiled) {
        EXPECT_EQ(trace, nullptr);
        return;
    }
    ASSERT_NE(trace, nullptr);
    ASSERT_TRUE(trace->isString());
    obs::TraceId parsed;
    EXPECT_TRUE(obs::parseTraceIdHex(trace->string, parsed))
        << trace->string;
}

TEST(ServeDebug, DebugEndpointsExposeCapturedRequests)
{
    serve::ServeConfig cfg;
    cfg.workers = 1;
    cfg.batchMaxSize = 4;
    cfg.sampleEveryN = 1; // capture every request
    cfg.slowThresholdNs = ~0ULL >> 1;
    serve::InferenceServer server(trainedClassifier(), cfg);
    server.start();

    const std::string trace =
        "0123456789abcdef0123456789abcdef";
    {
        serve::TcpStream stream =
            serve::TcpStream::connect("127.0.0.1", server.port());
        const auto doc = roundTrip(
            stream, "{\"id\":99,\"trace\":\"" + trace +
                        "\",\"features\":[0.5,0.5,0.5,0.5,0.5,"
                        "0.5,0.5,0.5,0.5,0.5,0.5,0.5]}");
        ASSERT_NE(doc, nullptr);
        ASSERT_NE(doc->find("pred"), nullptr);
    }

    std::string status;
    // The capture lands just after the response write; poll briefly.
    std::string body;
    bool captured = false;
    const int attempts = obs::kReqTraceCompiled ? 100 : 1;
    for (int i = 0; i < attempts && !captured; ++i) {
        body = httpGet(server.metricsPort(), "/debug/requests",
                       &status);
        EXPECT_NE(status.find("200"), std::string::npos);
        captured = body.find(trace) != std::string::npos;
        if (!captured)
            std::this_thread::sleep_for(
                std::chrono::milliseconds(10));
    }
    std::string error;
    const auto debugDoc = serve::parseJson(body, error);
    ASSERT_NE(debugDoc, nullptr) << error << ": " << body;
    ASSERT_NE(debugDoc->find("captured_total"), nullptr);
    if (obs::kReqTraceCompiled) {
        EXPECT_TRUE(captured)
            << "/debug/requests never showed trace " << trace
            << ": " << body;
        EXPECT_GE(server.slowLog().totalCaptured(), 1u);
        EXPECT_NE(body.find("\"reason\":\"sampled\""),
                  std::string::npos);
        EXPECT_NE(body.find("\"stages\""), std::string::npos);
    } else {
        EXPECT_EQ(debugDoc->find("captured_total")->number, 0.0);
    }

    const std::string inflight =
        httpGet(server.metricsPort(), "/debug/inflight", &status);
    EXPECT_NE(status.find("200"), std::string::npos);
    const auto inflightDoc = serve::parseJson(inflight, error);
    ASSERT_NE(inflightDoc, nullptr) << error << ": " << inflight;
    EXPECT_NE(inflightDoc->find("queued"), nullptr);
    EXPECT_NE(inflightDoc->find("workers"), nullptr);

    const std::string traceBody =
        httpGet(server.metricsPort(), "/debug/trace?ms=1", &status);
    EXPECT_NE(status.find("200"), std::string::npos);
    EXPECT_NE(traceBody.find("traceEvents"), std::string::npos);

    server.stop();
}

TEST(ServeWatchdog, StallDumpFiresOncePerStuckBatch)
{
    serve::ServeConfig cfg;
    cfg.workers = 1;
    cfg.batchMaxSize = 4;
    cfg.watchdogDeadlineMs = 50;
    cfg.watchdogPeriodMs = 10;
    // First batch stalls well past the deadline; the rest run free.
    std::atomic<bool> stalled{false};
    cfg.batchHook = [&stalled](std::size_t) {
        if (!stalled.exchange(true))
            std::this_thread::sleep_for(
                std::chrono::milliseconds(300));
    };
    serve::InferenceServer server(trainedClassifier(), cfg);
    const std::uint64_t tripsBefore =
        obs::MetricRegistry::global()
            .counter("serve.watchdog.trips")
            .value();
    server.start();

    const std::vector<double> features(12, 0.5);
    serve::TcpStream stream =
        serve::TcpStream::connect("127.0.0.1", server.port());
    {
        const auto doc = roundTrip(stream, requestLine(1, features));
        ASSERT_NE(doc, nullptr);
        EXPECT_NE(doc->find("pred"), nullptr);
    }
    // The 300 ms stall spans many 10 ms watchdog polls past the
    // 50 ms deadline, but the per-batch guard dumps exactly once.
    const std::uint64_t tripsAfter =
        obs::MetricRegistry::global()
            .counter("serve.watchdog.trips")
            .value();
    EXPECT_EQ(tripsAfter - tripsBefore, 1u);

    // The server recovered: the next request round-trips promptly.
    {
        const auto doc = roundTrip(stream, requestLine(2, features));
        ASSERT_NE(doc, nullptr);
        EXPECT_NE(doc->find("pred"), nullptr);
    }
    EXPECT_EQ(obs::MetricRegistry::global()
                      .counter("serve.watchdog.trips")
                      .value() -
                  tripsBefore,
              1u);
    server.stop();
}

TEST(ServeHttp, NonGetRejectedAndResponsesUncacheable)
{
    serve::ServeConfig cfg;
    cfg.workers = 1;
    serve::InferenceServer server(trainedClassifier(), cfg);
    server.start();

    std::string status;
    std::string headers;
    httpGet(server.metricsPort(), "/metrics", &status, &headers,
            "POST");
    EXPECT_NE(status.find("405"), std::string::npos) << status;
    EXPECT_NE(headers.find("Allow: GET"), std::string::npos)
        << headers;

    headers.clear();
    const std::string body =
        httpGet(server.metricsPort(), "/metrics", &status, &headers);
    EXPECT_NE(status.find("200"), std::string::npos);
    // Point-in-time telemetry must never be served from a cache.
    EXPECT_NE(headers.find("Cache-Control: no-store"),
              std::string::npos)
        << headers;
    EXPECT_FALSE(body.empty());

    // Liveness is protocol-level: always 200 while the loop runs.
    const std::string live =
        httpGet(server.metricsPort(), "/livez", &status);
    EXPECT_NE(status.find("200"), std::string::npos);
    EXPECT_NE(live.find("ok"), std::string::npos);
    server.stop();
}

TEST(ServeHttp, SilentScrapeConnectionDoesNotBlock)
{
    // The scrape port serves one connection at a time, so a peer that
    // connects and sends nothing must time out rather than hold up
    // /healthz and stop(). Every read here is bounded and the silent
    // peers hang up after 5 s: a server that waits on them fails this
    // test instead of hanging it.
    serve::ServeConfig cfg;
    cfg.workers = 1;
    serve::InferenceServer server(trainedClassifier(), cfg);
    server.start();

    serve::TcpStream first =
        serve::TcpStream::connect("127.0.0.1", server.metricsPort());
    // Let the scrape loop take it before the probe queues behind it.
    std::this_thread::sleep_for(std::chrono::milliseconds(200));
    std::string status = "healthz unanswered";
    {
        serve::TcpStream probe =
            serve::TcpStream::connect("127.0.0.1", server.metricsPort());
        probe.setReadDeadline(3000);
        EXPECT_TRUE(probe.sendAll("GET /healthz HTTP/1.0\r\n\r\n"));
        try {
            probe.readLine(status);
        } catch (const serve::NetError &) {
            // Timed out: status keeps saying so.
        }
    }
    EXPECT_NE(status.find("200"), std::string::npos) << status;

    serve::TcpStream second =
        serve::TcpStream::connect("127.0.0.1", server.metricsPort());
    std::this_thread::sleep_for(std::chrono::milliseconds(200));
    std::atomic<bool> stopped{false};
    std::thread hangUp([&] {
        for (int i = 0; i < 500 && !stopped.load(); ++i)
            std::this_thread::sleep_for(std::chrono::milliseconds(10));
        first.shutdownBoth();
        second.shutdownBoth();
    });
    const auto stopStart = std::chrono::steady_clock::now();
    server.stop();
    const auto stopMs =
        std::chrono::duration_cast<std::chrono::milliseconds>(
            std::chrono::steady_clock::now() - stopStart)
            .count();
    stopped.store(true);
    hangUp.join();
    EXPECT_LT(stopMs, 3000) << "stop() took " << stopMs << " ms";
}

TEST(ServeHttp, TricklingScrapeConnectionDoesNotBlock)
{
    // A peer that trickles its request line a byte every 0.5 s for
    // 8 s must not hold the one scrape thread: the request line and
    // headers share one deadline. Every read here is bounded, so a
    // server that waits on the trickle fails instead of hanging.
    serve::ServeConfig cfg;
    cfg.workers = 1;
    serve::InferenceServer server(trainedClassifier(), cfg);
    server.start();

    std::atomic<bool> done{false};
    std::thread trickler([&] {
        serve::TcpStream peer =
            serve::TcpStream::connect("127.0.0.1", server.metricsPort());
        const std::string partial = "GET /healthz HTT"; // no newline
        for (std::size_t i = 0; i < partial.size() && !done.load();
             ++i) {
            if (!peer.sendAll(partial.substr(i, 1)))
                break;
            std::this_thread::sleep_for(std::chrono::milliseconds(500));
        }
    });
    // Let the scrape loop take the trickler before the probe queues.
    std::this_thread::sleep_for(std::chrono::milliseconds(300));

    std::string status = "healthz unanswered";
    const auto probeStart = std::chrono::steady_clock::now();
    {
        serve::TcpStream probe =
            serve::TcpStream::connect("127.0.0.1", server.metricsPort());
        probe.setReadDeadline(3000);
        EXPECT_TRUE(probe.sendAll("GET /healthz HTTP/1.0\r\n\r\n"));
        try {
            probe.readLine(status);
        } catch (const serve::NetError &) {
            // Timed out: status keeps saying so.
        }
    }
    const auto probeMs =
        std::chrono::duration_cast<std::chrono::milliseconds>(
            std::chrono::steady_clock::now() - probeStart)
            .count();
    EXPECT_NE(status.find("200"), std::string::npos) << status;
    EXPECT_LT(probeMs, 3000) << "/healthz took " << probeMs << " ms";

    const auto stopStart = std::chrono::steady_clock::now();
    server.stop();
    const auto stopMs =
        std::chrono::duration_cast<std::chrono::milliseconds>(
            std::chrono::steady_clock::now() - stopStart)
            .count();
    done.store(true);
    trickler.join();
    EXPECT_LT(stopMs, 3000) << "stop() took " << stopMs << " ms";
}

TEST(ServeHealth, OverloadFlipsHealthzAndRecovers)
{
    serve::ServeConfig cfg;
    cfg.workers = 1;
    cfg.batchMaxSize = 1;
    cfg.queueCapacity = 2;
    cfg.scoreDelayNs = 5'000'000; // 5 ms per request
    // Long enough that the unready episode stays latched while the
    // probe loop below catches it, even under sanitizer slowdown.
    cfg.overloadHoldMs = 2000;
    cfg.windowSeconds = 0.0; // protocol readiness only
    serve::InferenceServer server(trainedClassifier(), cfg);
    server.start();

    std::string status;
    httpGet(server.metricsPort(), "/healthz", &status);
    ASSERT_NE(status.find("200"), std::string::npos) << status;

    // Burst far past queue capacity on one slow worker: some
    // requests are rejected as overloaded, and /healthz must say so
    // while the episode is live.
    const std::vector<double> features(12, 0.5);
    serve::TcpStream stream =
        serve::TcpStream::connect("127.0.0.1", server.port());
    constexpr int kBurst = 40;
    std::string burst;
    for (int i = 0; i < kBurst; ++i)
        burst += requestLine(static_cast<std::uint64_t>(i),
                             features) +
                 "\n";
    ASSERT_TRUE(stream.sendAll(burst));

    // sendAll returns before the connection thread has ingested the
    // burst, so poll until the queue saturates; the overload hold
    // keeps the verdict latched once a rejection lands.
    std::string unready;
    bool sawUnready = false;
    for (int i = 0; i < 200 && !sawUnready; ++i) {
        unready = httpGet(server.metricsPort(), "/healthz", &status);
        sawUnready = status.find("503") != std::string::npos;
        if (!sawUnready)
            std::this_thread::sleep_for(
                std::chrono::milliseconds(10));
    }
    ASSERT_TRUE(sawUnready) << status;
    std::string error;
    const auto doc = serve::parseJson(unready, error);
    ASSERT_NE(doc, nullptr) << error << ": " << unready;
    ASSERT_NE(doc->find("reason"), nullptr);
    const std::string reason = doc->find("reason")->string;
    EXPECT_TRUE(reason == "queue_saturated" ||
                reason == "overloaded")
        << reason;

    // Drain: every request gets a response (prediction or overload
    // error) and at least one was rejected.
    int overloaded = 0;
    for (int i = 0; i < kBurst; ++i) {
        std::string line;
        ASSERT_TRUE(stream.readLine(line)) << "response " << i;
        if (line.find("overloaded") != std::string::npos)
            ++overloaded;
    }
    EXPECT_GT(overloaded, 0);

    // Recovery: queue empty + overload hold expired -> ready again.
    bool recovered = false;
    for (int i = 0; i < 200 && !recovered; ++i) {
        httpGet(server.metricsPort(), "/healthz", &status);
        recovered = status.find("200") != std::string::npos;
        if (!recovered)
            std::this_thread::sleep_for(
                std::chrono::milliseconds(25));
    }
    EXPECT_TRUE(recovered) << "healthz stuck unready: " << status;
    server.stop();
}

TEST(ServeHealth, BusyWorkerNeverReadsAsStalled)
{
    // A worker stamps its busy-since time as it starts each batch. A
    // readiness check that read the clock just before that stamp must
    // see a fresh batch, not an unsigned wrap to a centuries-long
    // stall ("watchdog_stalled" on a healthy server).
    serve::ServeConfig cfg;
    cfg.workers = 1;
    cfg.batchMaxSize = 1;
    cfg.windowSeconds = 0.0; // protocol readiness only
    serve::InferenceServer server(trainedClassifier(), cfg);
    server.start();

    // Keep the worker starting batches back to back; the queue never
    // fills, so every verdict should be "ok".
    std::atomic<bool> done{false};
    std::thread client([&] {
        serve::TcpStream stream =
            serve::TcpStream::connect("127.0.0.1", server.port());
        const std::vector<double> features(12, 0.5);
        std::string burst;
        for (std::uint64_t i = 0; i < 8; ++i)
            burst += requestLine(i, features) + "\n";
        std::string line;
        while (!done.load(std::memory_order_relaxed)) {
            ASSERT_TRUE(stream.sendAll(burst));
            for (int i = 0; i < 8; ++i)
                ASSERT_TRUE(stream.readLine(line));
        }
    });

    std::size_t checks = 0;
    std::size_t unready = 0;
    std::string reason;
    const auto end = std::chrono::steady_clock::now() +
                     std::chrono::milliseconds(500);
    while (std::chrono::steady_clock::now() < end) {
        const serve::InferenceServer::Readiness r =
            server.checkReadiness();
        ++checks;
        if (!r.ready) {
            ++unready;
            reason = r.reason;
        }
    }
    done.store(true, std::memory_order_relaxed);
    client.join();
    EXPECT_GT(server.requestsServed(), 0u);
    EXPECT_EQ(unready, 0u) << unready << " of " << checks
                           << " checks unready, last reason " << reason;
    server.stop();
}

TEST(ServeHealth, DebugHealthAndWindowsEndpoints)
{
    serve::ServeConfig cfg;
    cfg.workers = 1;
    cfg.windowSeconds = 0.05; // fast sampler for the test
    serve::InferenceServer server(trainedClassifier(), cfg);
    server.start();

    const std::vector<double> features(12, 0.25);
    {
        serve::TcpStream stream =
            serve::TcpStream::connect("127.0.0.1", server.port());
        for (std::uint64_t i = 0; i < 5; ++i)
            ASSERT_NE(roundTrip(stream, requestLine(i, features)),
                      nullptr);
    }

    std::string status;
    std::string error;
    if constexpr (obs::kWindowsCompiled) {
        ASSERT_NE(server.healthMonitor(), nullptr);
        // Wait for the sampler to close at least two windows.
        for (int i = 0;
             i < 300 && server.healthMonitor()->windowsSampled() < 2;
             ++i)
            std::this_thread::sleep_for(
                std::chrono::milliseconds(10));
        EXPECT_GE(server.healthMonitor()->windowsSampled(), 2u);

        const std::string windows = httpGet(
            server.metricsPort(), "/debug/windows?s=60", &status);
        EXPECT_NE(status.find("200"), std::string::npos);
        const auto windowsDoc = serve::parseJson(windows, error);
        ASSERT_NE(windowsDoc, nullptr) << error << ": " << windows;
        ASSERT_NE(windowsDoc->find("windows"), nullptr);
        EXPECT_GE(windowsDoc->find("windows")->array.size(), 1u);

        const std::string prom =
            httpGet(server.metricsPort(), "/metrics");
        EXPECT_NE(prom.find("lookhd_window_seq"),
                  std::string::npos);
        EXPECT_NE(prom.find("lookhd_drift_psi"), std::string::npos);
        EXPECT_NE(prom.find("lookhd_serve_health_ok"),
                  std::string::npos);
    } else {
        EXPECT_EQ(server.healthMonitor(), nullptr);
        httpGet(server.metricsPort(), "/debug/windows", &status);
        EXPECT_NE(status.find("404"), std::string::npos) << status;
    }

    const std::string health =
        httpGet(server.metricsPort(), "/debug/health", &status);
    EXPECT_NE(status.find("200"), std::string::npos);
    const auto healthDoc = serve::parseJson(health, error);
    ASSERT_NE(healthDoc, nullptr) << error << ": " << health;
    ASSERT_NE(healthDoc->find("ready"), nullptr);
    ASSERT_NE(healthDoc->find("protocol"), nullptr);
    EXPECT_NE(healthDoc->find("protocol")->find("queue_capacity"),
              nullptr);
    if constexpr (obs::kWindowsCompiled) {
        const serve::JsonValue *engine = healthDoc->find("engine");
        ASSERT_NE(engine, nullptr) << health;
        EXPECT_NE(engine->find("drift"), nullptr);
    }
    server.stop();
}

TEST(ServeHealth, CheckReadinessReportsDrainOnStop)
{
    serve::ServeConfig cfg;
    cfg.workers = 1;
    serve::InferenceServer server(trainedClassifier(), cfg);
    server.start();
    EXPECT_TRUE(server.checkReadiness().ready);
    server.stop();
    // After stop the scrape port is gone, but the readiness logic
    // itself must report draining (this is what a scrape racing the
    // shutdown would have seen).
    const serve::InferenceServer::Readiness r =
        server.checkReadiness();
    EXPECT_FALSE(r.ready);
    EXPECT_EQ(r.reason, "draining");
}

TEST(ServeHealth, DriftFlipsHealthzAndRecovers)
{
    if (!obs::kWindowsCompiled)
        GTEST_SKIP() << "windows are compiled out";
    // The drift verdict end to end: served scores -> serve.predict
    // margins -> window collector -> PSI against the warm-up
    // reference -> /healthz.
    const Classifier reference = trainedClassifier();
    data::SyntheticSpec spec;
    spec.numFeatures = 12;
    spec.numClasses = 3;
    spec.seed = 77;
    const data::Dataset probes =
        data::SyntheticProblem(spec).sample(40);
    const auto marginOf = [&](std::size_t i) {
        return obs::confidenceMargin(reference.scores(probes.row(i)));
    };
    std::size_t rowA = 0; // most confident probe
    std::size_t rowB = 0; // least confident probe
    for (std::size_t i = 1; i < probes.size(); ++i) {
        if (marginOf(i) > marginOf(rowA))
            rowA = i;
        if (marginOf(i) < marginOf(rowB))
            rowB = i;
    }
    ASSERT_NE(obs::MarginHistogram::bucketOf(marginOf(rowA)),
              obs::MarginHistogram::bucketOf(marginOf(rowB)))
        << "probes A and B must land in different margin buckets";
    const auto burstOf = [&](std::size_t row) {
        const auto r = probes.row(row);
        const std::string line =
            requestLine(row, std::vector<double>(r.begin(), r.end())) +
            "\n";
        std::string burst;
        for (int i = 0; i < 40; ++i)
            burst += line;
        return burst;
    };
    const std::string burstA = burstOf(rowA);
    const std::string burstB = burstOf(rowB);

    // The first window counts every margin recorded since the
    // process started; earlier tests' traffic must not leak into the
    // warm-up reference.
    obs::QualityTelemetry::global().reset();
    serve::ServeConfig cfg;
    cfg.windowSeconds = 0.05;
    cfg.watchdogPeriodMs = 10;
    serve::InferenceServer server(trainedClassifier(), cfg);
    server.start();
    ASSERT_NE(server.healthMonitor(), nullptr);

    serve::TcpStream stream =
        serve::TcpStream::connect("127.0.0.1", server.port());
    const auto send = [&](const std::string &burst) {
        ASSERT_TRUE(stream.sendAll(burst));
        std::string line;
        for (int i = 0; i < 40; ++i)
            ASSERT_TRUE(stream.readLine(line));
    };
    const auto healthz = [&](std::string &body) {
        std::string status;
        body = httpGet(server.metricsPort(), "/healthz", &status);
        return status;
    };

    auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(20);
    while (!server.healthMonitor()->driftState().referenceReady &&
           std::chrono::steady_clock::now() < deadline)
        send(burstA);
    ASSERT_TRUE(server.healthMonitor()->driftState().referenceReady);

    std::string body;
    bool drifted = false;
    deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(20);
    while (!drifted && std::chrono::steady_clock::now() < deadline) {
        send(burstB);
        drifted = healthz(body).find("503") != std::string::npos &&
                  body.find("\"drift\"") != std::string::npos;
    }
    ASSERT_TRUE(drifted) << "last /healthz body: " << body;

    bool recovered = false;
    deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(20);
    while (!recovered && std::chrono::steady_clock::now() < deadline) {
        send(burstA);
        recovered = healthz(body).find("200") != std::string::npos;
    }
    EXPECT_TRUE(recovered) << "last /healthz body: " << body;
    EXPECT_GE(server.healthMonitor()->driftState().trips, 1u);
    server.stop();
}

TEST(ServeLifecycle, EphemeralPortsAreDistinctAndNonzero)
{
    serve::ServeConfig cfg;
    cfg.workers = 1;
    serve::InferenceServer server(trainedClassifier(), cfg);
    server.start();
    EXPECT_NE(server.port(), 0);
    EXPECT_NE(server.metricsPort(), 0);
    EXPECT_NE(server.port(), server.metricsPort());
    server.stop();
}

/** Descriptors this process holds open (/proc/self/fd entries). */
std::uint64_t
openFds()
{
    const auto entries = std::distance(
        std::filesystem::directory_iterator("/proc/self/fd"),
        std::filesystem::directory_iterator());
    // Less the iterator's own handle on the directory.
    return static_cast<std::uint64_t>(entries) - 1;
}

TEST(ServeLifecycle, ClosedConnectionsReleaseTheirSockets)
{
    // A closed connection gives back its server-side socket and its
    // reader thread while the server runs, not only at stop().
    serve::ServeConfig cfg;
    cfg.workers = 1;
    serve::InferenceServer server(trainedClassifier(), cfg);
    server.start();
    const std::uint64_t fdsBefore = openFds();

    const std::vector<double> features(12, 0.5);
    for (std::uint64_t i = 0; i < 64; ++i) {
        serve::TcpStream stream =
            serve::TcpStream::connect("127.0.0.1", server.port());
        ASSERT_NE(roundTrip(stream, requestLine(i, features)), nullptr);
    }

    // The acceptor reaps finished readers on each 100 ms poll.
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(1);
    std::uint64_t fds = openFds();
    while (fds > fdsBefore + 2 &&
           std::chrono::steady_clock::now() < deadline) {
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
        fds = openFds();
    }
    EXPECT_NEAR(static_cast<double>(fds),
                static_cast<double>(fdsBefore), 2.0)
        << "open fds after 64 closed connections";
    server.stop();
}

/** @p count held-out rows of the 12-feature problem the test
 * classifier was trained on, as request lines with ids 0.. */
std::vector<std::string>
probeLines(std::size_t count, data::Dataset &probes)
{
    data::SyntheticSpec spec;
    spec.numFeatures = 12;
    spec.numClasses = 3;
    spec.seed = 5;
    probes = data::SyntheticProblem(spec).sample(count);
    std::vector<std::string> lines;
    for (std::size_t i = 0; i < probes.size(); ++i) {
        const auto row = probes.row(i);
        lines.push_back(
            requestLine(i, std::vector<double>(row.begin(), row.end())) +
            "\n");
    }
    return lines;
}

/** Read answers until EOF (or for at most 10 s); how many carried
 * the prediction @p reference makes for their probe. */
std::size_t
correctAnswersUntilEof(serve::TcpStream &stream,
                       const Classifier &reference,
                       const data::Dataset &probes)
{
    stream.setReadDeadline(10000);
    std::size_t correct = 0;
    std::string line;
    try {
        while (stream.readLine(line)) {
            std::string error;
            const auto doc = serve::parseJson(line, error);
            if (doc == nullptr)
                continue;
            const serve::JsonValue *id = doc->find("id");
            const serve::JsonValue *pred = doc->find("pred");
            if (id == nullptr || pred == nullptr)
                continue;
            const auto probe = static_cast<std::size_t>(id->number);
            correct += probe < probes.size() &&
                       static_cast<std::size_t>(pred->number) ==
                           reference.predict(probes.row(probe));
        }
    } catch (const serve::NetError &) {
        // Deadline: whatever arrived is the count.
    }
    return correct;
}

TEST(ServeLifecycle, HalfClosedClientGetsEveryAnswer)
{
    // A client may pipeline its requests, half-close (SHUT_WR) and
    // then read: the server's reader sees EOF long before the
    // workers are through, and every queued answer must still go
    // out before the connection closes.
    serve::ServeConfig cfg;
    cfg.workers = 1;
    serve::InferenceServer server(trainedClassifier(), cfg);
    server.start();
    const Classifier reference = trainedClassifier();
    data::Dataset probes(12, 3);
    std::string pipelined;
    for (const std::string &line : probeLines(200, probes))
        pipelined += line;

    serve::TcpStream stream =
        serve::TcpStream::connect("127.0.0.1", server.port());
    ASSERT_TRUE(stream.sendAll(pipelined));
    ASSERT_EQ(::shutdown(stream.fd(), SHUT_WR), 0);
    EXPECT_EQ(correctAnswersUntilEof(stream, reference, probes), 200u);
    server.stop();
}

TEST(ServeLifecycle, StopAnswersEveryQueuedRequest)
{
    // stop() shuts every reader's read side, then lets the workers
    // drain: requests already queued are answered, not dropped.
    std::atomic<bool> held{false};
    std::atomic<bool> release{false};
    serve::ServeConfig cfg;
    cfg.workers = 1;
    cfg.batchMaxSize = 1;
    // The first batch holds the worker until released (bounded, so a
    // failed assertion cannot hang stop()).
    cfg.batchHook = [&held, &release](std::size_t) {
        if (held.exchange(true))
            return;
        for (int i = 0; i < 5000 && !release.load(); ++i)
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
    };
    serve::InferenceServer server(trainedClassifier(), cfg);
    server.start();
    const Classifier reference = trainedClassifier();
    data::Dataset probes(12, 3);
    const std::vector<std::string> lines = probeLines(20, probes);

    serve::TcpStream stream =
        serve::TcpStream::connect("127.0.0.1", server.port());
    ASSERT_TRUE(stream.sendAll(lines[0]));
    for (int i = 0; i < 500 && !held.load(); ++i)
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
    ASSERT_TRUE(held.load());
    std::string rest;
    for (std::size_t i = 1; i < lines.size(); ++i)
        rest += lines[i];
    ASSERT_TRUE(stream.sendAll(rest));
    obs::MetricRegistry &registry = obs::MetricRegistry::global();
    obs::Gauge &depth = registry.gauge("serve.queue.depth");
    for (int i = 0; i < 500 && depth.value() != 19.0; ++i)
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
    ASSERT_EQ(depth.value(), 19.0);

    std::thread stopper([&server] { server.stop(); });
    // Release the worker only once stop() has shut the reader down.
    obs::Gauge &open = registry.gauge("serve.connections.open");
    for (int i = 0; i < 500 && open.value() != 0.0; ++i)
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
    EXPECT_EQ(open.value(), 0.0);
    release.store(true);
    stopper.join();
    EXPECT_EQ(correctAnswersUntilEof(stream, reference, probes), 20u);
}

/** utime + stime of process @p pid in seconds (/proc/<pid>/stat). */
double
processCpuSeconds(pid_t pid)
{
    std::ifstream in("/proc/" + std::to_string(pid) + "/stat");
    const std::string stat{std::istreambuf_iterator<char>(in), {}};
    // The command name is parenthesized and may hold spaces; fields
    // after it start at 3 (state), so utime (14) and stime (15) are
    // the 12th and 13th.
    std::istringstream rest(stat.substr(stat.rfind(')') + 1));
    const std::vector<std::string> fields{
        std::istream_iterator<std::string>(rest), {}};
    if (fields.size() < 13)
        return -1.0;
    return (std::stod(fields[11]) + std::stod(fields[12])) /
           static_cast<double>(::sysconf(_SC_CLK_TCK));
}

TEST(ServeLifecycle, AcceptErrorsDoNotSpin)
{
    // At the descriptor limit accept() fails while the connection
    // stays queued, so poll() reports it again at once. The acceptor
    // must wait that out, not spin on it. The server runs in a child
    // process so its descriptor limit leaves the test runner alone.
    Classifier clf = trainedClassifier();
    int portPipe[2];
    ASSERT_EQ(::pipe(portPipe), 0);
    const pid_t child = ::fork();
    ASSERT_GE(child, 0);
    if (child == 0) {
        // Never return into the test runner from the child.
        try {
            ::close(portPipe[0]);
            serve::ServeConfig cfg;
            cfg.workers = 1;
            cfg.watchdogDeadlineMs = 0;
            cfg.windowSeconds = 0.0;
            serve::InferenceServer server(std::move(clf), cfg);
            server.start();
            rlimit limit{};
            ::getrlimit(RLIMIT_NOFILE, &limit);
            limit.rlim_cur = openFds() + 4;
            const std::uint16_t port = server.port();
            if (::setrlimit(RLIMIT_NOFILE, &limit) == 0 &&
                ::write(portPipe[1], &port, sizeof(port)) ==
                    static_cast<ssize_t>(sizeof(port)))
                std::this_thread::sleep_for(std::chrono::seconds(30));
        } catch (...) {
        }
        ::_exit(1);
    }
    // Kills and reaps the child on every exit path of the test.
    class Reaper
    {
      public:
        explicit Reaper(pid_t pid) : pid_(pid) {}
        ~Reaper()
        {
            ::kill(pid_, SIGKILL);
            ::waitpid(pid_, nullptr, 0);
        }
        Reaper(const Reaper &) = delete;
        Reaper &operator=(const Reaper &) = delete;

      private:
        pid_t pid_;
    } reaper(child);
    ::close(portPipe[1]);
    std::uint16_t port = 0;
    const bool gotPort = ::read(portPipe[0], &port, sizeof(port)) ==
                         static_cast<ssize_t>(sizeof(port));
    ::close(portPipe[0]);
    ASSERT_TRUE(gotPort) << "child server did not start";

    // The listen backlog completes every connect; the server can
    // accept only a few of them before it runs out of descriptors.
    std::vector<serve::TcpStream> held;
    for (int i = 0; i < 16; ++i)
        held.push_back(serve::TcpStream::connect("127.0.0.1", port));
    std::this_thread::sleep_for(std::chrono::milliseconds(200));

    const double before = processCpuSeconds(child);
    std::this_thread::sleep_for(std::chrono::seconds(1));
    const double after = processCpuSeconds(child);
    ASSERT_GE(before, 0.0);
    EXPECT_LT(after - before, 0.25)
        << "CPU seconds the idle server burned in 1 s";
}

TEST(ServeLifecycle, OverlongRequestLineClosesTheConnection)
{
    // A request line is bounded: megabytes without a newline are
    // refused as one bad request and the connection is dropped,
    // instead of growing the server's buffer without limit.
    serve::ServeConfig cfg;
    cfg.workers = 1;
    serve::InferenceServer server(trainedClassifier(), cfg);
    server.start();
    obs::Counter &bad =
        obs::MetricRegistry::global().counter("serve.requests.bad");
    const std::uint64_t badBefore = bad.value();

    {
        serve::TcpStream stream =
            serve::TcpStream::connect("127.0.0.1", server.port());
        stream.setReadDeadline(3000);
        // The server may hang up mid-send; only the hangup matters.
        stream.sendAll(std::string(std::size_t{2} << 20, 'x'));
        bool closed = false;
        try {
            std::string line;
            while (stream.readLine(line)) {
            }
            closed = true;
        } catch (const serve::NetError &) {
            // Timed out: the server kept the connection open.
        }
        EXPECT_TRUE(closed) << "connection still open after 3 s";
    }
    EXPECT_EQ(bad.value() - badBefore, 1u);

    serve::TcpStream fresh =
        serve::TcpStream::connect("127.0.0.1", server.port());
    const auto doc =
        roundTrip(fresh, requestLine(1, std::vector<double>(12, 0.5)));
    ASSERT_NE(doc, nullptr);
    EXPECT_NE(doc->find("pred"), nullptr);
    server.stop();
}

/** Resident set size in KiB (VmRSS of /proc/self/status), or -1. */
long
residentKiB()
{
    std::ifstream status("/proc/self/status");
    std::string key;
    while (status >> key) {
        if (key == "VmRSS:") {
            long kib = -1;
            status >> kib;
            return kib;
        }
        std::getline(status, key);
    }
    return -1;
}

TEST(ServeLifecycle, ConnectionsDoNotGrowMemory)
{
#if defined(LOOKHD_TEST_SANITIZED)
    GTEST_SKIP() << "sanitizer allocators keep freed memory resident";
#endif
    // Every connection gets its own reader thread; nothing that thread
    // allocates may outlive the connection.
    serve::ServeConfig cfg;
    cfg.workers = 1;
    serve::InferenceServer server(trainedClassifier(), cfg);
    server.start();

    const std::vector<double> features(12, 0.5);
    long before = -1;
    for (std::uint64_t i = 0; i < 220; ++i) {
        if (i == 20) // after warm-up
            before = residentKiB();
        serve::TcpStream stream =
            serve::TcpStream::connect("127.0.0.1", server.port());
        ASSERT_NE(roundTrip(stream, requestLine(i, features)), nullptr);
    }
    const long after = residentKiB();
    ASSERT_GT(before, 0);
    EXPECT_LT(after - before, 4096)
        << "KiB of resident memory 200 connections left behind";
    server.stop();
}

TEST(ServeBatching, LoneRequestIsNotHeld)
{
    if (!obs::kReqTraceCompiled)
        GTEST_SKIP() << "stage timing is compiled out";
    // A request that finds no other work is dispatched at once: no
    // worker sleeps waiting for a batch to fill.
    serve::ServeConfig cfg;
    cfg.sampleEveryN = 1; // capture every request
    serve::InferenceServer server(trainedClassifier(), cfg);
    server.start();

    serve::TcpStream stream =
        serve::TcpStream::connect("127.0.0.1", server.port());
    const std::vector<double> features(12, 0.5);
    for (std::uint64_t i = 0; i < 5; ++i)
        ASSERT_NE(roundTrip(stream, requestLine(i, features)), nullptr);

    // Each capture lands just after its response write; poll briefly.
    for (int i = 0; i < 100 && server.slowLog().totalCaptured() < 5; ++i)
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
    const std::vector<obs::SlowRequestRecord> records =
        server.slowLog().snapshot();
    ASSERT_EQ(records.size(), 5u);
    std::uint64_t minBatchFormNs = ~0ULL;
    for (const obs::SlowRequestRecord &r : records)
        minBatchFormNs = std::min(
            minBatchFormNs, r.ctx.stage(obs::ReqStage::kBatchForm));
    EXPECT_LT(minBatchFormNs, 150'000u);
    server.stop();
}

TEST(ServeBatching, QueuedRequestsLeaveInFullBatches)
{
    // Requests that queue while the only worker is busy leave the
    // queue in batches of up to batchMaxSize (0 counts as 1), and are
    // answered exactly as unbatched ones.
    struct Case
    {
        std::size_t batchMaxSize;
        std::uint64_t batches;
        std::uint64_t multi;
        std::uint64_t batched;
    };
    Classifier reference = trainedClassifier();
    data::SyntheticSpec spec;
    spec.numFeatures = 12;
    spec.numClasses = 3;
    spec.seed = 5;
    const data::Dataset probes =
        data::SyntheticProblem(spec).sample(9);
    obs::MetricRegistry &registry = obs::MetricRegistry::global();
    obs::Counter &batches = registry.counter("serve.batches");
    obs::Counter &multi = registry.counter("serve.batches.multi");
    obs::Counter &batched = registry.counter("serve.requests.batched");

    for (const Case c : {Case{4, 3, 2, 8}, Case{0, 9, 0, 0}}) {
        SCOPED_TRACE("batchMaxSize " + std::to_string(c.batchMaxSize));
        // The first batch holds the worker until released (bounded,
        // so a failed assertion cannot hang stop()).
        std::atomic<bool> held{false};
        std::atomic<bool> release{false};
        serve::ServeConfig cfg;
        cfg.workers = 1;
        cfg.batchMaxSize = c.batchMaxSize;
        cfg.batchHook = [&held, &release](std::size_t) {
            if (held.exchange(true))
                return;
            for (int i = 0; i < 5000 && !release.load(); ++i)
                std::this_thread::sleep_for(
                    std::chrono::milliseconds(1));
        };
        serve::InferenceServer server(trainedClassifier(), cfg);
        server.start();
        const std::uint64_t batchesBefore = batches.value();
        const std::uint64_t multiBefore = multi.value();
        const std::uint64_t batchedBefore = batched.value();

        std::vector<std::string> lines;
        for (std::size_t i = 0; i < probes.size(); ++i) {
            const auto row = probes.row(i);
            lines.push_back(
                requestLine(i, std::vector<double>(row.begin(),
                                                   row.end())) +
                "\n");
        }
        serve::TcpStream stream =
            serve::TcpStream::connect("127.0.0.1", server.port());
        ASSERT_TRUE(stream.sendAll(lines[0]));
        for (int i = 0; i < 500 && !held.load(); ++i)
            std::this_thread::sleep_for(std::chrono::milliseconds(10));
        ASSERT_TRUE(held.load());
        std::string pipelined;
        for (std::size_t i = 1; i < lines.size(); ++i)
            pipelined += lines[i];
        ASSERT_TRUE(stream.sendAll(pipelined));
        obs::Gauge &depth = registry.gauge("serve.queue.depth");
        for (int i = 0; i < 500 && depth.value() != 8.0; ++i)
            std::this_thread::sleep_for(std::chrono::milliseconds(10));
        EXPECT_EQ(depth.value(), 8.0);
        release.store(true);

        for (std::size_t i = 0; i < probes.size(); ++i) {
            std::string line;
            ASSERT_TRUE(stream.readLine(line)) << "response " << i;
            std::string error;
            const auto doc = serve::parseJson(line, error);
            ASSERT_NE(doc, nullptr) << error << ": " << line;
            const serve::JsonValue *id = doc->find("id");
            const serve::JsonValue *pred = doc->find("pred");
            ASSERT_NE(id, nullptr) << line;
            ASSERT_NE(pred, nullptr) << line;
            const auto probe = static_cast<std::size_t>(id->number);
            ASSERT_LT(probe, probes.size());
            EXPECT_EQ(static_cast<std::size_t>(pred->number),
                      reference.predict(probes.row(probe)))
                << "probe " << probe;
        }
        EXPECT_EQ(batches.value() - batchesBefore, c.batches);
        EXPECT_EQ(multi.value() - multiBefore, c.multi);
        EXPECT_EQ(batched.value() - batchedBefore, c.batched);
        server.stop();
    }
}

} // namespace
