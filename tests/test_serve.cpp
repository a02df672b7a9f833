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
#include <string>
#include <thread>
#include <vector>

#include "data/synthetic.hpp"
#include "lookhd/classifier.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "obs/reqtrace.hpp"
#include "serve/jsonin.hpp"
#include "serve/net.hpp"
#include "serve/server.hpp"

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
        cfg.batchMaxDelayUs = 100;
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
    cfg.batchMaxDelayUs = 100;
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
    cfg.batchMaxDelayUs = 100;
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
    cfg.batchMaxDelayUs = 100;
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

TEST(ServeHealth, OverloadFlipsHealthzAndRecovers)
{
    serve::ServeConfig cfg;
    cfg.workers = 1;
    cfg.batchMaxSize = 1;
    cfg.batchMaxDelayUs = 100;
    cfg.queueCapacity = 2;
    cfg.scoreDelayNs = 5'000'000; // 5 ms per request
    // Long enough that the unready episode stays latched while the
    // probe loop below catches it, even under sanitizer slowdown.
    cfg.overloadHoldMs = 2000;
    cfg.health.windowSeconds = 0.0; // protocol readiness only
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
    cfg.batchMaxDelayUs = 0;
    cfg.health.windowSeconds = 0.0; // protocol readiness only
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
    cfg.health.windowSeconds = 0.05; // fast sampler for the test
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
        EXPECT_NE(engine->find("rules"), nullptr);
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

} // namespace
