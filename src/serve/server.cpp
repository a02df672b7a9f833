#include "serve/server.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <iterator>
#include <sstream>
#include <utility>

#include "hdc/kernels.hpp"
#include "hdc/similarity.hpp"
#include "par/thread_pool.hpp"
#include "obs/exposition.hpp"
#include "obs/json.hpp"
#include "obs/obs.hpp"
#include "obs/profiler.hpp"
#include "obs/thread_ring.hpp"
#include "obs/trace.hpp"
#include "serve/jsonin.hpp"
#include "util/timer.hpp"

namespace lookhd::serve {

namespace {

/** How long a scrape connection gets to send its request line and
 * headers, in total: one deadline, however the bytes trickle in. */
constexpr int kScrapeReceiveTimeoutMs = 1000;

/**
 * Assemble one scrape-port HTTP/1.0 response. Every body is
 * point-in-time telemetry, hence the unconditional
 * Cache-Control: no-store. @p extraHeaders lines must be
 * CRLF-terminated.
 */
std::string
httpResponse(const std::string &status,
             const std::string &contentType, const std::string &body,
             const std::string &extraHeaders = {})
{
    std::string response = "HTTP/1.0 " + status + "\r\n";
    response += "Content-Type: " + contentType + "\r\n";
    response +=
        "Content-Length: " + std::to_string(body.size()) + "\r\n";
    response += "Cache-Control: no-store\r\n";
    response += extraHeaders;
    response += "Connection: close\r\n\r\n";
    response += body;
    return response;
}

} // namespace

/** Requests' echoed id: absent, numeric, or string. */
enum class IdKind
{
    kNone,
    kNumber,
    kString,
};

struct InferenceServer::Connection
{
    explicit Connection(TcpStream s) : stream(std::move(s)) {}

    /** Deliberately NOT guarded by writeMutex: stop() shuts the
     * stream down lock-free to unblock a reader mid-readLine, and
     * writers re-check `open` under the mutex before touching it. */
    TcpStream stream;
    util::Mutex writeMutex;
    /** False once a send failed or the connection was closed. */
    std::atomic<bool> open{true};
    /** Set as the reader thread's last act: it can be joined. */
    std::atomic<bool> readerDone{false};
    /** Requests the reader enqueued that no worker has answered yet.
     * A connection is released only once its reader is done and
     * this is 0, so a client that half-closes still gets every
     * answer. */
    std::atomic<std::size_t> unanswered{0};

    /** Reader done and every enqueued request answered. */
    bool
    finished() const
    {
        return readerDone.load(std::memory_order_acquire) &&
               unanswered.load(std::memory_order_acquire) == 0;
    }

    /** Send one response line in a single send(2); false once the
     * peer went away. */
    bool
    writeLine(std::string body)
    {
        body += '\n';
        const util::MutexLock lock(writeMutex);
        if (!open.load(std::memory_order_relaxed))
            return false;
        if (!stream.sendAll(body)) {
            open.store(false, std::memory_order_relaxed);
            return false;
        }
        return true;
    }

    /** Release the socket; writes still pending see open == false. */
    void
    close()
    {
        const util::MutexLock lock(writeMutex);
        open.store(false, std::memory_order_relaxed);
        stream.close();
    }
};

struct InferenceServer::Request
{
    std::shared_ptr<Connection> conn;
    IdKind idKind = IdKind::kNone;
    double idNumber = 0.0;
    std::string idString;
    std::vector<double> features;
    bool wantScores = false;
    std::uint64_t enqueueNs = 0;
    obs::RequestContext ctx;
};

struct InferenceServer::WorkerState
{
    /** processNanoseconds() when the current batch started; 0=idle. */
    std::atomic<std::uint64_t> busySinceNs{0};
    std::atomic<const char *> stage{"idle"};
    /** Monotonic per-worker batch number; lets the watchdog trip
     * once per stuck batch instead of once per poll. */
    std::atomic<std::uint64_t> batchSeq{0};
    std::uint64_t lastTrippedBatch = 0; // housekeeping-thread private

    /** One in-flight request, published for /debug/inflight. */
    struct InflightEntry
    {
        std::string trace; // 32 hex chars, or "" when untraced
        std::string id;    // echoed request id as text
        std::uint64_t enqueueNs = 0;
    };

    /** The batch being scored; set at batch start, cleared at end. */
    util::Mutex inflightMutex;
    std::vector<InflightEntry> inflightBatch
        LOOKHD_GUARDED_BY(inflightMutex);
};

namespace {

void
writeId(obs::JsonWriter &w, IdKind kind, double number,
        const std::string &string)
{
    if (kind == IdKind::kNumber)
        w.kv("id", number);
    else if (kind == IdKind::kString)
        w.kv("id", string);
}

std::string
errorBody(IdKind kind, double number, const std::string &string,
          const obs::TraceId &trace, const std::string &message)
{
    obs::JsonWriter w;
    w.beginObject();
    writeId(w, kind, number, string);
    if (!trace.zero())
        w.kv("trace", obs::traceIdHex(trace));
    w.kv("error", message);
    w.endObject();
    return w.str();
}

/** The echoed request id as plain text ("" when absent). */
std::string
idText(IdKind kind, double number, const std::string &string)
{
    if (kind == IdKind::kString)
        return string;
    if (kind == IdKind::kNone)
        return {};
    char buf[32];
    if (number ==
            static_cast<double>(static_cast<long long>(number)) &&
        number > -1e15 && number < 1e15) {
        std::snprintf(buf, sizeof(buf), "%lld",
                      static_cast<long long>(number));
    } else {
        std::snprintf(buf, sizeof(buf), "%g", number);
    }
    return buf;
}

/** Raw top1 - top2 score margin (0 with fewer than two classes). */
double
scoreMargin(const std::vector<double> &scores)
{
    if (scores.size() < 2)
        return 0.0;
    double top1 = scores[0];
    double top2 = scores[1];
    if (top2 > top1)
        std::swap(top1, top2);
    for (std::size_t i = 2; i < scores.size(); ++i) {
        if (scores[i] > top1) {
            top2 = top1;
            top1 = scores[i];
        } else if (scores[i] > top2) {
            top2 = scores[i];
        }
    }
    return top1 - top2;
}

/**
 * Nanoseconds from sinceNs to nowNs; 0 when sinceNs is unset (0) or
 * later than nowNs. Another thread can stamp sinceNs after the caller
 * read nowNs, and the plain unsigned difference would then wrap to an
 * age of centuries (a worker that just started a batch would read as
 * stalled).
 */
std::uint64_t
elapsedNs(std::uint64_t nowNs, std::uint64_t sinceNs)
{
    return sinceNs == 0 || sinceNs > nowNs ? 0 : nowNs - sinceNs;
}

} // namespace

InferenceServer::InferenceServer(Classifier classifier,
                                 ServeConfig config)
    : classifier_(std::move(classifier)),
      config_(config),
      slowLog_(config.slowLogCapacity),
      requestsOk_(
          obs::MetricRegistry::global().counter("serve.requests")),
      requestsBad_(obs::MetricRegistry::global().counter(
          "serve.requests.bad")),
      requestsOverload_(obs::MetricRegistry::global().counter(
          "serve.requests.overload")),
      batches_(obs::MetricRegistry::global().counter("serve.batches")),
      multiBatches_(obs::MetricRegistry::global().counter(
          "serve.batches.multi")),
      batchedRequests_(obs::MetricRegistry::global().counter(
          "serve.requests.batched")),
      quantizedRequests_(obs::MetricRegistry::global().counter(
          "serve.requests.quantized")),
      connectionsTotal_(obs::MetricRegistry::global().counter(
          "serve.connections")),
      watchdogTrips_(obs::MetricRegistry::global().counter(
          "serve.watchdog.trips")),
      slowCaptured_(obs::MetricRegistry::global().counter(
          "serve.slow.captured")),
      queueDepth_(
          obs::MetricRegistry::global().gauge("serve.queue.depth")),
      inflight_(obs::MetricRegistry::global().gauge("serve.inflight")),
      connectionsOpen_(obs::MetricRegistry::global().gauge(
          "serve.connections.open")),
      batchLastSize_(obs::MetricRegistry::global().gauge(
          "serve.batch.last_size")),
      healthReady_(obs::MetricRegistry::global().gauge(
          "serve.health.ready")),
      requestLatency_(obs::MetricRegistry::global().latency(
          "serve.request.latency"))
{
    if (!classifier_.fitted())
        throw std::invalid_argument(
            "InferenceServer needs a fitted classifier");
    if (config_.precision != "auto" &&
        !precisionFromName(config_.precision).has_value())
        throw std::invalid_argument(
            "unknown serving precision: " + config_.precision);
    expectedFeatures_ =
        classifier_.encoder().chunks().numFeatures();
    if constexpr (obs::kReqTraceCompiled) {
        for (std::size_t s = 0; s < obs::kReqStageCount; ++s)
            stageLatency_[s] =
                &obs::MetricRegistry::global().latency(
                    obs::reqStageMetricName(
                        static_cast<obs::ReqStage>(s)));
        requestLatency_.enableExemplars();
    }
}

InferenceServer::~InferenceServer()
{
    stop();
}

void
InferenceServer::start()
{
    if (started_.exchange(true))
        throw std::logic_error("InferenceServer started twice");

    // Resolve the serving precision before any worker can score:
    // "auto" takes the int8 path whenever the model ships quantized
    // forms, and falls back to the exact float path otherwise.
    // Explicit "int8"/"binary" on a model without attached forms
    // quantizes on the spot (setServingPrecision builds them).
    Precision precision = Precision::kFloat64;
    if (config_.precision == "auto") {
        precision = classifier_.hasQuantized() ? Precision::kInt8
                                               : Precision::kFloat64;
    } else {
        precision = *precisionFromName(config_.precision);
    }
    classifier_.setServingPrecision(precision);

    requestListener_ = TcpListener::bind(config_.port);
    metricsListener_ = TcpListener::bind(config_.metricsPort);
    running_.store(true, std::memory_order_release);
    stopWorkers_.store(false, std::memory_order_release);

    lastOverloadNs_.store(0, std::memory_order_relaxed);
    healthReady_.set(1.0);
    // Before the threads: the housekeeping and scrape threads read
    // health_ without a lock.
    if constexpr (obs::kWindowsCompiled) {
        if (config_.windowSeconds > 0.0)
            health_ = std::make_unique<obs::HealthMonitor>(
                obs::MetricRegistry::global(),
                obs::QualityTelemetry::global(), config_.windowSeconds);
    }

    const std::size_t workers = std::max<std::size_t>(
        config_.workers, 1);
    workerStates_.clear();
    for (std::size_t i = 0; i < workers; ++i)
        workerStates_.push_back(std::make_unique<WorkerState>());
    for (std::size_t i = 0; i < workers; ++i)
        workerThreads_.emplace_back(
            [this, i] { workerLoop(i); });
    acceptThread_ = std::thread([this] { acceptLoop(); });
    metricsThread_ = std::thread([this] { metricsLoop(); });
    housekeepingThread_ = std::thread([this] { housekeepingLoop(); });

    const std::size_t predictThreads =
        par::resolveThreads(config_.predictThreads);
    obs::MetricRegistry::global().setLabel(
        "kernel",
        hdc::kernels::implName(hdc::kernels::activeImpl()));
    obs::MetricRegistry::global().setLabel(
        "precision",
        precisionName(classifier_.servingPrecision()));
    obs::MetricRegistry::global()
        .gauge("serve.predict.threads")
        .set(static_cast<double>(predictThreads));
}

void
InferenceServer::stop()
{
    if (!started_.load(std::memory_order_acquire))
        return;
    if (stopping_.exchange(true))
        return;

    // 1. Stop accepting; the accept/metrics/housekeeping loops poll
    //    running_ on a short timeout.
    running_.store(false, std::memory_order_release);
    housekeepingCv_.notifyAll();
    if (acceptThread_.joinable())
        acceptThread_.join();
    requestListener_.close();

    // 2. EOF every reader (write side stays up so queued responses
    //    still go out), then join them: no further enqueues. The
    //    reader list is swapped out under the mutex and joined
    //    outside it - the accept loop is already down, and joining
    //    under a lock the readers could touch would deadlock.
    std::vector<Reader> readers;
    {
        const util::MutexLock lock(connectionsMutex_);
        for (const Reader &r : readers_)
            r.conn->stream.shutdownRead();
        readers.swap(readers_);
    }
    for (Reader &r : readers)
        r.thread.join();

    // 3. Let the workers drain whatever is left, then exit.
    stopWorkers_.store(true, std::memory_order_release);
    queueCv_.notifyAll();
    for (std::thread &t : workerThreads_)
        if (t.joinable())
            t.join();

    if (metricsThread_.joinable())
        metricsThread_.join();
    metricsListener_.close();
    if (housekeepingThread_.joinable())
        housekeepingThread_.join();

    for (Reader &r : readers)
        r.conn->close();
    connectionsOpen_.set(0.0);
    workerThreads_.clear();
    started_.store(false, std::memory_order_release);
    stopping_.store(false, std::memory_order_release);
}

std::uint64_t
InferenceServer::requestsServed() const
{
    return requestsOk_.value();
}

void
InferenceServer::acceptLoop()
{
    while (running_.load(std::memory_order_acquire)) {
        reapClosedConnections();
        TcpStream stream;
        try {
            stream = requestListener_.accept(100);
        } catch (const NetError &) {
            continue; // transient accept failure
        }
        if (!stream.valid())
            continue;
        connectionsTotal_.add();
        auto conn = std::make_shared<Connection>(std::move(stream));
        const util::MutexLock lock(connectionsMutex_);
        readers_.push_back(
            {conn, std::thread([this, conn] { connectionLoop(conn); })});
        connectionsOpen_.set(static_cast<double>(
            openConnections_.fetch_add(1,
                                       std::memory_order_relaxed) +
            1));
    }
}

void
InferenceServer::reapClosedConnections()
{
    std::vector<Reader> finished;
    {
        const util::MutexLock lock(connectionsMutex_);
        const auto done = std::partition(
            readers_.begin(), readers_.end(),
            [](const Reader &r) { return !r.conn->finished(); });
        finished.assign(std::make_move_iterator(done),
                        std::make_move_iterator(readers_.end()));
        readers_.erase(done, readers_.end());
    }
    for (Reader &r : finished) {
        r.thread.join();
        r.conn->close();
    }
}

void
InferenceServer::connectionLoop(std::shared_ptr<Connection> conn)
{
    obs::Profiler::registerCurrentThread();
    try {
        std::string line;
        while (conn->stream.readLine(line)) {
            if (line.empty())
                continue;
            // Reader threads burn CPU only while parsing/enqueuing;
            // attribute those samples to the parse stage.
            obs::profilerPublishStage(obs::ReqStage::kParse);
            handleRequestLine(conn, line);
            obs::profilerPublishStage(obs::kProfileStageNone);
        }
    } catch (const LineTooLong &e) {
        // The rest of an overlong line cannot be told apart from the
        // next request: refuse it and drop the connection.
        requestsBad_.add();
        conn->writeLine(
            errorBody(IdKind::kNone, 0.0, {}, obs::TraceId{}, e.what()));
    } catch (const NetError &) {
        // Peer vanished mid-read; nothing more to read.
    }
    // The write side stays open: requests already queued are still
    // answered, and the acceptor releases the connection after that.
    connectionsOpen_.set(static_cast<double>(
        openConnections_.fetch_sub(1, std::memory_order_relaxed) -
        1));
    conn->readerDone.store(true, std::memory_order_release);
}

void
InferenceServer::handleRequestLine(
    const std::shared_ptr<Connection> &conn, const std::string &line)
{
    Request req;
    req.conn = conn;
    req.ctx.startNs = util::Timer::processNanoseconds();
    std::string parseError;
    const std::unique_ptr<JsonValue> doc =
        parseJson(line, parseError);

    if (doc) {
        if (const JsonValue *id = doc->find("id")) {
            if (id->isNumber()) {
                req.idKind = IdKind::kNumber;
                req.idNumber = id->number;
            } else if (id->isString()) {
                req.idKind = IdKind::kString;
                req.idString = id->string;
            }
        }
        if (const JsonValue *scores = doc->find("scores"))
            req.wantScores =
                scores->type == JsonValue::Type::kBool &&
                scores->boolean;
        // A client-supplied trace id is protocol (echoed even in
        // -DLOOKHD_OBS=OFF builds); a malformed one is ignored, not
        // rejected - tracing must never fail a request.
        if (const JsonValue *trace = doc->find("trace"))
            if (trace->isString() &&
                obs::parseTraceIdHex(trace->string, req.ctx.trace))
                req.ctx.clientSupplied = true;
    }

    auto reject = [&](const std::string &message, obs::Counter &counter) {
        counter.add();
        conn->writeLine(errorBody(req.idKind, req.idNumber,
                                  req.idString, req.ctx.trace,
                                  message));
    };

    if (!doc) {
        reject("bad JSON: " + parseError, requestsBad_);
        return;
    }
    const JsonValue *features = doc->find("features");
    if (features == nullptr || !features->isArray()) {
        reject("missing \"features\" array", requestsBad_);
        return;
    }
    req.features.reserve(features->array.size());
    for (const JsonValue &v : features->array) {
        if (!v.isNumber()) {
            reject("non-numeric feature", requestsBad_);
            return;
        }
        req.features.push_back(v.number);
    }
    if (req.features.size() != expectedFeatures_) {
        reject("expected " + std::to_string(expectedFeatures_) +
                   " features, got " +
                   std::to_string(req.features.size()),
               requestsBad_);
        return;
    }

    if constexpr (obs::kReqTraceCompiled) {
        if (req.ctx.trace.zero())
            req.ctx.trace = obs::makeTraceId();
        req.ctx.span = obs::makeSpanId();
    }
    req.enqueueNs = util::Timer::processNanoseconds();
    req.ctx.setStage(obs::ReqStage::kParse,
                     req.enqueueNs - req.ctx.startNs);
    {
        const util::MutexLock lock(queueMutex_);
        if (queue_.size() >= config_.queueCapacity) {
            lastOverloadNs_.store(
                util::Timer::processNanoseconds(),
                std::memory_order_relaxed);
            reject("overloaded", requestsOverload_);
            return;
        }
        conn->unanswered.fetch_add(1, std::memory_order_relaxed);
        queue_.push_back(std::move(req));
        queueDepth_.set(static_cast<double>(queue_.size()));
    }
    queueCv_.notifyOne();
}

void
InferenceServer::workerLoop(std::size_t workerIndex)
{
    obs::Profiler::registerCurrentThread();
    WorkerState &state = *workerStates_[workerIndex];
    const std::size_t batchMax =
        std::max<std::size_t>(config_.batchMaxSize, 1);
    while (true) {
        std::vector<Request> batch;
        std::uint64_t dequeuedNs = 0;
        obs::profilerPublishStage(obs::ReqStage::kBatchForm);
        {
            const util::MutexLock lock(queueMutex_);
            // Explicit wait loop (not a predicate lambda) so the
            // analysis sees queue_ read with queueMutex_ held.
            while (queue_.empty() &&
                   !stopWorkers_.load(std::memory_order_acquire))
                queueCv_.wait(queueMutex_);
            if (queue_.empty()) // stopping, and nothing left to drain
                return;
            // Work-conserving: take what is queued and dispatch now;
            // never sleep for a batch to fill.
            dequeuedNs = util::Timer::processNanoseconds();
            const std::size_t take = std::min(queue_.size(), batchMax);
            std::move(queue_.begin(), queue_.begin() + take,
                      std::back_inserter(batch));
            queue_.erase(queue_.begin(), queue_.begin() + take);
            queueDepth_.set(static_cast<double>(queue_.size()));
        }
        processBatch(batch, dequeuedNs, state);
    }
}

void
InferenceServer::processBatch(std::vector<Request> &batch,
                              std::uint64_t dequeuedNs,
                              WorkerState &state)
{
    state.batchSeq.fetch_add(1, std::memory_order_relaxed);
    state.stage.store("predict", std::memory_order_relaxed);
    const std::uint64_t batchStartNs =
        util::Timer::processNanoseconds();
    state.busySinceNs.store(batchStartNs,
                            std::memory_order_relaxed);
    {
        const util::MutexLock lock(state.inflightMutex);
        state.inflightBatch.clear();
        for (const Request &req : batch) {
            WorkerState::InflightEntry entry;
            if (!req.ctx.trace.zero())
                entry.trace = obs::traceIdHex(req.ctx.trace);
            entry.id = idText(req.idKind, req.idNumber,
                              req.idString);
            entry.enqueueNs = req.enqueueNs;
            state.inflightBatch.push_back(std::move(entry));
        }
    }
    for (Request &req : batch) {
        req.ctx.setStage(obs::ReqStage::kQueue,
                         dequeuedNs - req.enqueueNs);
        req.ctx.setStage(obs::ReqStage::kBatchForm,
                         batchStartNs - dequeuedNs);
    }
    if (config_.batchHook)
        config_.batchHook(batch.size());
    batches_.add();
    batchLastSize_.set(static_cast<double>(batch.size()));
    inflight_.set(static_cast<double>(
        inflightRequests_.fetch_add(
            static_cast<std::int64_t>(batch.size()),
            std::memory_order_relaxed) +
        static_cast<std::int64_t>(batch.size())));
    if (batch.size() > 1) {
        multiBatches_.add();
        batchedRequests_.add(
            static_cast<std::uint64_t>(batch.size()));
    }
    if (classifier_.servingPrecision() != Precision::kFloat64)
        quantizedRequests_.add(
            static_cast<std::uint64_t>(batch.size()));

    // One batched kernel pass over the whole batch; bit-identical to
    // per-request classifier_.scores() (see Classifier::scoresBatch).
    std::vector<std::span<const double>> rows;
    rows.reserve(batch.size());
    for (const Request &req : batch)
        rows.emplace_back(req.features);
    std::vector<std::vector<double>> batchScores;
    const std::uint64_t scoreStartNs =
        util::Timer::processNanoseconds();
    obs::profilerPublishStage(obs::ReqStage::kScore);
    {
        LOOKHD_SPAN("serve.predict", "serve");
        batchScores =
            classifier_.scoresBatch(rows, config_.predictThreads);
        // Load-testing aid: inflate the scoring stage so overload
        // and latency scenarios reproduce deterministically.
        if (config_.scoreDelayNs > 0)
            std::this_thread::sleep_for(
                std::chrono::nanoseconds(config_.scoreDelayNs));
    }
    const std::uint64_t scoreEndNs =
        util::Timer::processNanoseconds();

    // Serialize/write run back to back per request, so chaining one
    // timestamp through the loop costs a single clock read per hop.
    std::uint64_t t = scoreEndNs;
    obs::profilerPublishStage(obs::ReqStage::kSerialize);
    for (std::size_t i = 0; i < batch.size(); ++i) {
        Request &req = batch[i];
        const std::vector<double> &scores = batchScores[i];
        const std::size_t pred = hdc::argmax(scores);
        LOOKHD_QUALITY_MARGIN("serve.predict", scores);
        req.ctx.setStage(obs::ReqStage::kScore,
                         scoreEndNs - scoreStartNs);

        obs::JsonWriter w;
        w.beginObject();
        writeId(w, req.idKind, req.idNumber, req.idString);
        if (!req.ctx.trace.zero())
            w.kv("trace", obs::traceIdHex(req.ctx.trace));
        w.kv("pred", static_cast<std::uint64_t>(pred));
        if (req.wantScores) {
            w.key("scores").beginArray();
            for (const double s : scores)
                w.value(s);
            w.endArray();
        }
        w.endObject();
        const std::uint64_t serialized =
            util::Timer::processNanoseconds();
        req.ctx.setStage(obs::ReqStage::kSerialize, serialized - t);

        // Count before the response write: a client that has read
        // the answer must already see it in requestsServed() and
        // /metrics.
        if constexpr (obs::kReqTraceCompiled) {
            requestLatency_.record(serialized - req.enqueueNs,
                                   obs::traceIdHex(req.ctx.trace));
        } else {
            requestLatency_.record(serialized - req.enqueueNs);
        }
        requestsOk_.add();
        state.stage.store("respond", std::memory_order_relaxed);
        obs::profilerPublishStage(obs::ReqStage::kWrite);
        req.conn->writeLine(w.str());
        req.conn->unanswered.fetch_sub(1, std::memory_order_release);
        obs::profilerPublishStage(obs::ReqStage::kSerialize);
        state.stage.store("predict", std::memory_order_relaxed);
        const std::uint64_t written =
            util::Timer::processNanoseconds();
        req.ctx.setStage(obs::ReqStage::kWrite, written - serialized);
        t = written;

        if constexpr (obs::kReqTraceCompiled) {
            if (stageLatency_[0] != nullptr)
                for (std::size_t s = 0; s < obs::kReqStageCount;
                     ++s)
                    stageLatency_[s]->record(req.ctx.stageNs[s]);
            const std::uint64_t totalNs = written - req.ctx.startNs;
            bool capture = false;
            obs::CaptureReason reason = obs::CaptureReason::kSlow;
            if (config_.slowThresholdNs > 0 &&
                totalNs >= config_.slowThresholdNs) {
                capture = true;
            } else if (config_.sampleEveryN > 0 &&
                       sampleCounter_.fetch_add(
                           1, std::memory_order_relaxed) %
                               config_.sampleEveryN ==
                           0) {
                capture = true;
                reason = obs::CaptureReason::kSampled;
            }
            if (capture) {
                obs::SlowRequestRecord record;
                record.ctx = req.ctx;
                record.totalNs = totalNs;
                record.batchSize = batch.size();
                record.predictedClass =
                    static_cast<std::uint64_t>(pred);
                record.margin = scoreMargin(scores);
                record.reason = reason;
                record.clientId = idText(req.idKind, req.idNumber,
                                         req.idString);
                slowLog_.record(std::move(record));
                slowCaptured_.add();
            }
        }
    }

    inflight_.set(static_cast<double>(
        inflightRequests_.fetch_sub(
            static_cast<std::int64_t>(batch.size()),
            std::memory_order_relaxed) -
        static_cast<std::int64_t>(batch.size())));
    {
        const util::MutexLock lock(state.inflightMutex);
        state.inflightBatch.clear();
    }
    state.busySinceNs.store(0, std::memory_order_relaxed);
    state.stage.store("idle", std::memory_order_relaxed);
    obs::profilerPublishStage(obs::kProfileStageNone);
}

std::string
InferenceServer::debugRequestsBody() const
{
    obs::JsonWriter w;
    w.beginObject();
    w.kv("captured_total", slowLog_.totalCaptured());
    w.key("records").beginArray();
    for (const obs::SlowRequestRecord &r : slowLog_.snapshot())
        obs::writeSlowRequestJson(w, r);
    w.endArray();
    w.endObject();
    return w.str() + "\n";
}

std::string
InferenceServer::debugInflightBody()
{
    const std::uint64_t now = util::Timer::processNanoseconds();
    obs::JsonWriter w;
    w.beginObject();
    w.key("queued").beginArray();
    {
        const util::MutexLock lock(queueMutex_);
        for (const Request &req : queue_) {
            w.beginObject();
            if (!req.ctx.trace.zero())
                w.kv("trace", obs::traceIdHex(req.ctx.trace));
            w.kv("id", idText(req.idKind, req.idNumber,
                              req.idString));
            w.kv("age_ns", elapsedNs(now, req.enqueueNs));
            w.endObject();
        }
    }
    w.endArray();
    w.key("workers").beginArray();
    for (std::size_t i = 0; i < workerStates_.size(); ++i) {
        WorkerState &state = *workerStates_[i];
        const std::uint64_t busySince =
            state.busySinceNs.load(std::memory_order_relaxed);
        w.beginObject();
        w.kv("worker", static_cast<std::uint64_t>(i));
        w.kv("stage", std::string(state.stage.load(
                          std::memory_order_relaxed)));
        w.kv("busy_ns", elapsedNs(now, busySince));
        w.key("batch").beginArray();
        {
            const util::MutexLock lock(state.inflightMutex);
            for (const WorkerState::InflightEntry &entry :
                 state.inflightBatch) {
                w.beginObject();
                if (!entry.trace.empty())
                    w.kv("trace", entry.trace);
                w.kv("id", entry.id);
                w.kv("age_ns", elapsedNs(now, entry.enqueueNs));
                w.endObject();
            }
        }
        w.endArray();
        w.endObject();
    }
    w.endArray();
    w.endObject();
    return w.str() + "\n";
}

std::string
InferenceServer::debugTraceBody(const std::string &query)
{
    std::uint64_t ms = 50;
    const std::size_t arg = query.find("ms=");
    if (arg != std::string::npos)
        ms = std::strtoull(query.c_str() + arg + 3, nullptr, 10);
    ms = std::clamp<std::uint64_t>(ms, 1, 2000);
    // Deliberately blocks the scrape thread for the capture window:
    // one debug endpoint, one caller, bounded at 2 s.
    const bool wasTracing = obs::tracing();
    obs::setTracing(true);
    std::this_thread::sleep_for(std::chrono::milliseconds(ms));
    obs::setTracing(wasTracing);
    std::ostringstream out;
    obs::writeChromeTrace(out);
    out << '\n';
    return out.str();
}

std::string
InferenceServer::debugProfileBody(const std::string &query,
                                  std::string &status,
                                  std::string &contentType)
{
    if (!obs::kProfilerCompiled) {
        status = "404 Not Found";
        contentType = "text/plain; charset=utf-8";
        return "profiler disabled in this build\n";
    }
    double seconds = 2.0;
    unsigned hz = obs::kProfilerDefaultHz;
    const std::size_t secondsArg = query.find("seconds=");
    if (secondsArg != std::string::npos)
        seconds = std::strtod(query.c_str() + secondsArg + 8,
                              nullptr);
    const std::size_t hzArg = query.find("hz=");
    if (hzArg != std::string::npos)
        hz = static_cast<unsigned>(std::strtoul(
            query.c_str() + hzArg + 3, nullptr, 10));
    // Like /debug/trace, the capture deliberately blocks the scrape
    // thread for the window; clamp so a typo cannot park it.
    seconds = std::clamp(seconds, 0.1, 30.0);
    hz = std::clamp(hz, 1u, 1000u);
    const bool speedscope =
        query.find("format=speedscope") != std::string::npos;

    const obs::ProfileReport report =
        obs::Profiler::global().profileFor(seconds, hz);
    if (report.hz == 0) {
        // start() refused: a session (another scrape, or a
        // --profile-out run) is already sampling.
        status = "503 Service Unavailable";
        contentType = "text/plain; charset=utf-8";
        return "profiler busy\n";
    }
    if (speedscope) {
        contentType = "application/json";
        return report.speedscopeJson() + "\n";
    }
    contentType = "text/plain; charset=utf-8";
    return report.collapsed();
}

void
InferenceServer::metricsLoop()
{
    obs::Profiler::registerCurrentThread();
    while (running_.load(std::memory_order_acquire)) {
        TcpStream stream;
        try {
            stream = metricsListener_.accept(100);
        } catch (const NetError &) {
            continue;
        }
        if (!stream.valid())
            continue;
        try {
            // Scrapes are served one at a time: a peer that connects
            // and sends nothing, or trickles its request a byte at a
            // time, must not hold up /healthz or stop().
            stream.setReadDeadline(kScrapeReceiveTimeoutMs);
            std::string requestLine;
            if (!stream.readLine(requestLine))
                continue;
            // Drain headers so the client sees a clean HTTP exchange.
            std::string header;
            while (stream.readLine(header) && !header.empty()) {
            }

            std::string method;
            std::string path = "/";
            const std::size_t firstSpace = requestLine.find(' ');
            if (firstSpace != std::string::npos) {
                method = requestLine.substr(0, firstSpace);
                const std::size_t secondSpace =
                    requestLine.find(' ', firstSpace + 1);
                path = requestLine.substr(
                    firstSpace + 1,
                    secondSpace == std::string::npos
                        ? std::string::npos
                        : secondSpace - firstSpace - 1);
            }
            std::string query;
            const std::size_t questionMark = path.find('?');
            if (questionMark != std::string::npos) {
                query = path.substr(questionMark + 1);
                path.resize(questionMark);
            }

            if (method != "GET") {
                stream.sendAll(httpResponse(
                    "405 Method Not Allowed",
                    "text/plain; charset=utf-8",
                    "method not allowed\n", "Allow: GET\r\n"));
                continue;
            }

            std::string status = "200 OK";
            std::string contentType =
                "text/plain; version=0.0.4; charset=utf-8";
            std::string body;
            if (path == "/metrics") {
                body = obs::renderPrometheus(
                    obs::MetricRegistry::global().snapshot(),
                    obs::spanRollup());
            } else if (path == "/metrics.json") {
                contentType = "application/json";
                body = obs::snapshotJson(
                           obs::MetricRegistry::global()) +
                       "\n";
            } else if (path == "/healthz") {
                const Readiness r = checkReadiness();
                if (r.ready) {
                    contentType = "text/plain; charset=utf-8";
                    body = "ok\n";
                } else {
                    status = "503 Service Unavailable";
                    contentType = "application/json";
                    obs::JsonWriter w;
                    w.beginObject();
                    w.kv("status", "unready");
                    w.kv("reason", r.reason);
                    w.endObject();
                    body = w.str() + "\n";
                }
            } else if (path == "/livez") {
                // Liveness, not readiness: the scrape loop
                // answering IS the signal.
                contentType = "text/plain; charset=utf-8";
                body = "ok\n";
            } else if (path == "/debug/health") {
                contentType = "application/json";
                body = debugHealthBody();
            } else if (path == "/debug/windows") {
                if (health_ == nullptr) {
                    status = "404 Not Found";
                    contentType = "text/plain; charset=utf-8";
                    body = "window sampler disabled\n";
                } else {
                    contentType = "application/json";
                    body = debugWindowsBody(query);
                }
            } else if (path == "/debug/requests") {
                contentType = "application/json";
                body = debugRequestsBody();
            } else if (path == "/debug/inflight") {
                contentType = "application/json";
                body = debugInflightBody();
            } else if (path == "/debug/trace") {
                contentType = "application/json";
                body = debugTraceBody(query);
            } else if (path == "/debug/profile") {
                body = debugProfileBody(query, status, contentType);
            } else {
                status = "404 Not Found";
                contentType = "text/plain; charset=utf-8";
                body = "not found\n";
            }

            stream.sendAll(httpResponse(status, contentType, body));
        } catch (const NetError &) {
            // Scraper hung up or went silent mid-exchange; next
            // scrape will do.
        }
    }
}

InferenceServer::Readiness
InferenceServer::checkReadiness()
{
    Readiness r;
    const std::uint64_t now = util::Timer::processNanoseconds();
    if (stopping_.load(std::memory_order_acquire) ||
        !running_.load(std::memory_order_acquire)) {
        r = {false, "draining"};
    } else {
        bool saturated = false;
        {
            const util::MutexLock lock(queueMutex_);
            saturated = queue_.size() >= config_.queueCapacity;
        }
        const std::uint64_t lastOverload =
            lastOverloadNs_.load(std::memory_order_relaxed);
        const bool recentOverload =
            config_.overloadHoldMs > 0 && lastOverload != 0 &&
            elapsedNs(now, lastOverload) <
                config_.overloadHoldMs * 1'000'000ULL;
        bool stalled = false;
        if (config_.watchdogDeadlineMs > 0) {
            for (const auto &state : workerStates_) {
                const std::uint64_t busySince =
                    state->busySinceNs.load(
                        std::memory_order_relaxed);
                if (busySince != 0 &&
                    elapsedNs(now, busySince) >=
                        config_.watchdogDeadlineMs * 1'000'000ULL) {
                    stalled = true;
                    break;
                }
            }
        }
        if (saturated) {
            r = {false, "queue_saturated"};
        } else if (recentOverload) {
            r = {false, "overloaded"};
        } else if (stalled) {
            r = {false, "watchdog_stalled"};
        } else if (health_ != nullptr) {
            const obs::HealthVerdict v = health_->verdict();
            if (!v.ready)
                r = {false, v.reason};
        }
    }

    healthReady_.set(r.ready ? 1.0 : 0.0);
    return r;
}

std::string
InferenceServer::debugHealthBody()
{
    const Readiness r = checkReadiness();
    const std::uint64_t now = util::Timer::processNanoseconds();
    std::uint64_t queueDepth = 0;
    {
        const util::MutexLock lock(queueMutex_);
        queueDepth = queue_.size();
    }
    const std::uint64_t lastOverload =
        lastOverloadNs_.load(std::memory_order_relaxed);
    obs::JsonWriter w;
    w.beginObject();
    w.kv("ready", r.ready);
    w.kv("reason", r.reason);
    w.key("protocol").beginObject();
    w.kv("draining", stopping_.load(std::memory_order_acquire));
    w.kv("queue_depth", queueDepth);
    w.kv("queue_capacity",
         static_cast<std::uint64_t>(config_.queueCapacity));
    w.kv("overload_recent",
         config_.overloadHoldMs > 0 && lastOverload != 0 &&
             elapsedNs(now, lastOverload) <
                 config_.overloadHoldMs * 1'000'000ULL);
    w.kv("overload_hold_ms", config_.overloadHoldMs);
    w.endObject();
    if (health_ != nullptr) {
        w.key("engine");
        health_->writeHealthJson(w);
    }
    w.endObject();
    return w.str() + "\n";
}

std::string
InferenceServer::debugWindowsBody(const std::string &query)
{
    double seconds = 0.0; // 0 = everything retained
    const std::size_t arg = query.find("s=");
    if (arg != std::string::npos)
        seconds = std::strtod(query.c_str() + arg + 2, nullptr);
    obs::JsonWriter w;
    health_->writeWindowsJson(w, seconds);
    return w.str() + "\n";
}

void
InferenceServer::housekeepingLoop()
{
    if (config_.watchdogDeadlineMs == 0 && health_ == nullptr)
        return;
    const auto period =
        std::chrono::milliseconds(std::max<std::uint64_t>(
            config_.watchdogPeriodMs, 1));
    const auto windowNs = static_cast<std::uint64_t>(
        config_.windowSeconds * 1e9);
    std::uint64_t windowStartNs = util::Timer::processNanoseconds();
    // The mutex exists only to satisfy the wait protocol: nothing is
    // guarded by it, the timed sleep (interruptible by stop()) is
    // the point.
    util::Mutex sleepMutex;
    const util::MutexLock sleepLock(sleepMutex);
    while (running_.load(std::memory_order_acquire)) {
        housekeepingCv_.waitFor(sleepMutex, period);
        if (!running_.load(std::memory_order_acquire))
            break;
        const std::uint64_t now = util::Timer::processNanoseconds();
        if (config_.watchdogDeadlineMs > 0)
            checkStalls(now);
        if (health_ != nullptr && now - windowStartNs >= windowNs) {
            windowStartNs = now;
            health_->sample(now, obs::wallClockMs());
        }
    }
}

void
InferenceServer::checkStalls(std::uint64_t nowNs)
{
    for (const std::unique_ptr<WorkerState> &state : workerStates_) {
        const std::uint64_t busySince =
            state->busySinceNs.load(std::memory_order_relaxed);
        if (busySince == 0 ||
            elapsedNs(nowNs, busySince) <
                config_.watchdogDeadlineMs * 1'000'000ULL)
            continue;
        const std::uint64_t batch =
            state->batchSeq.load(std::memory_order_relaxed);
        if (batch == state->lastTrippedBatch)
            continue; // already counted this stuck batch
        state->lastTrippedBatch = batch;
        watchdogTrips_.add();
    }
}

} // namespace lookhd::serve
