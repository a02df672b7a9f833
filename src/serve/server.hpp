/**
 * @file
 * Multi-threaded batched-inference server over plain TCP.
 *
 * The minimal serving harness that makes the live telemetry
 * meaningful: a request port speaking newline-delimited JSON and a
 * scrape port exposing the Prometheus snapshot.
 *
 * Request port protocol (one JSON object per line):
 *
 *   -> {"id":7,"features":[0.5,1.25,3.0]}
 *   <- {"id":7,"pred":1}
 *   -> {"id":"a","features":[...],"scores":true}
 *   <- {"id":"a","pred":1,"scores":[-0.1,0.9]}
 *   <- {"id":9,"error":"expected 3 features, got 2"}   (bad request)
 *
 * A line longer than TcpStream::kMaxLineBytes (1 MiB) is a bad
 * request too: it gets one error line and the connection is closed.
 *
 * Threading: one acceptor, one reader thread per connection feeding
 * a bounded request queue, a worker pool, one scrape-port thread, one
 * housekeeping thread (watchdog stall checks and window closes on
 * one watchdogPeriodMs tick). Batching is work-conserving: a worker
 * sleeps only while the queue is empty, then takes up to
 * batchMaxSize queued requests and dispatches them at once, so
 * batches grow only from requests that queued while every worker was
 * busy. The acceptor also reaps connections whose reader has
 * finished (socket closed, thread joined) on each of its 100 ms
 * polls, and backs off like a poll timeout when accept() runs out of
 * descriptors or memory (serve/net.hpp). A full queue rejects
 * at the reader with an "overloaded" error response instead of
 * back-pressuring the socket, so queue depth is bounded and visible
 * in /metrics.
 *
 * Scrape port (HTTP/1.0, close-per-request, one connection at a
 * time, GET only - other methods get 405; a connection that sends
 * nothing for 1 s is dropped):
 *   GET /metrics         Prometheus text format v0.0.4 of the global
 *                        registry + span rollup (obs/exposition.hpp)
 *   GET /metrics.json    the JSON snapshot document
 *   GET /healthz         readiness: 200 "ok" when serving, 503 with
 *                        a JSON {"status","reason"} body while
 *                        draining, saturated, recently overloaded,
 *                        stalled, or while served margins have
 *                        drifted from the warm-up windows
 *                        (obs/health.hpp)
 *   GET /livez           liveness: 200 while the scrape loop runs
 *   GET /debug/health    full verdict: protocol state plus the
 *                        drift state (PSI, reference, trips) as
 *                        JSON
 *   GET /debug/windows?s=N  recent window series (last N seconds)
 *   GET /debug/requests  recent slow/sampled requests with their
 *                        full stage breakdown (obs/reqtrace.hpp)
 *   GET /debug/inflight  currently queued + scoring requests, aged
 *   GET /debug/trace?ms=N  time-boxed Chrome trace_event capture of
 *                        live server spans (blocks the scrape
 *                        thread for N ms by design)
 *   GET /debug/profile?seconds=N&hz=H[&format=speedscope]
 *                        blocking CPU-profile capture
 *                        (obs/profiler.hpp): collapsed stacks as
 *                        text/plain by default, speedscope JSON
 *                        with format=speedscope; 503 while another
 *                        profiling session is running, 404 when
 *                        the profiler is compiled out
 *
 * Request tracing: every request carries an obs::RequestContext
 * (128-bit trace id from the request's `trace` field or generated
 * server-side, echoed in the response) and stamps one duration per
 * pipeline stage (parse/queue/batch_form/score/serialize/write).
 * Stage durations feed per-stage histograms, exemplars on the
 * request-latency histogram, and the SlowRequestLog. Under
 * -DLOOKHD_OBS=OFF id generation and capture compile out; echo of a
 * client-supplied trace id is protocol, so it stays.
 *
 * Telemetry: request accounting (serve.* counters/gauges and the
 * serve.request.latency histogram) writes the metric registry
 * directly - it is the product of this layer, not optional
 * instrumentation, so /metrics stays meaningful even in
 * -DLOOKHD_OBS=OFF builds where the macro sites compile out.
 *
 * On each tick the housekeeping thread checks every worker's
 * in-flight batch against the watchdog deadline; a stall increments
 * serve.watchdog.trips once per stuck batch, and /debug/inflight
 * shows the stuck worker's stage and busy time while it lasts. On
 * the first tick after windowSeconds have passed it closes a
 * telemetry window (obs/timeseries.hpp) and judges it for drift.
 */

#ifndef LOOKHD_SERVE_SERVER_HPP
#define LOOKHD_SERVE_SERVER_HPP

#include <array>
#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "lookhd/classifier.hpp"
#include "obs/health.hpp"
#include "obs/reqtrace.hpp"
#include "serve/net.hpp"
#include "util/thread_annotations.hpp"

namespace lookhd::obs {
class Counter;
class Gauge;
class LatencyHistogram;
} // namespace lookhd::obs

namespace lookhd::serve {

/** Tunables of one InferenceServer. */
struct ServeConfig
{
    /** Request port; 0 = kernel-assigned (read back via port()). */
    std::uint16_t port = 0;

    /** Scrape port; 0 = kernel-assigned (metricsPort()). */
    std::uint16_t metricsPort = 0;

    /** Inference worker threads. */
    std::size_t workers = 2;

    /**
     * Max queued requests a worker takes as one batch (0 counts as
     * 1). A worker never waits for a batch to fill: it takes what is
     * queued when it wakes.
     */
    std::size_t batchMaxSize = 16;

    /**
     * Threads each worker spends on one batch's predictions
     * (Classifier::scoresBatch): 1 = the worker thread alone
     * (default), 0 = one per hardware thread. Results are identical
     * for every value; this only trades worker-level for intra-batch
     * parallelism.
     */
    std::size_t predictThreads = 1;

    /**
     * Serving arithmetic: "auto" (int8 when the loaded model carries
     * quantized forms, float64 otherwise), or an explicit "float64",
     * "int8", "binary". Explicit quantized choices build the forms
     * on demand when the model lacks them. The resolved choice is
     * exported as the "precision" label on /metrics and decides
     * which kernel path Classifier::scoresBatch takes per batch.
     */
    std::string precision = "auto";

    /** Bounded request queue; beyond this, reject as overloaded. */
    std::size_t queueCapacity = 1024;

    /** Worker-stall threshold for the watchdog. 0 disables. */
    std::uint64_t watchdogDeadlineMs = 2000;

    /** Housekeeping tick: stall checks and window closes. */
    std::uint64_t watchdogPeriodMs = 100;

    /**
     * End-to-end latency (parse start to response written) beyond
     * which a request is captured in the SlowRequestLog. 0 disables
     * threshold capture.
     */
    std::uint64_t slowThresholdNs = 100'000'000;

    /** Also capture every Nth request ("sampled"). 0 disables. */
    std::uint64_t sampleEveryN = 0;

    /** SlowRequestLog records retained per writer thread. */
    std::size_t slowLogCapacity = 256;

    /**
     * Artificial per-batch delay added to the scoring stage. A load-
     * testing aid (simulates heavier models so overload scenarios
     * reproduce deterministically); 0 in production.
     */
    std::uint64_t scoreDelayNs = 0;

    /**
     * After an overload rejection, /healthz stays unready this long
     * even once the queue has space again: a load balancer polling
     * between bursts should keep the instance drained, not flap.
     * 0 disables the latch (only instantaneous saturation counts).
     */
    std::uint64_t overloadHoldMs = 2000;

    /**
     * Telemetry window length, judged for margin drift as each
     * window closes (obs/health.hpp). Windows close when
     * windowSeconds > 0 and the obs layer is compiled in, on the
     * first housekeeping tick after the length has passed;
     * protocol-level /healthz readiness (drain/overload/stall) works
     * regardless.
     */
    double windowSeconds = 5.0;

    /**
     * Test-only hook, run at the start of every batch with the batch
     * size (on the worker thread, while the watchdog sees the worker
     * busy). Lets tests stall a worker deterministically.
     */
    std::function<void(std::size_t)> batchHook;
};

/**
 * The server. start() spins up the threads and returns; stop()
 * (also run by the destructor) stops accepting, drains the queue,
 * answers what it can, and joins everything.
 */
class InferenceServer
{
  public:
    InferenceServer(Classifier classifier, ServeConfig config);
    ~InferenceServer();

    InferenceServer(const InferenceServer &) = delete;
    InferenceServer &operator=(const InferenceServer &) = delete;

    /** Bind both ports and launch the thread set. @throws NetError. */
    void start();

    /** Graceful shutdown; idempotent. */
    void stop();

    bool running() const
    {
        return running_.load(std::memory_order_acquire);
    }

    /** Bound request port. @pre start() succeeded. */
    std::uint16_t port() const { return requestListener_.port(); }

    /** Bound scrape port. @pre start() succeeded. */
    std::uint16_t metricsPort() const
    {
        return metricsListener_.port();
    }

    /** Requests answered successfully since start. */
    std::uint64_t requestsServed() const;

    /** The slow/sampled request capture ring (for tests/flushing). */
    obs::SlowRequestLog &slowLog() { return slowLog_; }

    /** One /healthz readiness verdict. */
    struct Readiness
    {
        bool ready = true;
        /** "ok" | "draining" | "queue_saturated" | "overloaded" |
         * "watchdog_stalled" | "drift". */
        std::string reason = "ok";
    };

    /**
     * Compute the current readiness verdict (highest-priority
     * violation wins: draining > queue_saturated > overloaded >
     * watchdog_stalled > drift) and update the serve.health.ready
     * gauge. This is what GET /healthz serves; public for tests.
     */
    Readiness checkReadiness();

    /** Windowed health engine; null when disabled or compiled out. */
    obs::HealthMonitor *healthMonitor() { return health_.get(); }

  private:
    struct Connection;
    struct Request;
    struct WorkerState;

    /** An accepted connection and the reader thread serving it. */
    struct Reader
    {
        std::shared_ptr<Connection> conn;
        std::thread thread;
    };

    void acceptLoop();
    /** Join finished readers, close their sockets, drop them. */
    void reapClosedConnections();
    void connectionLoop(std::shared_ptr<Connection> conn);
    void workerLoop(std::size_t workerIndex);
    void metricsLoop();
    /** Watchdog stall checks and window closes, one tick per
     * watchdogPeriodMs. */
    void housekeepingLoop();
    /** Count each worker batch stuck past the deadline, once. */
    void checkStalls(std::uint64_t nowNs);

    /** Parse + validate one request line; enqueue or answer error. */
    void handleRequestLine(const std::shared_ptr<Connection> &conn,
                           const std::string &line);
    /** Score and answer @p batch, which left the queue at
     * @p dequeuedNs (processNanoseconds()). */
    void processBatch(std::vector<Request> &batch,
                      std::uint64_t dequeuedNs, WorkerState &state);

    /** /debug endpoint bodies, built on the scrape thread. */
    std::string debugRequestsBody() const;
    std::string debugInflightBody();
    std::string debugTraceBody(const std::string &query);
    std::string debugHealthBody();
    std::string debugWindowsBody(const std::string &query);
    /** Blocking CPU-profile capture; sets @p status / @p contentType
     * per outcome and format (collapsed = text/plain, speedscope =
     * application/json, busy = 503). */
    std::string debugProfileBody(const std::string &query,
                                 std::string &status,
                                 std::string &contentType);

    Classifier classifier_;
    const ServeConfig config_;
    std::size_t expectedFeatures_ = 0;

    TcpListener requestListener_;
    TcpListener metricsListener_;

    std::atomic<bool> running_{false};
    std::atomic<bool> started_{false};
    std::atomic<bool> stopping_{false};
    /** Set after readers are joined: workers drain, then exit. */
    std::atomic<bool> stopWorkers_{false};
    std::atomic<std::int64_t> openConnections_{0};
    std::atomic<std::int64_t> inflightRequests_{0};
    /** Wakes the housekeeping thread out of its tick sleep on
     * stop(); it waits on a loop-local mutex (nothing is guarded by
     * it, the sleep is the point). */
    util::CondVar housekeepingCv_;
    /** processNanoseconds() of the last overload rejection; feeds
     * the overloadHoldMs readiness latch. 0 = never. */
    std::atomic<std::uint64_t> lastOverloadNs_{0};

    std::thread acceptThread_;
    std::thread metricsThread_;
    std::thread housekeepingThread_;
    std::vector<std::thread> workerThreads_;

    util::Mutex connectionsMutex_;
    /** Live connections. Finished readers are swapped out under the
     * mutex and joined outside it, by the acceptor's reaper and by
     * stop() (joining under a lock a reader might want is the
     * classic shutdown deadlock). */
    std::vector<Reader> readers_ LOOKHD_GUARDED_BY(connectionsMutex_);

    util::Mutex queueMutex_;
    util::CondVar queueCv_;
    std::deque<Request> queue_ LOOKHD_GUARDED_BY(queueMutex_);

    std::vector<std::unique_ptr<WorkerState>> workerStates_;

    /** Constructed in start() when windows are compiled in and
     * config_.windowSeconds > 0; kept after stop() so the final
     * state stays inspectable. */
    std::unique_ptr<obs::HealthMonitor> health_;

    obs::SlowRequestLog slowLog_;
    /** 1-in-N sampling position (config_.sampleEveryN). */
    std::atomic<std::uint64_t> sampleCounter_{0};
    /** Per-stage latency histograms, ReqStage-indexed; null in
     * -DLOOKHD_OBS=OFF builds (stage timing compiles out). */
    std::array<obs::LatencyHistogram *, obs::kReqStageCount>
        stageLatency_{};

    // Cached registry handles (resolved once; see obs/metrics.hpp).
    obs::Counter &requestsOk_;
    obs::Counter &requestsBad_;
    obs::Counter &requestsOverload_;
    obs::Counter &batches_;
    obs::Counter &multiBatches_;
    obs::Counter &batchedRequests_;
    obs::Counter &quantizedRequests_;
    obs::Counter &connectionsTotal_;
    obs::Counter &watchdogTrips_;
    obs::Counter &slowCaptured_;
    obs::Gauge &queueDepth_;
    obs::Gauge &inflight_;
    obs::Gauge &connectionsOpen_;
    obs::Gauge &batchLastSize_;
    obs::Gauge &healthReady_;
    obs::LatencyHistogram &requestLatency_;
};

} // namespace lookhd::serve

#endif // LOOKHD_SERVE_SERVER_HPP
