/**
 * @file
 * Request-scoped tracing: trace/span identities, per-stage timing,
 * and the slow-request capture ring.
 *
 * The serving layer (src/serve/server.cpp) threads one
 * RequestContext per request from JSON parse to response write and
 * stamps a monotonic duration for each pipeline stage (the ReqStage
 * taxonomy below). On top of that context sit three consumers:
 *
 *   - per-stage latency histograms in the metric registry, named
 *     `serve.stage{stage="parse"}` etc. - the exposition layer
 *     splits the embedded label out into one Prometheus family
 *     `lookhd_serve_stage_ns{stage=...}` (obs/exposition.hpp),
 *   - Prometheus exemplars: the request-latency histogram keeps the
 *     last trace id seen per bucket (obs/metrics.hpp), linking tail
 *     buckets to concrete requests,
 *   - SlowRequestLog: a bounded per-thread ring of full stage
 *     breakdowns for requests over a latency threshold or sampled
 *     1-in-N, served on /debug/requests and flushable as JSON lines.
 *
 * Trace ids are 128-bit (32 lowercase hex chars on the wire, the
 * W3C trace-context width), span ids 64-bit. Ids arrive in the
 * `trace` field of the serve JSON protocol or are generated
 * server-side; either way the id is echoed in the response so
 * clients can cross-reference server-side records.
 *
 * SlowRequestLog keeps its records in obs::ThreadRing
 * (obs/thread_ring.hpp): one mutex-guarded ring per writer thread,
 * so the steady-state append never contends with readers copying
 * another thread's ring. Reads are NON-destructive - /debug/requests
 * is a peek, and file flushing is incremental via the per-record
 * global sequence number.
 *
 * This file lives in src/obs/ deliberately: record wall-clock
 * stamps and trace-id seeding use std::chrono::system_clock, which
 * the determinism lint permits only here.
 *
 * Compile-time gate: kReqTraceCompiled mirrors LOOKHD_OBS_ENABLED.
 * The classes themselves are always built (like the rest of
 * src/obs/); the serving layer uses the constant to skip id
 * generation and capture entirely in -DLOOKHD_OBS=OFF builds while
 * keeping client-supplied trace echo (a protocol feature, not
 * instrumentation) always on.
 */

#ifndef LOOKHD_OBS_REQTRACE_HPP
#define LOOKHD_OBS_REQTRACE_HPP

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

#include "obs/thread_ring.hpp"

#ifndef LOOKHD_OBS_ENABLED
#define LOOKHD_OBS_ENABLED 1
#endif

namespace lookhd::obs {

class JsonWriter;

/** Compile-time request-tracing gate (follows -DLOOKHD_OBS). */
inline constexpr bool kReqTraceCompiled = LOOKHD_OBS_ENABLED != 0;

/** 128-bit trace identity; all-zero means "no trace". */
struct TraceId
{
    std::uint64_t hi = 0;
    std::uint64_t lo = 0;

    bool zero() const { return hi == 0 && lo == 0; }

    bool
    operator==(const TraceId &other) const
    {
        return hi == other.hi && lo == other.lo;
    }
};

/** Fresh process-unique trace id (never all-zero). */
TraceId makeTraceId();

/** Fresh span id (never zero). */
std::uint64_t makeSpanId();

/** 32 lowercase hex chars. */
std::string traceIdHex(const TraceId &id);

/** 16 lowercase hex chars. */
std::string spanIdHex(std::uint64_t id);

/**
 * Parse exactly 32 hex chars (either case) into @p out.
 * @return false (out untouched) on any other input, including the
 * all-zero id, which the wire format reserves for "no trace".
 */
bool parseTraceIdHex(std::string_view hex, TraceId &out);

/**
 * The serving pipeline stages, in request order. Every completed
 * request carries one duration per stage:
 *
 *   parse       request line -> validated Request
 *   queue       enqueue -> popped by a worker
 *   batch_form  pop -> batch dispatched (gather wait)
 *   score       the batched kernel pass (shared by the batch)
 *   serialize   response JSON build
 *   write       response socket write
 */
enum class ReqStage : std::uint8_t
{
    kParse = 0,
    kQueue,
    kBatchForm,
    kScore,
    kSerialize,
    kWrite,
};

inline constexpr std::size_t kReqStageCount = 6;

/** Lower-case stage name ("parse", "queue", ...). */
const char *reqStageName(ReqStage stage);

/**
 * Registry metric name of one stage's latency histogram:
 * `serve.stage{stage="parse"}`. The exposition layer folds the
 * embedded label into the Prometheus family's label set.
 */
std::string reqStageMetricName(ReqStage stage);

/** Per-request trace state threaded through the serving pipeline. */
struct RequestContext
{
    TraceId trace;
    std::uint64_t span = 0;
    /** True when the id came from the request's `trace` field. */
    bool clientSupplied = false;
    /** util::Timer::processNanoseconds at parse start. */
    std::uint64_t startNs = 0;
    /** Duration of each completed stage, ns (ReqStage-indexed). */
    std::uint64_t stageNs[kReqStageCount] = {};

    void
    setStage(ReqStage stage, std::uint64_t ns)
    {
        stageNs[static_cast<std::size_t>(stage)] = ns;
    }

    std::uint64_t
    stage(ReqStage stage) const
    {
        return stageNs[static_cast<std::size_t>(stage)];
    }

    /** Sum of the recorded stage durations. */
    std::uint64_t stageSumNs() const;
};

/** Why a request landed in the SlowRequestLog. */
enum class CaptureReason : std::uint8_t
{
    kSlow = 0,
    kSampled,
};

const char *captureReasonName(CaptureReason reason);

/** One captured request: full stage breakdown plus outcome. */
struct SlowRequestRecord
{
    RequestContext ctx;
    /** Global capture order, 1-based; assigned by record(). */
    std::uint64_t seq = 0;
    /** Unix wall clock at capture, ms; stamped by record(). */
    std::uint64_t wallMs = 0;
    /** End-to-end latency, parse start to response written. */
    std::uint64_t totalNs = 0;
    std::size_t batchSize = 0;
    std::uint64_t predictedClass = 0;
    /** Raw top1-top2 score margin. */
    double margin = 0.0;
    CaptureReason reason = CaptureReason::kSlow;
    /** Echoed request id rendered as text ("" when absent). */
    std::string clientId;
};

/** One record as a JSON object value. */
void writeSlowRequestJson(JsonWriter &w, const SlowRequestRecord &r);

/**
 * Bounded capture ring for slow/sampled requests.
 *
 * Each writer thread owns one fixed-capacity overwrite-oldest ring
 * (uncontended mutex), owned by the log.
 * Readers are non-destructive: snapshot() returns a seq-ordered copy
 * for /debug/requests, writeJsonLines() appends only records newer
 * than a caller-held watermark so a periodic file flush never
 * duplicates.
 */
class SlowRequestLog
{
  public:
    /** @param ringCapacity Records retained per writer thread. */
    explicit SlowRequestLog(std::size_t ringCapacity = 256);

    SlowRequestLog(const SlowRequestLog &) = delete;
    SlowRequestLog &operator=(const SlowRequestLog &) = delete;

    /** Capture one record (seq and wallMs are assigned here). */
    void record(SlowRequestRecord r);

    /** Copy of every retained record, ascending seq. */
    std::vector<SlowRequestRecord> snapshot() const;

    /**
     * Append records with seq > @p afterSeq as JSON lines, ascending
     * seq: every record captured before the call and still retained,
     * exactly once across calls. @return the new watermark (the
     * highest seq captured before the call, or @p afterSeq when
     * nothing was new) - feed it back in as the next @p afterSeq.
     */
    std::uint64_t writeJsonLines(std::ostream &out,
                                 std::uint64_t afterSeq) const;

    /** Records ever captured (retained or already overwritten). */
    std::uint64_t totalCaptured() const;

  private:
    ThreadRing<SlowRequestRecord> rings_;
    std::atomic<std::uint64_t> nextSeq_{1};
};

} // namespace lookhd::obs

#endif // LOOKHD_OBS_REQTRACE_HPP
