#include "obs/trace.hpp"

#include <algorithm>
#include <fstream>
#include <map>
#include <ostream>

#include "obs/json.hpp"
#include "obs/profiler.hpp"
#include "obs/thread_ring.hpp"
#include "util/thread_annotations.hpp"
#include "util/timer.hpp"

namespace lookhd::obs {

namespace {

/** Events kept per thread before the ring starts overwriting. */
constexpr std::size_t kRingCapacity = 1 << 14;

std::atomic<bool> gEnabled{true};
std::atomic<bool> gTracing{false};

/** Every registered span site. Leaked so that a site first reached
 * during static destruction can still register. */
struct SiteRegistry
{
    util::Mutex mutex;
    std::vector<SpanSite *> sites LOOKHD_GUARDED_BY(mutex);
};

SiteRegistry &
siteRegistry()
{
    static auto *r = new SiteRegistry;
    return *r;
}

/**
 * Completed-span events. Deliberately leaked: spans may close during
 * static destruction, and rings must outlive their threads so an
 * exited thread's events and drops still reach writeChromeTrace.
 */
ThreadRing<TraceEvent> &
traceEvents()
{
    static auto *events = new ThreadRing<TraceEvent>(kRingCapacity);
    return *events;
}

/** Innermost open span; only the owning thread ever touches it. */
thread_local TraceSpan *tCurrentSpan = nullptr;

void
writeEventJson(JsonWriter &w, std::uint64_t tid, const TraceEvent &ev)
{
    w.beginObject();
    w.kv("name", ev.site->name());
    w.kv("cat", ev.site->category());
    w.kv("ph", "X");
    w.kv("ts", static_cast<double>(ev.startNs) / 1e3);
    w.kv("dur", static_cast<double>(ev.durNs) / 1e3);
    w.kv("pid", std::uint64_t{1});
    w.kv("tid", tid);
    w.endObject();
}

} // namespace

SpanSite::SpanSite(const char *name, const char *category)
    : name_(name), category_(category)
{
    auto &reg = siteRegistry();
    const util::MutexLock lock(reg.mutex);
    reg.sites.push_back(this);
}

void
SpanSite::reset()
{
    count_.store(0, std::memory_order_relaxed);
    totalNs_.store(0, std::memory_order_relaxed);
    selfNs_.store(0, std::memory_order_relaxed);
}

std::vector<SpanStats>
spanRollup()
{
    auto &reg = siteRegistry();
    std::vector<SpanSite *> sites;
    {
        const util::MutexLock lock(reg.mutex);
        sites = reg.sites;
    }
    // Merge by name: several code sites may legitimately report under
    // one logical span (e.g. the two BaselineEncoder::encode paths).
    std::map<std::string, SpanStats> merged;
    for (const SpanSite *site : sites) {
        const std::uint64_t n = site->count();
        if (n == 0)
            continue;
        SpanStats &s = merged[site->name()];
        if (s.name.empty()) {
            s.name = site->name();
            s.category = site->category();
        }
        s.count += n;
        s.totalNs += site->totalNs();
        s.selfNs += site->selfNs();
    }
    std::vector<SpanStats> out;
    out.reserve(merged.size());
    for (auto &[name, stats] : merged)
        out.push_back(std::move(stats));
    std::sort(out.begin(), out.end(),
              [](const SpanStats &a, const SpanStats &b) {
                  return a.totalNs > b.totalNs;
              });
    return out;
}

std::uint64_t
totalNsOf(const std::vector<SpanStats> &rollup, const std::string &name)
{
    for (const SpanStats &s : rollup) {
        if (s.name == name)
            return s.totalNs;
    }
    return 0;
}

void
resetSpans()
{
    auto &reg = siteRegistry();
    {
        const util::MutexLock lock(reg.mutex);
        for (SpanSite *site : reg.sites)
            site->reset();
    }
    traceEvents().clear();
}

void
setEnabled(bool on)
{
    gEnabled.store(on, std::memory_order_relaxed);
}

bool
enabled()
{
    return gEnabled.load(std::memory_order_relaxed);
}

void
setTracing(bool on)
{
    gTracing.store(on, std::memory_order_relaxed);
}

bool
tracing()
{
    return gTracing.load(std::memory_order_relaxed);
}

TraceSpan::TraceSpan(SpanSite &site)
{
    if (!enabled()) {
        site_ = nullptr;
        return;
    }
    site_ = &site;
    parent_ = tCurrentSpan;
    tCurrentSpan = this;
    profilerPublishSite(site_);
    depth_ = parent_ ? parent_->depth_ + 1 : 0;
    startNs_ = util::Timer::processNanoseconds();
}

TraceSpan::~TraceSpan()
{
    if (!site_)
        return;
    const std::uint64_t end = util::Timer::processNanoseconds();
    const std::uint64_t dur = end - startNs_;
    site_->accumulate(dur, dur - std::min(childNs_, dur));
    if (parent_)
        parent_->childNs_ += dur;
    tCurrentSpan = parent_;
    profilerPublishSite(parent_ ? parent_->site_ : nullptr);
    if (tracing())
        traceEvents().push({site_, startNs_, dur, depth_});
}

void
writeChromeTrace(std::ostream &out)
{
    JsonWriter w;
    std::uint64_t dropped = 0;
    w.beginObject();
    w.key("traceEvents").beginArray();
    // Never drained, so a ring's since-drain drops are every drop
    // since resetSpans().
    for (const auto &ring : traceEvents().snapshot()) {
        dropped += ring.dropped;
        for (const TraceEvent &ev : ring.items)
            writeEventJson(w, ring.thread, ev);
    }
    w.endArray();
    w.kv("displayTimeUnit", "ms");
    w.key("otherData").beginObject();
    w.kv("dropped_events", dropped);
    w.endObject();
    w.endObject();
    out << w.str();
}

bool
writeChromeTraceFile(const std::string &path)
{
    std::ofstream out(path);
    if (!out)
        return false;
    writeChromeTrace(out);
    return bool(out);
}

} // namespace lookhd::obs
