/**
 * @file
 * Client side of the serve phases: a seeded Poisson open
 * loop over loopback TCP, and a /metrics scraper.
 *
 * The client speaks the server's newline-delimited JSON protocol
 * with its own socket and parsing code, so a change to the server's
 * parser or network layer cannot also change how it is measured.
 */

#ifndef PERFBENCH_LOADGEN_HPP
#define PERFBENCH_LOADGEN_HPP

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <random>
#include <string>
#include <thread>
#include <vector>

namespace perfbench {

/** Monotonic clock in nanoseconds. */
std::int64_t nowNs();

/** HTTP/1.0 GET of @p path on the loopback @p port; the body of a 200
 * response. @throws std::runtime_error otherwise. */
std::string httpGet(std::uint16_t port, const std::string &path);

/**
 * Samples of a Prometheus text exposition keyed by their full name
 * with labels as written (`family{a="b"}`); comments and exemplars
 * dropped.
 */
std::map<std::string, double> parsePrometheus(const std::string &text);

/** Outcome of one open-loop phase. */
struct PhaseResult
{
    std::size_t sent = 0;
    std::size_t rejected = 0;
    /** Error, missing, wrong-id, malformed or wrong-label responses. */
    std::size_t failed = 0;
    /** Due time to response, µs; a request that failed or was
     * rejected counts as +infinity. */
    std::vector<double> latencyUs;
    /** Send time minus due time, µs, per sent request. */
    std::vector<double> lateUs;
    /** The part of lateUs that is the generator's own lag: send time
     * minus the later of the due time and the end of the previous send
     * (time blocked in a send is the server's back-pressure). */
    std::vector<double> selfLagUs;
    /** Sent requests over the time from the schedule's start to the
     * last send. */
    double achievedRps = 0;
    /** Requests due minus requests answered at 1/4 of the schedule
     * and at its end. */
    std::size_t backlogEarly = 0;
    std::size_t backlogEnd = 0;
};

/**
 * Sends pre-rendered requests on a fixed number of connections from
 * the calling thread, with one reader thread per connection.
 * Requests carry a unique numeric id; every response is matched to
 * its request and its `pred` checked against the expected label.
 */
class OpenLoopClient
{
  public:
    /**
     * @param tails Per-row request text after the id, i.e.
     *        `,"features":[...]}\n`.
     * @param expected Per-row label every response must carry.
     */
    OpenLoopClient(std::uint16_t port, std::size_t connections,
                   std::vector<std::string> tails,
                   std::vector<std::size_t> expected);
    ~OpenLoopClient();

    OpenLoopClient(const OpenLoopClient &) = delete;
    OpenLoopClient &operator=(const OpenLoopClient &) = delete;

    /**
     * Send Poisson arrivals at @p rps for @p seconds (rows drawn
     * uniformly from @p rng), then wait up to 5 s for every response;
     * one still missing then counts as failed.
     */
    PhaseResult runPhase(double rps, double seconds, std::mt19937_64 &rng);

  private:
    struct Slot
    {
        std::int64_t dueNs = 0;
        std::int64_t sendNs = 0;
        std::uint32_t row = 0;
        /** Written by the reader that claimed the slot, published by
         * state = kPublished (release). */
        std::int64_t pred = -1;
        std::int64_t recvNs = 0;
        bool rejected = false;
        bool error = false;
        std::atomic<std::uint8_t> state{0};
    };
    enum : std::uint8_t
    {
        kFree = 0,
        kClaimed = 1,
        kPublished = 2,
    };
    /** One phase's requests: ids [base, base + count). Kept until the
     * client dies, so a late response never touches freed memory. */
    struct Phase
    {
        std::uint64_t base = 0;
        std::size_t count = 0;
        std::unique_ptr<Slot[]> slots;
    };
    static constexpr std::size_t kMaxPhases = 64;

    void readLoop(int fd);
    void handleLine(const char *line, std::size_t len, std::int64_t t);
    void send(int fd, std::uint64_t id, const std::string &tail);

    std::vector<std::string> tails_;
    std::vector<std::size_t> expected_;
    std::vector<int> fds_;
    Phase phases_[kMaxPhases];
    /** Phases whose slots readers may touch (release-published). */
    std::atomic<std::size_t> phaseCount_{0};
    std::atomic<std::uint64_t> answered_{0};
    /** Responses matching no request, duplicated, or unparseable. */
    std::atomic<std::uint64_t> stray_{0};
    std::uint64_t nextId_ = 0;
    std::vector<std::thread> readers_;
};

} // namespace perfbench

#endif // PERFBENCH_LOADGEN_HPP
