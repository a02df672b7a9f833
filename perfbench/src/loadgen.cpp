#include "loadgen.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <sys/uio.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <limits>
#include <stdexcept>

namespace perfbench {

namespace {

int
connectLoopback(std::uint16_t port)
{
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0)
        throw std::runtime_error(std::string("socket: ") +
                                 std::strerror(errno));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    if (::connect(fd, reinterpret_cast<const sockaddr *>(&addr),
                  sizeof addr) != 0) {
        const int err = errno;
        ::close(fd);
        throw std::runtime_error(std::string("connect: ") +
                                 std::strerror(err));
    }
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
    return fd;
}

/** Write every byte of @p iov, retrying short writes and EINTR. */
void
writeAll(int fd, iovec *iov, int count)
{
    while (count > 0) {
        msghdr msg{};
        msg.msg_iov = iov;
        msg.msg_iovlen = static_cast<std::size_t>(count);
        const ssize_t n = ::sendmsg(fd, &msg, MSG_NOSIGNAL);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            throw std::runtime_error(std::string("send: ") +
                                     std::strerror(errno));
        }
        auto left = static_cast<std::size_t>(n);
        while (count > 0 && left >= iov->iov_len) {
            left -= iov->iov_len;
            ++iov;
            --count;
        }
        if (count > 0) {
            iov->iov_base = static_cast<char *>(iov->iov_base) + left;
            iov->iov_len -= left;
        }
    }
}

/** The unsigned integer after `"key":` in a flat JSON object line. */
bool
findUnsigned(std::string_view line, std::string_view key,
             std::uint64_t &out)
{
    const std::size_t at = line.find(key);
    if (at == std::string_view::npos)
        return false;
    std::size_t i = at + key.size();
    if (i >= line.size() || line[i] < '0' || line[i] > '9')
        return false;
    std::uint64_t v = 0;
    for (; i < line.size() && line[i] >= '0' && line[i] <= '9'; ++i) {
        if (v > (std::numeric_limits<std::uint64_t>::max() - 9) / 10)
            return false;
        v = v * 10 + static_cast<std::uint64_t>(line[i] - '0');
    }
    out = v;
    return true;
}

void
sleepUntilNs(std::int64_t due)
{
    // Sleep to within the timer slack of the due time, then spin.
    constexpr std::int64_t kSpinNs = 80'000;
    const std::int64_t gap = due - nowNs();
    if (gap > kSpinNs)
        std::this_thread::sleep_for(std::chrono::nanoseconds(gap - kSpinNs));
    while (nowNs() < due) {
    }
}

} // namespace

std::int64_t
nowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

std::string
httpGet(std::uint16_t port, const std::string &path)
{
    const int fd = connectLoopback(port);
    std::string response;
    try {
        std::string request = "GET " + path + " HTTP/1.0\r\n\r\n";
        iovec iov{request.data(), request.size()};
        writeAll(fd, &iov, 1);
        char buf[65536];
        while (true) {
            const ssize_t n = ::recv(fd, buf, sizeof buf, 0);
            if (n < 0 && errno == EINTR)
                continue;
            if (n < 0)
                throw std::runtime_error(std::string("recv: ") +
                                         std::strerror(errno));
            if (n == 0)
                break;
            response.append(buf, static_cast<std::size_t>(n));
        }
    } catch (...) {
        ::close(fd);
        throw;
    }
    ::close(fd);
    const std::size_t body = response.find("\r\n\r\n");
    if (response.compare(0, 12, "HTTP/1.0 200") != 0 &&
        response.compare(0, 12, "HTTP/1.1 200") != 0)
        throw std::runtime_error("GET " + path + ": " +
                                 response.substr(0, response.find('\r')));
    if (body == std::string::npos)
        throw std::runtime_error("GET " + path + ": no header end");
    return response.substr(body + 4);
}

std::map<std::string, double>
parsePrometheus(const std::string &text)
{
    std::map<std::string, double> out;
    std::size_t pos = 0;
    while (pos < text.size()) {
        std::size_t end = text.find('\n', pos);
        if (end == std::string::npos)
            end = text.size();
        const std::string_view line(text.data() + pos, end - pos);
        pos = end + 1;
        if (line.empty() || line[0] == '#')
            continue;
        // The name ends at the first space outside the label braces.
        std::size_t nameEnd = 0;
        bool inLabels = false;
        bool inString = false;
        for (; nameEnd < line.size(); ++nameEnd) {
            const char c = line[nameEnd];
            if (inString) {
                if (c == '\\')
                    ++nameEnd;
                else if (c == '"')
                    inString = false;
            } else if (c == '"' && inLabels) {
                inString = true;
            } else if (c == '{') {
                inLabels = true;
            } else if (c == '}') {
                inLabels = false;
            } else if (c == ' ' && !inLabels) {
                break;
            }
        }
        if (nameEnd >= line.size())
            continue;
        const std::string valueText(
            line.substr(nameEnd + 1,
                        line.find(' ', nameEnd + 1) - (nameEnd + 1)));
        char *parsedEnd = nullptr;
        const double value = std::strtod(valueText.c_str(), &parsedEnd);
        if (parsedEnd == valueText.c_str())
            continue;
        out[std::string(line.substr(0, nameEnd))] = value;
    }
    return out;
}

OpenLoopClient::OpenLoopClient(std::uint16_t port,
                               std::size_t connections,
                               std::vector<std::string> tails,
                               std::vector<std::size_t> expected)
    : tails_(std::move(tails)), expected_(std::move(expected))
{
    if (tails_.empty() || tails_.size() != expected_.size())
        throw std::invalid_argument("client needs one label per row");
    try {
        for (std::size_t c = 0; c < connections; ++c)
            fds_.push_back(connectLoopback(port));
        for (const int fd : fds_)
            readers_.emplace_back([this, fd] { readLoop(fd); });
    } catch (...) {
        for (const int fd : fds_)
            ::shutdown(fd, SHUT_RDWR);
        for (std::thread &t : readers_)
            t.join();
        for (const int fd : fds_)
            ::close(fd);
        throw;
    }
}

OpenLoopClient::~OpenLoopClient()
{
    for (const int fd : fds_)
        ::shutdown(fd, SHUT_RDWR);
    for (std::thread &t : readers_)
        t.join();
    for (const int fd : fds_)
        ::close(fd);
}

void
OpenLoopClient::readLoop(int fd)
{
    std::string buf;
    char chunk[1 << 16];
    while (true) {
        const ssize_t n = ::recv(fd, chunk, sizeof chunk, 0);
        if (n < 0 && errno == EINTR)
            continue;
        if (n <= 0)
            return;
        const std::int64_t t = nowNs();
        buf.append(chunk, static_cast<std::size_t>(n));
        std::size_t start = 0;
        for (std::size_t nl = buf.find('\n'); nl != std::string::npos;
             nl = buf.find('\n', start)) {
            handleLine(buf.data() + start, nl - start, t);
            start = nl + 1;
        }
        buf.erase(0, start);
    }
}

void
OpenLoopClient::handleLine(const char *text, std::size_t len,
                           std::int64_t t)
{
    const std::string_view line(text, len);
    std::uint64_t id = 0;
    if (!findUnsigned(line, "\"id\":", id)) {
        stray_.fetch_add(1, std::memory_order_relaxed);
        return;
    }
    Slot *slot = nullptr;
    const std::size_t phases = phaseCount_.load(std::memory_order_acquire);
    for (std::size_t k = phases; k-- > 0;) {
        const Phase &p = phases_[k];
        if (id >= p.base && id - p.base < p.count) {
            slot = &p.slots[id - p.base];
            break;
        }
    }
    std::uint8_t expectedState = kFree;
    if (slot == nullptr ||
        !slot->state.compare_exchange_strong(expectedState, kClaimed,
                                             std::memory_order_acq_rel)) {
        stray_.fetch_add(1, std::memory_order_relaxed);
        return;
    }
    std::uint64_t pred = 0;
    if (findUnsigned(line, "\"pred\":", pred)) {
        slot->pred = static_cast<std::int64_t>(pred);
    } else if (line.find("\"error\":\"overloaded\"") !=
               std::string_view::npos) {
        slot->rejected = true;
    } else {
        slot->error = true;
    }
    slot->recvNs = t;
    slot->state.store(kPublished, std::memory_order_release);
    answered_.fetch_add(1, std::memory_order_release);
}

void
OpenLoopClient::send(int fd, std::uint64_t id, const std::string &tail)
{
    char head[40];
    const int headLen = std::snprintf(head, sizeof head, "{\"id\":%llu",
                                      static_cast<unsigned long long>(id));
    iovec iov[2] = {{head, static_cast<std::size_t>(headLen)},
                    {const_cast<char *>(tail.data()), tail.size()}};
    writeAll(fd, iov, 2);
}

PhaseResult
OpenLoopClient::runPhase(double rps, double seconds, std::mt19937_64 &rng)
{
    constexpr std::int64_t kDrainNs = 5'000'000'000;
    const std::size_t index = phaseCount_.load(std::memory_order_relaxed);
    if (index >= kMaxPhases)
        throw std::logic_error("too many open-loop phases");

    // The whole schedule is drawn before the first send.
    std::exponential_distribution<double> gap(rps);
    std::uniform_int_distribution<std::size_t> pickRow(0, tails_.size() - 1);
    std::vector<double> offsets;
    std::vector<std::uint32_t> rows;
    for (double t = gap(rng); t < seconds; t += gap(rng)) {
        offsets.push_back(t);
        rows.push_back(static_cast<std::uint32_t>(pickRow(rng)));
    }

    Phase &phase = phases_[index];
    phase.base = nextId_;
    phase.count = offsets.size();
    phase.slots = std::make_unique<Slot[]>(phase.count);
    nextId_ += phase.count;
    phaseCount_.store(index + 1, std::memory_order_release);

    const std::uint64_t answeredBefore =
        answered_.load(std::memory_order_acquire);
    const std::uint64_t strayBefore = stray_.load(std::memory_order_relaxed);
    PhaseResult r;
    r.selfLagUs.reserve(phase.count);
    const std::int64_t start = nowNs() + 1'000'000;
    std::int64_t sendEnd = start;
    for (std::size_t i = 0; i < phase.count; ++i) {
        Slot &slot = phase.slots[i];
        slot.row = rows[i];
        slot.dueNs = start + static_cast<std::int64_t>(offsets[i] * 1e9);
        sleepUntilNs(slot.dueNs);
        slot.sendNs = nowNs();
        r.selfLagUs.push_back(
            static_cast<double>(slot.sendNs - std::max(slot.dueNs, sendEnd)) /
            1e3);
        send(fds_[i % fds_.size()], phase.base + i, tails_[rows[i]]);
        sendEnd = nowNs();
    }
    const std::int64_t scheduleEnd =
        start + static_cast<std::int64_t>(seconds * 1e9);
    const std::int64_t drainDeadline = std::max(scheduleEnd, nowNs()) + kDrainNs;
    while (answered_.load(std::memory_order_acquire) - answeredBefore <
               phase.count &&
           nowNs() < drainDeadline)
        std::this_thread::sleep_for(std::chrono::microseconds(200));

    r.sent = phase.count;
    r.failed = stray_.load(std::memory_order_relaxed) - strayBefore;
    const double inf = std::numeric_limits<double>::infinity();
    const std::int64_t early =
        start + static_cast<std::int64_t>(seconds * 0.25e9);
    std::size_t dueEarly = 0;
    std::size_t answeredEarly = 0;
    std::size_t answeredEnd = 0;
    std::int64_t lastSend = start;
    for (std::size_t i = 0; i < phase.count; ++i) {
        const Slot &slot = phase.slots[i];
        r.lateUs.push_back(static_cast<double>(slot.sendNs - slot.dueNs) /
                           1e3);
        lastSend = std::max(lastSend, slot.sendNs);
        dueEarly += slot.dueNs <= early;
        if (slot.state.load(std::memory_order_acquire) != kPublished) {
            ++r.failed;
            r.latencyUs.push_back(inf);
            continue;
        }
        answeredEarly += slot.recvNs <= early;
        answeredEnd += slot.recvNs <= scheduleEnd;
        if (slot.rejected) {
            ++r.rejected;
            r.latencyUs.push_back(inf);
        } else if (slot.error || slot.pred < 0 ||
                   static_cast<std::size_t>(slot.pred) !=
                       expected_[slot.row]) {
            ++r.failed;
            r.latencyUs.push_back(inf);
        } else {
            r.latencyUs.push_back(
                static_cast<double>(slot.recvNs - slot.dueNs) / 1e3);
        }
    }
    r.backlogEarly = dueEarly - std::min(dueEarly, answeredEarly);
    r.backlogEnd = phase.count - std::min(phase.count, answeredEnd);
    if (phase.count > 0)
        r.achievedRps = static_cast<double>(phase.count) /
                        (static_cast<double>(lastSend - start) / 1e9);
    return r;
}

} // namespace perfbench
