#include "serve/net.hpp"

#include <arpa/inet.h>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <thread>
#include <unistd.h>
#include <utility>

namespace lookhd::serve {

namespace {

// strerror_r's two variants dispatch by return type: XSI returns int
// (0 = message in buf), GNU returns the message pointer (buf or a
// static string). The overload pair absorbs whichever the libc
// provides, since g++ defines _GNU_SOURCE and selects the GNU one.
[[maybe_unused]] const char *
strerrorResult(int rc, const char *buf)
{
    return rc == 0 ? buf : "unknown error";
}

[[maybe_unused]] const char *
strerrorResult(const char *message, const char * /*buf*/)
{
    return message;
}

/** Pause before a blocking accept() retries after running out of
 * descriptors or memory. */
constexpr int kAcceptRetryMs = 100;

[[noreturn]] void
throwErrno(const std::string &what)
{
    // strerror_r, not strerror: errors can surface on any of the
    // reader/worker/acceptor threads concurrently, and strerror's
    // shared static buffer is exactly what concurrency-mt-unsafe
    // flags.
    char buf[256];
    buf[0] = '\0';
    throw NetError(
        what + ": " +
        strerrorResult(strerror_r(errno, buf, sizeof(buf)), buf));
}

} // namespace

// --- TcpStream -------------------------------------------------------

TcpStream::~TcpStream()
{
    close();
}

TcpStream::TcpStream(TcpStream &&other) noexcept
    : fd_(std::exchange(other.fd_, -1)),
      buffer_(std::move(other.buffer_)), deadline_(other.deadline_)
{
}

TcpStream &
TcpStream::operator=(TcpStream &&other) noexcept
{
    if (this != &other) {
        close();
        fd_ = std::exchange(other.fd_, -1);
        buffer_ = std::move(other.buffer_);
        deadline_ = other.deadline_;
    }
    return *this;
}

TcpStream
TcpStream::connect(const std::string &host, std::uint16_t port)
{
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0)
        throwErrno("socket");
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
        ::close(fd);
        throw NetError("bad address: " + host);
    }
    if (::connect(fd, reinterpret_cast<sockaddr *>(&addr),
                  sizeof(addr)) != 0) {
        const int saved = errno;
        ::close(fd);
        errno = saved;
        throwErrno("connect " + host + ":" + std::to_string(port));
    }
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    return TcpStream(fd);
}

bool
TcpStream::readLine(std::string &line)
{
    // buffer_[0, scanned) holds no '\n', so each byte is searched once.
    std::size_t scanned = 0;
    while (true) {
        const std::size_t newline = buffer_.find('\n', scanned);
        if (newline != std::string::npos) {
            line.assign(buffer_, 0, newline);
            if (!line.empty() && line.back() == '\r')
                line.pop_back();
            buffer_.erase(0, newline + 1);
            return true;
        }
        scanned = buffer_.size();
        if (scanned > kMaxLineBytes)
            throw LineTooLong("line longer than " +
                              std::to_string(kMaxLineBytes) + " bytes");
        if (!waitReadable())
            throw NetError("read deadline passed");
        char chunk[4096];
        const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
        if (n > 0) {
            buffer_.append(chunk, static_cast<std::size_t>(n));
            continue;
        }
        if (n == 0) {
            if (buffer_.empty())
                return false;
            line = std::move(buffer_);
            buffer_.clear();
            return true;
        }
        if (errno == EINTR)
            continue;
        if (errno == ECONNRESET || errno == EBADF)
            return false; // peer (or our shutdown) tore it down
        throwErrno("recv");
    }
}

bool
TcpStream::waitReadable() const
{
    using Clock = std::chrono::steady_clock;
    if (deadline_ == Clock::time_point::max())
        return true;
    while (true) {
        const auto left = std::chrono::ceil<std::chrono::milliseconds>(
            deadline_ - Clock::now());
        if (left.count() <= 0)
            return false;
        pollfd pfd{fd_, POLLIN, 0};
        const int ready =
            ::poll(&pfd, 1, static_cast<int>(left.count()));
        if (ready > 0)
            return true;
        if (ready == 0)
            return false;
        if (errno != EINTR)
            throwErrno("poll");
    }
}

void
TcpStream::setReadDeadline(int ms)
{
    deadline_ = std::chrono::steady_clock::now() +
                std::chrono::milliseconds(ms);
}

bool
TcpStream::sendAll(std::string_view data)
{
    std::size_t sent = 0;
    while (sent < data.size()) {
        const ssize_t n =
            ::send(fd_, data.data() + sent, data.size() - sent,
                   MSG_NOSIGNAL);
        if (n >= 0) {
            sent += static_cast<std::size_t>(n);
            continue;
        }
        if (errno == EINTR)
            continue;
        if (errno == EPIPE || errno == ECONNRESET || errno == EBADF)
            return false;
        throwErrno("send");
    }
    return true;
}

void
TcpStream::shutdownBoth()
{
    if (fd_ >= 0)
        ::shutdown(fd_, SHUT_RDWR);
}

void
TcpStream::shutdownRead()
{
    if (fd_ >= 0)
        ::shutdown(fd_, SHUT_RD);
}

void
TcpStream::close()
{
    if (fd_ >= 0) {
        ::close(fd_);
        fd_ = -1;
    }
    buffer_.clear();
}

// --- TcpListener -----------------------------------------------------

TcpListener::~TcpListener()
{
    close();
}

TcpListener::TcpListener(TcpListener &&other) noexcept
    : fd_(std::exchange(other.fd_, -1)),
      port_(std::exchange(other.port_, 0))
{
}

TcpListener &
TcpListener::operator=(TcpListener &&other) noexcept
{
    if (this != &other) {
        close();
        fd_ = std::exchange(other.fd_, -1);
        port_ = std::exchange(other.port_, 0);
    }
    return *this;
}

TcpListener
TcpListener::bind(std::uint16_t port)
{
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0)
        throwErrno("socket");
    const int one = 1;
    ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    if (::bind(fd, reinterpret_cast<sockaddr *>(&addr),
               sizeof(addr)) != 0 ||
        ::listen(fd, 64) != 0) {
        const int saved = errno;
        ::close(fd);
        errno = saved;
        throwErrno("bind 127.0.0.1:" + std::to_string(port));
    }
    socklen_t len = sizeof(addr);
    if (::getsockname(fd, reinterpret_cast<sockaddr *>(&addr),
                      &len) != 0) {
        const int saved = errno;
        ::close(fd);
        errno = saved;
        throwErrno("getsockname");
    }
    TcpListener listener;
    listener.fd_ = fd;
    listener.port_ = ntohs(addr.sin_port);
    return listener;
}

TcpStream
TcpListener::accept(int timeoutMs)
{
    while (true) {
        if (fd_ < 0)
            return TcpStream();
        pollfd pfd{fd_, POLLIN, 0};
        const int ready = ::poll(&pfd, 1, timeoutMs);
        if (ready == 0)
            return TcpStream(); // timeout
        if (ready < 0) {
            if (errno == EINTR)
                continue;
            throwErrno("poll");
        }
        const int conn = ::accept(fd_, nullptr, nullptr);
        if (conn >= 0) {
            const int one = 1;
            ::setsockopt(conn, IPPROTO_TCP, TCP_NODELAY, &one,
                         sizeof(one));
            return TcpStream(conn);
        }
        if (errno == EINTR || errno == ECONNABORTED)
            continue;
        if (errno == EBADF || errno == EINVAL)
            return TcpStream(); // listener closed under us
        if (errno == EMFILE || errno == ENFILE || errno == ENOBUFS ||
            errno == ENOMEM) {
            // The connection stays queued, so poll() would report it
            // again at once: wait as if poll had timed out instead of
            // spinning until a descriptor frees up.
            std::this_thread::sleep_for(std::chrono::milliseconds(
                timeoutMs < 0 ? kAcceptRetryMs : timeoutMs));
            if (timeoutMs < 0)
                continue;
            return TcpStream();
        }
        throwErrno("accept");
    }
}

void
TcpListener::close()
{
    if (fd_ >= 0) {
        // shutdown() first so a thread blocked in poll/accept wakes
        // with an error instead of waiting out its timeout.
        ::shutdown(fd_, SHUT_RDWR);
        ::close(fd_);
        fd_ = -1;
        port_ = 0;
    }
}

} // namespace lookhd::serve
