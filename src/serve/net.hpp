/**
 * @file
 * Thin POSIX TCP wrappers for the serving layer.
 *
 * Just enough socket plumbing for lookhd_serve / lookhd_loadgen and
 * the in-process tests: an owning listener bound to 127.0.0.1 (port
 * 0 = kernel-assigned, read back via port()), an owning connected
 * stream with buffered, length-bounded line reads, and
 * sendAll/shutdown helpers. Errors surface as NetError
 * (std::runtime_error) carrying errno text. SIGPIPE is never raised
 * (MSG_NOSIGNAL); a peer hangup is a normal short read / failed
 * send, which the server treats as the client going away, not a
 * fault.
 */

#ifndef LOOKHD_SERVE_NET_HPP
#define LOOKHD_SERVE_NET_HPP

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <string>

namespace lookhd::serve {

/** Socket-layer failure with errno context. */
class NetError : public std::runtime_error
{
  public:
    using std::runtime_error::runtime_error;
};

/** A line longer than TcpStream::kMaxLineBytes: the peer is refused. */
class LineTooLong : public NetError
{
  public:
    using NetError::NetError;
};

/** Connected TCP stream with a line-read buffer. Move-only. */
class TcpStream
{
  public:
    /** Longest partial line readLine() buffers before refusing it. */
    static constexpr std::size_t kMaxLineBytes = std::size_t{1} << 20;

    TcpStream() = default;
    /** Takes ownership of a connected @p fd. */
    explicit TcpStream(int fd) : fd_(fd) {}
    ~TcpStream();

    TcpStream(TcpStream &&other) noexcept;
    TcpStream &operator=(TcpStream &&other) noexcept;
    TcpStream(const TcpStream &) = delete;
    TcpStream &operator=(const TcpStream &) = delete;

    /** Connect to @p host:@p port. @throws NetError. */
    static TcpStream connect(const std::string &host,
                             std::uint16_t port);

    bool valid() const { return fd_ >= 0; }
    int fd() const { return fd_; }

    /**
     * Read up to and including the next '\n' (which is stripped,
     * along with a preceding '\r'). @return false on clean EOF with
     * nothing buffered. @throws LineTooLong once more than
     * kMaxLineBytes arrive without a '\n'; NetError on socket errors,
     * including a passed read deadline (setReadDeadline).
     * A final unterminated line before EOF is returned as-is.
     */
    bool readLine(std::string &line);

    /**
     * Give every later readLine() one deadline, @p ms from now: once
     * it has passed, readLine() throws NetError even while bytes keep
     * arriving.
     */
    void setReadDeadline(int ms);

    /** Write the whole buffer. @return false if the peer went away. */
    bool sendAll(std::string_view data);

    /** Half/full close to unblock a reader; fd stays owned. */
    void shutdownBoth();

    /**
     * Close only the read side: unblocks readLine() with EOF while
     * still allowing queued responses to be written (the graceful
     * drain path).
     */
    void shutdownRead();

    void close();

  private:
    /** Wait for input until the read deadline, if one is set.
     * @return false once it has passed. */
    bool waitReadable() const;

    int fd_ = -1;
    std::string buffer_;
    std::chrono::steady_clock::time_point deadline_ =
        std::chrono::steady_clock::time_point::max();
};

/** Listening TCP socket on 127.0.0.1. Move-only. */
class TcpListener
{
  public:
    TcpListener() = default;
    ~TcpListener();

    TcpListener(TcpListener &&other) noexcept;
    TcpListener &operator=(TcpListener &&other) noexcept;
    TcpListener(const TcpListener &) = delete;
    TcpListener &operator=(const TcpListener &) = delete;

    /**
     * Bind and listen on 127.0.0.1:@p port (0 = ephemeral; the
     * chosen port is read back via port()). @throws NetError.
     */
    static TcpListener bind(std::uint16_t port);

    bool valid() const { return fd_ >= 0; }
    std::uint16_t port() const { return port_; }

    /**
     * Accept one connection. Blocks up to @p timeoutMs (-1 =
     * forever). @return an invalid stream on timeout or on listener
     * close/shutdown. Running out of descriptors or memory
     * (EMFILE/ENFILE/ENOBUFS/ENOMEM) counts as a timeout after
     * waiting @p timeoutMs; a blocking call pauses briefly and
     * retries. @throws NetError on unexpected failures.
     */
    TcpStream accept(int timeoutMs = -1);

    /** Unblock pending accept()s and release the port. */
    void close();

  private:
    int fd_ = -1;
    std::uint16_t port_ = 0;
};

} // namespace lookhd::serve

#endif // LOOKHD_SERVE_NET_HPP
