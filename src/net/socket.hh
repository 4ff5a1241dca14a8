/**
 * @file
 * Minimal AF_UNIX stream-socket wrapper with timeouts.
 *
 * reactd serves on a filesystem socket path: no port allocation races
 * in parallel CI, no network flakiness in the failure-injection tests
 * (every injected fault is *ours*), and the OS gives exact byte-stream
 * semantics -- which is precisely what the framing layer is hardened
 * against.
 *
 * All I/O is poll()-based with explicit millisecond deadlines carried
 * as *absolute* monotonic deadlines across EINTR restarts -- a retry
 * that re-arms the full timeout never expires under a fast interval
 * timer (see the itimer hammer test).  Nothing here blocks forever.
 * SIGPIPE is avoided with MSG_NOSIGNAL rather than a process-wide
 * handler.
 */

#ifndef REACT_NET_SOCKET_HH
#define REACT_NET_SOCKET_HH

#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <string>

namespace react {
namespace net {

/** Raised on socket-layer failures (connect/accept/send/recv). */
class SocketError : public std::runtime_error
{
  public:
    explicit SocketError(const std::string &what_arg)
        : std::runtime_error(what_arg)
    {
    }
};

/** Move-only owner of a file descriptor. */
class Socket
{
  public:
    Socket() = default;
    explicit Socket(int fd_in) : fd_(fd_in) {}
    ~Socket() { close(); }

    Socket(Socket &&other) noexcept : fd_(other.fd_) { other.fd_ = -1; }
    Socket &operator=(Socket &&other) noexcept;
    Socket(const Socket &) = delete;
    Socket &operator=(const Socket &) = delete;

    int fd() const { return fd_; }
    bool valid() const { return fd_ >= 0; }
    void close();
    /** Give up ownership without closing. */
    int release();

  private:
    int fd_ = -1;
};

/**
 * Create, bind, and listen on an AF_UNIX stream socket.  An existing
 * socket file at @p path is unlinked first (stale from a killed
 * server).  @throws SocketError.
 */
Socket listenUnix(const std::string &path, int backlog = 16);

/**
 * Connect to an AF_UNIX stream socket.
 * @throws SocketError on failure or timeout.
 */
Socket connectUnix(const std::string &path, int timeout_ms);

/**
 * Accept one pending connection (the caller already established
 * readability via poll).  @return an invalid Socket when the accept
 * would block or was interrupted.
 */
Socket acceptOn(int listen_fd);

/**
 * Wait until @p fd is readable.
 * @return true when readable; false on timeout.
 */
bool waitReadable(int fd, int timeout_ms);

/**
 * Write the whole buffer, polling for writability as needed.
 * @throws SocketError on peer reset or timeout.
 */
void sendAll(int fd, const uint8_t *data, size_t size, int timeout_ms);

/**
 * Read up to @p cap bytes once the fd is readable.
 * @return bytes read; 0 on orderly peer shutdown (EOF).
 * @throws SocketError on error or timeout.
 */
size_t recvSome(int fd, uint8_t *buf, size_t cap, int timeout_ms);

} // namespace net
} // namespace react

#endif // REACT_NET_SOCKET_HH
