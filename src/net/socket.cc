#include "socket.hh"

#include <cerrno>
#include <chrono>
#include <climits>
#include <cstdint>
#include <cstring>

#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include "util/determinism.hh"

namespace react {
namespace net {

namespace {

[[noreturn]] void
throwErrno(const std::string &what)
{
    throw SocketError(what + ": " + std::strerror(errno));
}

/** Monotonic milliseconds for timeout deadlines.  Every retry loop here
 *  re-derives its remaining budget from an absolute deadline instead of
 *  re-arming the full timeout: under a fast interval timer (the SIGTERM
 *  drain path, the itimer hammer test) poll() returns EINTR every
 *  millisecond, and a naive "retry with the original timeout" never
 *  expires. */
int64_t
monotonicMs()
{
    REACT_NONDET_OK("monotonic clock bounds socket timeouts only, never result bytes");
    const auto now = std::chrono::steady_clock::now();
    return std::chrono::duration_cast<std::chrono::milliseconds>(
               now.time_since_epoch())
        .count();
}

/** Absolute deadline for @p timeout_ms from now; negative = no deadline. */
int64_t
deadlineFrom(int timeout_ms)
{
    if (timeout_ms < 0)
        return -1;
    return monotonicMs() + timeout_ms;
}

/** Remaining poll() budget: -1 for no deadline, else clamped to >= 0. */
int
remainingMs(int64_t deadline_ms)
{
    if (deadline_ms < 0)
        return -1;
    const int64_t left = deadline_ms - monotonicMs();
    if (left <= 0)
        return 0;
    return left > INT_MAX ? INT_MAX : static_cast<int>(left);
}

sockaddr_un
unixAddress(const std::string &path)
{
    sockaddr_un addr = {};
    addr.sun_family = AF_UNIX;
    if (path.size() >= sizeof(addr.sun_path))
        throw SocketError("socket path too long: " + path);
    std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
    return addr;
}

} // namespace

Socket &
Socket::operator=(Socket &&other) noexcept
{
    if (this != &other) {
        close();
        fd_ = other.fd_;
        other.fd_ = -1;
    }
    return *this;
}

void
Socket::close()
{
    if (fd_ >= 0) {
        ::close(fd_);
        fd_ = -1;
    }
}

int
Socket::release()
{
    const int fd = fd_;
    fd_ = -1;
    return fd;
}

Socket
listenUnix(const std::string &path, int backlog)
{
    Socket sock(::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0));
    if (!sock.valid())
        throwErrno("socket");
    const sockaddr_un addr = unixAddress(path);
    ::unlink(path.c_str());
    if (::bind(sock.fd(), reinterpret_cast<const sockaddr *>(&addr),
               sizeof(addr)) != 0)
        throwErrno("bind '" + path + "'");
    if (::listen(sock.fd(), backlog) != 0)
        throwErrno("listen '" + path + "'");
    return sock;
}

Socket
connectUnix(const std::string &path, int timeout_ms)
{
    Socket sock(::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0));
    if (!sock.valid())
        throwErrno("socket");
    const sockaddr_un addr = unixAddress(path);
    // AF_UNIX connect either succeeds immediately or fails with the
    // backlog full / path missing; a poll-based wait still bounds the
    // backlog-full case on a nonblocking socket.  Keep it simple:
    // blocking connect, which cannot hang on a local socket, then poll
    // discipline for all subsequent I/O.
    (void)timeout_ms;
    for (;;) {
        if (::connect(sock.fd(), reinterpret_cast<const sockaddr *>(&addr),
                      sizeof(addr)) == 0)
            return sock;
        if (errno == EINTR)
            continue;
        throwErrno("connect '" + path + "'");
    }
}

Socket
acceptOn(int listen_fd)
{
    const int fd =
        ::accept4(listen_fd, nullptr, nullptr, SOCK_CLOEXEC);
    if (fd < 0) {
        if (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR ||
            errno == ECONNABORTED)
            return Socket();
        throwErrno("accept");
    }
    return Socket(fd);
}

bool
waitReadable(int fd, int timeout_ms)
{
    const int64_t deadline = deadlineFrom(timeout_ms);
    pollfd pfd = {};
    pfd.fd = fd;
    pfd.events = POLLIN;
    for (;;) {
        const int rc = ::poll(&pfd, 1, remainingMs(deadline));
        if (rc < 0) {
            if (errno == EINTR)
                continue;
            throwErrno("poll");
        }
        if (rc > 0)
            return true;
        if (remainingMs(deadline) == 0)
            return false;
    }
}

void
sendAll(int fd, const uint8_t *data, size_t size, int timeout_ms)
{
    const int64_t deadline = deadlineFrom(timeout_ms);
    size_t sent = 0;
    while (sent < size) {
        const ssize_t n =
            ::send(fd, data + sent, size - sent, MSG_NOSIGNAL);
        if (n > 0) {
            sent += static_cast<size_t>(n);
            continue;
        }
        if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
            pollfd pfd = {};
            pfd.fd = fd;
            pfd.events = POLLOUT;
            const int rc = ::poll(&pfd, 1, remainingMs(deadline));
            if (rc == 0)
                throw SocketError("send timed out");
            if (rc < 0 && errno != EINTR)
                throwErrno("poll(POLLOUT)");
            continue;
        }
        if (n < 0 && errno == EINTR)
            continue;
        throwErrno("send");
    }
}

size_t
recvSome(int fd, uint8_t *buf, size_t cap, int timeout_ms)
{
    if (!waitReadable(fd, timeout_ms))
        throw SocketError("recv timed out");
    for (;;) {
        const ssize_t n = ::recv(fd, buf, cap, 0);
        if (n >= 0)
            return static_cast<size_t>(n);
        if (errno == EINTR)
            continue;
        throwErrno("recv");
    }
}

} // namespace net
} // namespace react
