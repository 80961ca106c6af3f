// Thin POSIX socket helpers shared by the epoll server, the blocking
// client, and the fault-injection tests. All sockets are loopback TCP —
// the "network" in this reproduction is the kernel's loopback path, which
// is enough to move request latency measurement off the server's own
// synchronization (paper §4.2 measures from a separate client box).
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <sys/types.h>

namespace mgc::net {

// RAII file descriptor. Movable, not copyable.
class UniqueFd {
 public:
  UniqueFd() = default;
  explicit UniqueFd(int fd) : fd_(fd) {}
  ~UniqueFd() { reset(); }
  UniqueFd(UniqueFd&& o) noexcept : fd_(o.fd_) { o.fd_ = -1; }
  UniqueFd& operator=(UniqueFd&& o) noexcept {
    if (this != &o) {
      reset();
      fd_ = o.fd_;
      o.fd_ = -1;
    }
    return *this;
  }
  UniqueFd(const UniqueFd&) = delete;
  UniqueFd& operator=(const UniqueFd&) = delete;

  int get() const { return fd_; }
  bool valid() const { return fd_ >= 0; }
  int release() {
    const int fd = fd_;
    fd_ = -1;
    return fd;
  }
  void reset();  // closes if valid

 private:
  int fd_ = -1;
};

// Creates a non-blocking listening socket bound to 127.0.0.1:port
// (port 0 = kernel-assigned). On success *bound_port holds the actual
// port. With reuse_port the socket is bound with SO_REUSEPORT so several
// event loops can each own a listener on the same port and let the kernel
// spread incoming connections across them (the multi-loop front-end; the
// target is Linux, where SO_REUSEPORT is always available). Returns an
// invalid fd on failure.
UniqueFd listen_loopback(std::uint16_t port, int backlog,
                         std::uint16_t* bound_port, bool reuse_port = false);

// Blocking connect to host:port with TCP_NODELAY. Invalid fd on failure.
UniqueFd connect_tcp(const std::string& host, std::uint16_t port);

bool set_nonblocking(int fd);
bool set_nodelay(int fd);

// Applies SO_RCVTIMEO and SO_SNDTIMEO so blocking send/recv fail with
// EAGAIN after timeout_ms instead of hanging forever (a stalled or
// GC-wedged server must surface as a client-side transport failure the
// retry policy can act on). timeout_ms <= 0 is a no-op.
bool set_timeouts(int fd, int timeout_ms);

// Blocking full-buffer send (MSG_NOSIGNAL, retries on EINTR / short
// writes). False on any hard error.
bool send_all(int fd, const void* data, std::size_t len);

// One blocking recv; returns bytes read, 0 on orderly EOF, -1 on error.
ssize_t recv_some(int fd, void* buf, std::size_t cap);

}  // namespace mgc::net
