#ifndef LLMDM_NET_EVENT_LOOP_H_
#define LLMDM_NET_EVENT_LOOP_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <unordered_map>

#include "common/result.h"
#include "common/status.h"

namespace llmdm::net {

/// A minimal epoll reactor. Every handler runs on the thread inside Poll(),
/// the loop thread; Add(), Remove() and Poll() are called only there, since
/// they touch the handler table. Two entry points are safe from any thread:
/// Modify(), which only calls epoll_ctl (net::NetServer's serve workers use
/// it to ask for EPOLLOUT when a write leaves bytes behind), and Wakeup(),
/// backed by an eventfd, which makes a blocked Poll() return.
class EventLoop {
 public:
  /// `events` is the epoll event bitset (EPOLLIN/EPOLLOUT/...) active when
  /// the handler fired.
  using IoHandler = std::function<void(uint32_t events)>;

  EventLoop();
  ~EventLoop();

  EventLoop(const EventLoop&) = delete;
  EventLoop& operator=(const EventLoop&) = delete;

  common::Status status() const { return init_status_; }

  /// Registers `fd` for `events`; the handler fires on every readiness.
  common::Status Add(int fd, uint32_t events, IoHandler handler);
  /// Changes the interest set of a registered fd. Callable from any thread:
  /// it only calls epoll_ctl. The caller keeps `fd` open for the call.
  common::Status Modify(int fd, uint32_t events);
  /// Unregisters; the fd itself is not closed (the owner closes it).
  void Remove(int fd);

  /// Thread-safe: makes the current (or next) Poll() return promptly.
  /// Coalesces: N wakeups may end one Poll().
  void Wakeup();

  /// One epoll_wait + dispatch pass. `timeout_ms` < 0 blocks until an event
  /// or Wakeup(). Returns the number of fds dispatched (0 on timeout).
  int Poll(int timeout_ms);

  size_t registered_fds() const { return handlers_.size(); }

 private:
  int epoll_fd_ = -1;
  int wake_fd_ = -1;  // eventfd, registered with epoll like any other fd
  common::Status init_status_;
  /// shared_ptr so a handler that Remove()s its own fd (or another fd whose
  /// event is pending in the same batch) never frees a callback mid-call.
  std::unordered_map<int, std::shared_ptr<IoHandler>> handlers_;
};

/// A non-blocking listening socket. Binds to `address:port` (port 0 picks an
/// ephemeral port, readable via port() after Open) and hands accepted,
/// already-non-blocking connection fds to the callback.
class Listener {
 public:
  Listener() = default;
  ~Listener();

  Listener(const Listener&) = delete;
  Listener& operator=(const Listener&) = delete;

  common::Status Open(const std::string& address, uint16_t port);
  /// Accepts every pending connection (edge-agnostic: loops until EAGAIN).
  void AcceptAll(const std::function<void(int fd)>& on_accept);
  void Close();

  int fd() const { return fd_; }
  uint16_t port() const { return port_; }

 private:
  int fd_ = -1;
  uint16_t port_ = 0;
};

/// Sets O_NONBLOCK on `fd`.
common::Status SetNonBlocking(int fd);

}  // namespace llmdm::net

#endif  // LLMDM_NET_EVENT_LOOP_H_
