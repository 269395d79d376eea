#include "net/event_loop.h"

#include <arpa/inet.h>
#include <errno.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <string.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <vector>

#include "common/string_util.h"

namespace llmdm::net {

namespace {
common::Status Errno(const char* what) {
  return common::Status::Internal(
      common::StrFormat("%s: %s", what, strerror(errno)));
}
}  // namespace

common::Status SetNonBlocking(int fd) {
  int flags = fcntl(fd, F_GETFL, 0);
  if (flags < 0) return Errno("fcntl(F_GETFL)");
  if (fcntl(fd, F_SETFL, flags | O_NONBLOCK) < 0) {
    return Errno("fcntl(F_SETFL, O_NONBLOCK)");
  }
  return common::Status::Ok();
}

EventLoop::EventLoop() {
  epoll_fd_ = epoll_create1(EPOLL_CLOEXEC);
  if (epoll_fd_ < 0) {
    init_status_ = Errno("epoll_create1");
    return;
  }
  wake_fd_ = eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK);
  if (wake_fd_ < 0) {
    init_status_ = Errno("eventfd");
    return;
  }
  // The wakeup channel is just another readable fd: drain the counter so
  // level-triggered epoll does not spin.
  init_status_ = Add(wake_fd_, EPOLLIN, [this](uint32_t) {
    uint64_t n = 0;
    while (read(wake_fd_, &n, sizeof(n)) > 0) {
    }
  });
}

EventLoop::~EventLoop() {
  if (wake_fd_ >= 0) close(wake_fd_);
  if (epoll_fd_ >= 0) close(epoll_fd_);
}

common::Status EventLoop::Add(int fd, uint32_t events, IoHandler handler) {
  struct epoll_event ev;
  memset(&ev, 0, sizeof(ev));
  ev.events = events;
  ev.data.fd = fd;
  if (epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &ev) < 0) {
    return Errno("epoll_ctl(ADD)");
  }
  handlers_[fd] = std::make_shared<IoHandler>(std::move(handler));
  return common::Status::Ok();
}

common::Status EventLoop::Modify(int fd, uint32_t events) {
  struct epoll_event ev;
  memset(&ev, 0, sizeof(ev));
  ev.events = events;
  ev.data.fd = fd;
  if (epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, fd, &ev) < 0) {
    return Errno("epoll_ctl(MOD)");
  }
  return common::Status::Ok();
}

void EventLoop::Remove(int fd) {
  epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, fd, nullptr);
  handlers_.erase(fd);
}

void EventLoop::Wakeup() {
  uint64_t one = 1;
  // A full eventfd counter (EAGAIN) already guarantees a pending wakeup.
  ssize_t ignored = write(wake_fd_, &one, sizeof(one));
  (void)ignored;
}

int EventLoop::Poll(int timeout_ms) {
  constexpr int kMaxEvents = 64;
  struct epoll_event events[kMaxEvents];
  int n = epoll_wait(epoll_fd_, events, kMaxEvents, timeout_ms);
  if (n <= 0) return 0;  // timeout, or EINTR — caller just polls again
  for (int i = 0; i < n; ++i) {
    auto it = handlers_.find(events[i].data.fd);
    if (it == handlers_.end()) continue;  // removed by an earlier handler
    std::shared_ptr<IoHandler> handler = it->second;
    (*handler)(events[i].events);
  }
  return n;
}

Listener::~Listener() { Close(); }

common::Status Listener::Open(const std::string& address, uint16_t port) {
  fd_ = socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd_ < 0) return Errno("socket");
  int on = 1;
  setsockopt(fd_, SOL_SOCKET, SO_REUSEADDR, &on, sizeof(on));
  struct sockaddr_in addr;
  memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (inet_pton(AF_INET, address.c_str(), &addr.sin_addr) != 1) {
    Close();
    return common::Status::InvalidArgument("bad bind address: " + address);
  }
  if (bind(fd_, reinterpret_cast<struct sockaddr*>(&addr), sizeof(addr)) < 0) {
    common::Status s = Errno("bind");
    Close();
    return s;
  }
  if (listen(fd_, SOMAXCONN) < 0) {
    common::Status s = Errno("listen");
    Close();
    return s;
  }
  LLMDM_RETURN_IF_ERROR(SetNonBlocking(fd_));
  socklen_t len = sizeof(addr);
  if (getsockname(fd_, reinterpret_cast<struct sockaddr*>(&addr), &len) < 0) {
    common::Status s = Errno("getsockname");
    Close();
    return s;
  }
  port_ = ntohs(addr.sin_port);
  return common::Status::Ok();
}

void Listener::AcceptAll(const std::function<void(int fd)>& on_accept) {
  for (;;) {
    int conn = accept4(fd_, nullptr, nullptr, SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (conn < 0) return;  // EAGAIN (drained) or transient accept failure
    int on = 1;
    setsockopt(conn, IPPROTO_TCP, TCP_NODELAY, &on, sizeof(on));
    on_accept(conn);
  }
}

void Listener::Close() {
  if (fd_ >= 0) {
    close(fd_);
    fd_ = -1;
  }
}

}  // namespace llmdm::net
