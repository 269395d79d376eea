#include "net/server.h"

#include <errno.h>
#include <string.h>
#include <sys/epoll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <vector>

namespace llmdm::net {

namespace {

/// Frame-size cap of each connection's decoder: the memory one connection
/// may buffer for a single frame.
constexpr size_t kMaxFrameBytes = 16u << 20;

int64_t NowUs() {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Wall-clock service bounds (µs): the socket path is measured in real
/// microseconds, unlike the virtual-ms ladders everywhere else.
std::vector<double> RequestWallBoundsUs() {
  return {50,    100,   250,    500,    1000,   2500,    5000,
          10000, 25000, 50000, 100000, 250000, 1000000};
}

}  // namespace

NetServer::NetServer(serve::Server* backend, const Options& options)
    : backend_(backend), options_(options) {
  if (options_.registry != nullptr) {
    registry_ = options_.registry;
  } else {
    owned_registry_ = std::make_unique<obs::Registry>();
    registry_ = owned_registry_.get();
  }
  metrics_.connections_accepted =
      registry_->GetCounter("llmdm_net_connections_accepted_total");
  metrics_.connections_closed =
      registry_->GetCounter("llmdm_net_connections_closed_total");
  metrics_.frames_rx = registry_->GetCounter("llmdm_net_frames_rx_total");
  metrics_.frames_tx = registry_->GetCounter("llmdm_net_frames_tx_total");
  metrics_.bytes_rx = registry_->GetCounter("llmdm_net_bytes_rx_total");
  metrics_.bytes_tx = registry_->GetCounter("llmdm_net_bytes_tx_total");
  metrics_.requests_rx = registry_->GetCounter("llmdm_net_requests_rx_total");
  metrics_.responses_tx = registry_->GetCounter("llmdm_net_responses_tx_total");
  metrics_.errors_tx = registry_->GetCounter("llmdm_net_errors_tx_total");
  metrics_.shed_tx = registry_->GetCounter("llmdm_net_shed_tx_total");
  metrics_.protocol_errors =
      registry_->GetCounter("llmdm_net_protocol_errors_total");
  metrics_.responses_dropped =
      registry_->GetCounter("llmdm_net_responses_dropped_total");
  metrics_.backpressure_pauses =
      registry_->GetCounter("llmdm_net_backpressure_pauses_total");
  metrics_.drain_forced_closes =
      registry_->GetCounter("llmdm_net_drain_forced_closes_total");
  metrics_.open_connections =
      registry_->GetGauge("llmdm_net_open_connections");
  metrics_.inflight_requests =
      registry_->GetGauge("llmdm_net_inflight_requests");
  metrics_.request_wall_us = registry_->GetHistogram(
      "llmdm_net_request_wall_us", {}, RequestWallBoundsUs());
}

NetServer::~NetServer() { Shutdown(); }

common::Status NetServer::Start() {
  std::lock_guard<std::mutex> lock(lifecycle_mu_);
  if (started_) return common::Status::FailedPrecondition("already started");
  LLMDM_RETURN_IF_ERROR(loop_.status());
  LLMDM_RETURN_IF_ERROR(listener_.Open(options_.bind_address, options_.port));
  LLMDM_RETURN_IF_ERROR(loop_.Add(listener_.fd(), EPOLLIN, [this](uint32_t) {
    listener_.AcceptAll([this](int fd) { OnAccept(fd); });
  }));
  // The sink runs, under the serve results lock, on the thread that
  // produced the response: a serve worker, or the loop itself for the sheds
  // that Submit() answers. It writes the frame there.
  backend_->set_response_sink(
      [this](const serve::Response& response) { DeliverResponse(response); });
  started_ = true;
  thread_ = std::thread([this] { LoopThread(); });
  return common::Status::Ok();
}

void NetServer::Shutdown() {
  std::lock_guard<std::mutex> lock(lifecycle_mu_);
  if (!started_ || stopped_) return;
  shutdown_requested_.store(true, std::memory_order_release);
  loop_.Wakeup();
  if (thread_.joinable()) thread_.join();
  // Detach the sink so late completions (only possible after a forced
  // drain) stop referencing this object. It takes the results lock that
  // every sink call runs under, so it also waits out a call in progress.
  backend_->set_response_sink(nullptr);
  stopped_ = true;
}

void NetServer::LoopThread() {
  for (;;) {
    if (shutdown_requested_.load(std::memory_order_acquire) && !draining_) {
      draining_ = true;
      drain_deadline_us_ =
          NowUs() + static_cast<int64_t>(options_.drain_deadline_ms * 1000.0);
      loop_.Remove(listener_.fd());
      listener_.Close();
    }
    if (draining_) {
      if (DrainComplete()) break;
      int64_t remain_us = drain_deadline_us_ - NowUs();
      if (remain_us <= 0) {
        // Deadline: give up on wedged peers. Every connection still holding
        // unflushed bytes (or awaiting a response) is force-closed.
        uint64_t forced = 0;
        {
          std::lock_guard<std::mutex> lock(routes_mu_);
          if (!routes_.empty()) forced = 1;
        }
        for (const auto& [fd, conn] : conns_) {
          std::lock_guard<std::mutex> lock(conn->mu);
          if (conn->pending() > 0) ++forced;
        }
        if (forced > 0) metrics_.drain_forced_closes->Add(forced);
        break;
      }
      loop_.Poll(static_cast<int>(
          std::min<int64_t>(remain_us / 1000 + 1, 100)));
    } else {
      // 200ms heartbeat: Shutdown() calls Wakeup(); the timeout is a
      // belt-and-braces bound on noticing a shutdown request.
      loop_.Poll(200);
    }
  }
  std::vector<int> fds;
  fds.reserve(conns_.size());
  for (const auto& [fd, conn] : conns_) fds.push_back(fd);
  for (int fd : fds) CloseConn(fd);
  listener_.Close();
}

void NetServer::OnAccept(int fd) {
  if (options_.sndbuf_bytes > 0) {
    setsockopt(fd, SOL_SOCKET, SO_SNDBUF, &options_.sndbuf_bytes,
               sizeof(options_.sndbuf_bytes));
  }
  auto conn = std::make_shared<Conn>();
  conn->fd = fd;
  conn->interest = EPOLLIN;
  FrameDecoder::Options dec;
  dec.max_frame_bytes = kMaxFrameBytes;
  conn->decoder = FrameDecoder(dec);
  common::Status added =
      loop_.Add(fd, EPOLLIN, [this, fd](uint32_t ev) { OnConnEvent(fd, ev); });
  if (!added.ok()) {
    close(fd);
    return;
  }
  conns_[fd] = std::move(conn);
  metrics_.connections_accepted->Add(1);
  metrics_.open_connections->Set(static_cast<int64_t>(conns_.size()));
}

void NetServer::OnConnEvent(int fd, uint32_t events) {
  auto it = conns_.find(fd);
  if (it == conns_.end()) return;
  std::shared_ptr<Conn> conn = it->second;

  if ((events & (EPOLLHUP | EPOLLERR)) != 0) {
    CloseConn(fd);
    return;
  }
  if ((events & EPOLLOUT) != 0) {
    std::lock_guard<std::mutex> lock(conn->mu);
    FlushConn(conn.get());
    UpdateInterest(conn.get());
  }
  if ((events & EPOLLIN) == 0) return;

  char buf[65536];
  for (;;) {
    ssize_t n = read(fd, buf, sizeof(buf));
    if (n > 0) {
      metrics_.bytes_rx->Add(static_cast<uint64_t>(n));
      common::Status fed =
          conn->decoder.Feed(std::string_view(buf, static_cast<size_t>(n)));
      if (!fed.ok()) {
        // A corrupted stream cannot be trusted for framing any more: tell
        // the peer once (best effort) and hang up.
        metrics_.protocol_errors->Add(1);
        WireError err;
        err.status_code = static_cast<uint8_t>(fed.code());
        err.message = fed.message();
        SendError(conn.get(), err);
        CloseConn(fd);
        return;
      }
      Frame frame;
      while (conn->decoder.Next(&frame)) {
        metrics_.frames_rx->Add(1);
        HandleFrame(conn, frame);
        if (conns_.find(fd) == conns_.end()) return;  // frame closed us
      }
      continue;
    }
    if (n == 0) {  // orderly peer close
      CloseConn(fd);
      return;
    }
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) return;
    CloseConn(fd);
    return;
  }
}

void NetServer::HandleFrame(const std::shared_ptr<Conn>& conn,
                            const Frame& frame) {
  if (frame.type != FrameType::kRequest) {
    // Clients only send requests; anything else is a protocol violation.
    metrics_.protocol_errors->Add(1);
    WireError err;
    err.status_code =
        static_cast<uint8_t>(common::StatusCode::kInvalidArgument);
    err.message = "unexpected frame type from client";
    SendError(conn.get(), err);
    CloseConn(conn->fd);
    return;
  }
  auto request = DecodeRequest(frame.payload);
  if (!request.ok()) {
    metrics_.protocol_errors->Add(1);
    WireError err;
    err.status_code = static_cast<uint8_t>(request.status().code());
    err.message = request.status().message();
    SendError(conn.get(), err);
    CloseConn(conn->fd);
    return;
  }
  HandleRequest(conn, *request);
}

void NetServer::HandleRequest(const std::shared_ptr<Conn>& conn,
                              const WireRequest& request) {
  if (draining_) {
    WireError err;
    err.id = request.id;
    err.status_code = static_cast<uint8_t>(common::StatusCode::kUnavailable);
    err.message = "server draining";
    SendError(conn.get(), err);
    return;
  }
  bool duplicate = false;
  {
    std::lock_guard<std::mutex> lock(routes_mu_);
    duplicate = !routes_.emplace(request.id, Route{conn, NowUs()}).second;
    metrics_.inflight_requests->Set(static_cast<int64_t>(routes_.size()));
  }
  if (duplicate) {
    WireError err;
    err.id = request.id;
    err.status_code =
        static_cast<uint8_t>(common::StatusCode::kInvalidArgument);
    err.message = "request id already in flight";
    SendError(conn.get(), err);
    return;
  }
  metrics_.requests_rx->Add(1);

  serve::Request req;
  req.id = request.id;
  req.tenant = request.tenant;
  req.skill = request.skill;
  req.input = request.input;
  req.deadline_ms = request.deadline_ms;
  // The wire carries the workload's virtual clock; the serve layer requires
  // a non-decreasing submission order, so clock skew between connections is
  // clamped forward rather than rejected.
  last_arrival_vms_ = std::max(last_arrival_vms_, request.arrival_vms);
  req.arrival_vms = last_arrival_vms_;
  // The loop holds no lock of this server here: Submit() delivers a shed
  // through the sink before it returns, and the sink takes routes_mu_ and
  // the connection's lock.
  backend_->Submit(req);
}

void NetServer::DeliverResponse(const serve::Response& response) {
  int64_t done_us = NowUs();
  std::string frame;
  if (response.shed) {
    // The QoS hint survives the wire: cause + cause-specific retry-after
    // ride the error frame so a remote client can back off exactly as an
    // in-process caller would.
    WireError err;
    err.id = response.id;
    err.status_code = static_cast<uint8_t>(response.status.code());
    err.shed_cause = static_cast<uint8_t>(response.shed_cause);
    err.retry_after_vms = response.retry_after_vms;
    err.message = response.status.message();
    frame = EncodeErrorFrame(err);
  } else {
    WireResponse wire;
    wire.id = response.id;
    wire.status_code = static_cast<uint8_t>(response.status.code());
    wire.status_message = response.status.message();
    wire.model = response.model;
    wire.cost_micros = response.cost.micros();
    wire.queue_wait_vms = response.queue_wait_vms;
    wire.service_vms = response.service_vms;
    wire.latency_vms = response.latency_vms;
    wire.deadline_missed = response.deadline_missed;
    wire.hedged = response.hedged;
    wire.hedge_won = response.hedge_won;
    wire.coalesced = response.coalesced;
    wire.text = response.text;
    frame = EncodeResponseFrame(wire);
  }

  std::unique_lock<std::mutex> routes_lock(routes_mu_);
  auto it = routes_.find(response.id);
  if (it == routes_.end()) {
    metrics_.responses_dropped->Add(1);
    return;
  }
  Route route = std::move(it->second);
  routes_.erase(it);
  metrics_.inflight_requests->Set(static_cast<int64_t>(routes_.size()));
  // While the server drains, the delivery that empties the route map wakes
  // the loop, so Shutdown() does not wait out the poll timeout.
  bool wake = routes_.empty() && draining_;
  {
    // The connection's lock is taken before the route lock goes, so a drain
    // check that finds no route also finds this frame in its buffer.
    Conn* conn = route.conn.get();
    std::lock_guard<std::mutex> lock(conn->mu);
    routes_lock.unlock();
    // `closed` is read under the lock the loop holds when it closes the fd
    // (CloseConn), so this never writes to a recycled fd number.
    if (conn->closed) {
      metrics_.responses_dropped->Add(1);
    } else {
      // Counted before the first byte can reach the peer.
      if (response.shed) {
        metrics_.shed_tx->Add(1);
        metrics_.errors_tx->Add(1);
      } else {
        metrics_.responses_tx->Add(1);
      }
      AppendFrame(conn, frame);
    }
  }
  metrics_.request_wall_us->Observe(
      static_cast<double>(done_us - route.accepted_us));
  if (wake) loop_.Wakeup();
}

void NetServer::SendError(Conn* conn, const WireError& error) {
  std::lock_guard<std::mutex> lock(conn->mu);
  metrics_.errors_tx->Add(1);
  AppendFrame(conn, EncodeErrorFrame(error));
}

void NetServer::AppendFrame(Conn* conn, const std::string& frame) {
  metrics_.frames_tx->Add(1);
  conn->outbuf.append(frame);
  FlushConn(conn);
  UpdateInterest(conn);
}

void NetServer::FlushConn(Conn* conn) {
  while (conn->pending() > 0) {
    // MSG_NOSIGNAL: a peer that is gone yields EPIPE, not a SIGPIPE.
    ssize_t n = send(conn->fd, conn->outbuf.data() + conn->out_off,
                     conn->pending(), MSG_NOSIGNAL);
    if (n > 0) {
      conn->out_off += static_cast<size_t>(n);
      metrics_.bytes_tx->Add(static_cast<uint64_t>(n));
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
    // EPIPE/ECONNRESET: the peer is gone. Only the loop closes an fd, and
    // this may be a serve worker, so hang the socket up instead: the loop
    // sees the hang-up and closes the connection. The unsent bytes go.
    shutdown(conn->fd, SHUT_RDWR);
    conn->outbuf.clear();
    conn->out_off = 0;
    return;
  }
  if (conn->out_off == conn->outbuf.size()) {
    conn->outbuf.clear();
    conn->out_off = 0;
  } else if (conn->out_off > (1u << 20)) {
    conn->outbuf.erase(0, conn->out_off);
    conn->out_off = 0;
  }
}

void NetServer::UpdateInterest(Conn* conn) {
  // Watermark backpressure: past the high mark, stop reading this
  // connection — requests queue in the kernel and push back on the peer's
  // send() — until the buffer drains below the low mark.
  if (!conn->read_paused && conn->pending() > options_.high_watermark) {
    conn->read_paused = true;
    metrics_.backpressure_pauses->Add(1);
  } else if (conn->read_paused && conn->pending() < options_.low_watermark) {
    conn->read_paused = false;
  }
  uint32_t desired = 0;
  if (!conn->read_paused) desired |= EPOLLIN;
  if (conn->pending() > 0) desired |= EPOLLOUT;
  if (desired != conn->interest) {
    if (loop_.Modify(conn->fd, desired).ok()) conn->interest = desired;
  }
}

void NetServer::CloseConn(int fd) {
  auto it = conns_.find(fd);
  if (it == conns_.end()) return;
  std::shared_ptr<Conn> conn = std::move(it->second);
  conns_.erase(it);
  {
    // The fd is closed only under the connection's lock and only after
    // `closed` is set, and every writer checks `closed` under that lock, so
    // no thread ever writes to a recycled fd number.
    std::lock_guard<std::mutex> lock(conn->mu);
    conn->closed = true;
    loop_.Remove(fd);
    close(fd);
  }
  metrics_.connections_closed->Add(1);
  metrics_.open_connections->Set(static_cast<int64_t>(conns_.size()));
}

bool NetServer::DrainComplete() {
  {
    std::lock_guard<std::mutex> lock(routes_mu_);
    if (!routes_.empty()) return false;
  }
  for (const auto& [fd, conn] : conns_) {
    std::lock_guard<std::mutex> lock(conn->mu);
    if (conn->pending() > 0) return false;
  }
  return true;
}

NetStats NetServer::stats() const {
  NetStats s;
  s.connections_accepted = metrics_.connections_accepted->value();
  s.connections_closed = metrics_.connections_closed->value();
  s.frames_rx = metrics_.frames_rx->value();
  s.frames_tx = metrics_.frames_tx->value();
  s.bytes_rx = metrics_.bytes_rx->value();
  s.bytes_tx = metrics_.bytes_tx->value();
  s.requests_rx = metrics_.requests_rx->value();
  s.responses_tx = metrics_.responses_tx->value();
  s.errors_tx = metrics_.errors_tx->value();
  s.shed_tx = metrics_.shed_tx->value();
  s.protocol_errors = metrics_.protocol_errors->value();
  s.responses_dropped = metrics_.responses_dropped->value();
  s.backpressure_pauses = metrics_.backpressure_pauses->value();
  s.drain_forced_closes = metrics_.drain_forced_closes->value();
  return s;
}

}  // namespace llmdm::net
