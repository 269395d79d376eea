#ifndef LLMDM_NET_SERVER_H_
#define LLMDM_NET_SERVER_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "net/event_loop.h"
#include "net/wire.h"
#include "obs/metrics.h"
#include "serve/server.h"

namespace llmdm::net {

/// Aggregate transport metrics — a read-time view over the llmdm_net_*
/// registry counters, so a Prometheus export and this struct always agree.
struct NetStats {
  uint64_t connections_accepted = 0;
  uint64_t connections_closed = 0;
  uint64_t frames_rx = 0;
  uint64_t frames_tx = 0;
  uint64_t bytes_rx = 0;
  uint64_t bytes_tx = 0;
  uint64_t requests_rx = 0;
  uint64_t responses_tx = 0;
  uint64_t errors_tx = 0;
  uint64_t shed_tx = 0;  // subset of errors_tx that are admission sheds
  uint64_t protocol_errors = 0;
  uint64_t responses_dropped = 0;  // completion arrived after its conn died
  uint64_t backpressure_pauses = 0;
  uint64_t drain_forced_closes = 0;
};

/// The network front door: an epoll event loop accepting llmdm wire-protocol
/// connections and feeding decoded request frames into a serve::Server.
///
/// Threading: one loop thread owns every connection, buffer, and route;
/// serve workers publish completions through the server's response_sink,
/// which only appends to a mutex-guarded completion queue and kicks the
/// loop's eventfd — the loop then encodes and writes the frames on its own
/// thread. Submit() is therefore always called from the loop thread, in
/// frame-arrival order, satisfying the serve layer's single-submitter
/// ordering contract (arrival_vms from the wire is clamped monotonic
/// non-decreasing across connections).
///
/// Correlation: the wire `id` is used as the serve request id directly, so a
/// network workload is byte-identical to the same requests Submit()ted
/// in-process (the completion text is salted by request id). Ids must be
/// unique among in-flight requests across all connections; a duplicate is
/// refused with a kInvalidArgument error frame. The llmdm client library
/// and loadgen partition the id space per connection.
///
/// Backpressure: each connection has an outbound buffer. When it exceeds
/// Options::high_watermark the server stops reading that connection (its
/// EPOLLIN interest is dropped — new requests queue in the kernel and
/// eventually push back on the client's send()), resuming once the buffer
/// drains below Options::low_watermark.
///
/// Graceful drain (Shutdown()): close the listener, refuse new request
/// frames with kUnavailable error frames, let every already-accepted
/// request complete and flush its response, then close. Bounded by
/// Options::drain_deadline_ms of wall time; connections still wedged at the
/// deadline are force-closed (counted in drain_forced_closes).
class NetServer {
 public:
  struct Options {
    std::string bind_address = "127.0.0.1";
    uint16_t port = 0;  // 0 = ephemeral; read the bound port via port()
    /// Outbound-buffer watermarks driving per-connection read backpressure.
    size_t high_watermark = 1u << 20;
    size_t low_watermark = 256u << 10;
    /// Wall-clock bound on the graceful-drain phase of Shutdown().
    double drain_deadline_ms = 10000.0;
    /// SO_SNDBUF for accepted connections; 0 keeps the kernel default.
    /// Tests shrink it to force the userspace outbound buffer (and the
    /// watermark machinery) to actually engage.
    int sndbuf_bytes = 0;
    /// Registry for llmdm_net_* instruments; null = private registry.
    obs::Registry* registry = nullptr;
  };

  /// `backend` must outlive this server. Start() installs this server as
  /// the backend's response sink; the backend should be configured with
  /// retain_responses = false for long-running use.
  NetServer(serve::Server* backend, const Options& options);
  ~NetServer();

  NetServer(const NetServer&) = delete;
  NetServer& operator=(const NetServer&) = delete;

  /// Binds, listens, installs the response sink, and starts the loop
  /// thread. On error nothing is running and the error is returned.
  common::Status Start();

  /// The bound port (valid after Start(), useful with Options::port = 0).
  uint16_t port() const { return listener_.port(); }

  /// Graceful drain, then stops and joins the loop thread. Idempotent.
  void Shutdown();

  NetStats stats() const;
  obs::Registry* registry() const { return registry_; }

 private:
  struct Conn {
    int fd = -1;
    uint64_t conn_id = 0;
    FrameDecoder decoder;
    std::string outbuf;
    size_t out_off = 0;
    uint32_t interest = 0;  // current epoll interest set
    bool read_paused = false;

    size_t pending() const { return outbuf.size() - out_off; }
  };

  /// Where a completed request's frame goes.
  struct Route {
    uint64_t conn_id = 0;
    int64_t accepted_us = 0;  // wall clock, for the service histogram
  };

  struct Metrics {
    obs::Counter* connections_accepted = nullptr;
    obs::Counter* connections_closed = nullptr;
    obs::Counter* frames_rx = nullptr;
    obs::Counter* frames_tx = nullptr;
    obs::Counter* bytes_rx = nullptr;
    obs::Counter* bytes_tx = nullptr;
    obs::Counter* requests_rx = nullptr;
    obs::Counter* responses_tx = nullptr;
    obs::Counter* errors_tx = nullptr;
    obs::Counter* shed_tx = nullptr;
    obs::Counter* protocol_errors = nullptr;
    obs::Counter* responses_dropped = nullptr;
    obs::Counter* backpressure_pauses = nullptr;
    obs::Counter* drain_forced_closes = nullptr;
    obs::Gauge* open_connections = nullptr;
    obs::Gauge* inflight_requests = nullptr;
    obs::Histogram* request_wall_us = nullptr;
  };

  void LoopThread();
  void OnAccept(int fd);
  void OnConnEvent(int fd, uint32_t events);
  void HandleFrame(Conn* conn, const Frame& frame);
  void HandleRequest(Conn* conn, const WireRequest& request);
  /// Encodes one serve outcome as a response or error frame on its
  /// connection's outbound buffer (dropping it if the connection is gone).
  void DeliverResponse(const serve::Response& response);
  void SendError(Conn* conn, const WireError& error);
  void AppendFrame(Conn* conn, std::string frame);
  void FlushConn(Conn* conn);
  void UpdateInterest(Conn* conn);
  void CloseConn(int fd);
  void DrainCompletions();
  bool DrainComplete() const;

  serve::Server* backend_;
  Options options_;

  std::unique_ptr<obs::Registry> owned_registry_;
  obs::Registry* registry_ = nullptr;
  Metrics metrics_;

  EventLoop loop_;
  Listener listener_;
  std::thread thread_;
  bool started_ = false;
  std::atomic<bool> shutdown_requested_{false};
  bool stopped_ = false;  // guarded by lifecycle_mu_
  std::mutex lifecycle_mu_;

  // Loop-thread-owned state (no locks).
  uint64_t next_conn_id_ = 1;
  std::unordered_map<int, std::unique_ptr<Conn>> conns_;        // by fd
  std::unordered_map<uint64_t, Conn*> conn_by_id_;
  std::unordered_map<uint64_t, Route> routes_;                  // by request id
  double last_arrival_vms_ = 0.0;
  bool draining_ = false;
  int64_t drain_deadline_us_ = 0;

  // Completion queue: serve workers (and the submitting thread, for sheds)
  // push; the loop thread drains after a Wakeup().
  mutable std::mutex completions_mu_;
  std::vector<serve::Response> completions_;
};

}  // namespace llmdm::net

#endif  // LLMDM_NET_SERVER_H_
