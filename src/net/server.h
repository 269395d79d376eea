#ifndef LLMDM_NET_SERVER_H_
#define LLMDM_NET_SERVER_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>

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
/// Threading: the loop thread accepts, reads, decodes and admits, flushes
/// on EPOLLOUT whatever a write left behind, and closes. Submit() is
/// therefore always called from the loop thread, in frame-arrival order,
/// satisfying the serve layer's single-submitter ordering contract
/// (arrival_vms from the wire is clamped monotonic non-decreasing across
/// connections). A response is encoded and written by the thread that
/// produced it, through the backend's response_sink: the serve worker, or
/// the loop itself for the sheds Submit() answers. That sink runs under the
/// serve results lock and takes a connection's Conn::mu before it lets go of
/// routes_mu_, so the lock order is results -> routes_mu_ -> Conn::mu. The
/// loop never holds a Conn::mu while it takes routes_mu_, and holds neither
/// when it calls Submit(). Each connection's outbound state lives under its
/// Conn::mu, and every frame, from any thread, goes through AppendFrame()
/// and FlushConn().
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
    FrameDecoder decoder;  // loop thread only

    // Outbound state, guarded by mu: appended and written by whichever
    // thread delivers a frame, flushed by the loop on EPOLLOUT.
    std::mutex mu;
    std::string outbuf;
    size_t out_off = 0;
    uint32_t interest = 0;  // current epoll interest set
    bool read_paused = false;
    /// Set by the loop just before it closes fd; a writer that finds it set
    /// drops its frame.
    bool closed = false;

    size_t pending() const { return outbuf.size() - out_off; }
  };

  /// Where a completed request's frame goes. The route holds its
  /// connection, so a response whose connection has closed finds `closed`
  /// set and is dropped, even if a new connection reuses the fd number.
  struct Route {
    std::shared_ptr<Conn> conn;
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
  void HandleFrame(const std::shared_ptr<Conn>& conn, const Frame& frame);
  void HandleRequest(const std::shared_ptr<Conn>& conn,
                     const WireRequest& request);
  /// The response sink: encodes one serve outcome as a response or error
  /// frame and writes it to its connection on the calling thread (dropping
  /// it if the connection is gone).
  void DeliverResponse(const serve::Response& response);
  /// Loop thread only: the connection is open.
  void SendError(Conn* conn, const WireError& error);
  /// The next three need conn->mu held and conn->closed false.
  void AppendFrame(Conn* conn, const std::string& frame);
  void FlushConn(Conn* conn);
  void UpdateInterest(Conn* conn);
  void CloseConn(int fd);
  bool DrainComplete();

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
  std::unordered_map<int, std::shared_ptr<Conn>> conns_;  // by fd
  double last_arrival_vms_ = 0.0;
  int64_t drain_deadline_us_ = 0;
  /// Written by the loop only; the sink reads it too.
  std::atomic<bool> draining_{false};

  // Shared with the delivering threads, guarded by routes_mu_.
  std::mutex routes_mu_;
  std::unordered_map<uint64_t, Route> routes_;  // by request id
};

}  // namespace llmdm::net

#endif  // LLMDM_NET_SERVER_H_
