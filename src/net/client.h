#ifndef LLMDM_NET_CLIENT_H_
#define LLMDM_NET_CLIENT_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/money.h"
#include "common/result.h"
#include "common/status.h"
#include "net/wire.h"
#include "serve/server.h"

namespace llmdm::net {

/// One request's outcome as seen by a network client: the serve::Response
/// fields that survive the wire, plus the shed/refusal metadata from error
/// frames. `status` is reconstructed from the frame's code + message, so a
/// remote caller branches on exactly the codes an in-process caller would.
struct ClientResult {
  uint64_t id = 0;
  common::Status status;
  std::string text;
  std::string model;
  common::Money cost;
  double queue_wait_vms = 0.0;
  double service_vms = 0.0;
  double latency_vms = 0.0;
  bool shed = false;
  serve::ShedCause shed_cause = serve::ShedCause::kNone;
  /// When shed: the server's cause-specific retry hint (virtual ms after
  /// this request's arrival at which retrying has a chance).
  double retry_after_vms = 0.0;
  bool deadline_missed = false;
  bool hedged = false;
  bool hedge_won = false;
  bool coalesced = false;
};

/// Blocking client for the llmdm wire protocol.
///
/// Three usage levels, from convenient to manual:
///   - Call(request): one round trip, returns the result.
///   - CallBatch(requests): writes the whole batch pipelined, then collects
///     every result; returned in request order.
///   - Send()/Receive(): raw pipelining for loadgen-style callers. Send()
///     and Receive() touch disjoint state, so one thread may Send while
///     another Receives on the same connection (full-duplex open-loop
///     driving); neither call is itself safe to race with a same-direction
///     call.
///
/// A shed result carries the server's retry_after_vms hint; a caller that
/// retries re-sends at an arrival past it.
class Client {
 public:
  struct Options {
    std::string host = "127.0.0.1";
    uint16_t port = 0;
  };

  Client() = default;
  ~Client();

  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  common::Status Connect(const Options& options);
  void Close();
  bool connected() const { return fd_ >= 0; }

  /// Writes one request frame. Does not wait for the response.
  common::Status Send(const WireRequest& request);

  /// Blocks for the next completed result in server completion order.
  common::Result<ClientResult> Receive();

  /// Send + Receive-until-this-id. With no pipelining in flight, this is
  /// one round trip.
  common::Result<ClientResult> Call(const WireRequest& request);

  /// Pipelined batch: every request frame is written back to back, then
  /// results are collected (they arrive in completion order) and returned
  /// in request order. Partial failure is total failure: any transport
  /// error aborts the batch.
  common::Result<std::vector<ClientResult>> CallBatch(
      const std::vector<WireRequest>& requests);

 private:
  /// Reads the next frame off the socket and decodes it into a result.
  /// `goodbye`, when given, is set if the frame is an error frame with id 0:
  /// the server's reason for hanging up, sent just before it closes.
  common::Result<ClientResult> ReceiveFromWire(bool* goodbye = nullptr);
  common::Status ReadMore();

  int fd_ = -1;
  Options options_;
  // Receive-side state (owned by whichever single thread is receiving).
  FrameDecoder decoder_;
  std::vector<ClientResult> completed_;  // decoded while awaiting another id
};

}  // namespace llmdm::net

#endif  // LLMDM_NET_CLIENT_H_
