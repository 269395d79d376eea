#include "net/client.h"

#include <arpa/inet.h>
#include <errno.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <string.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <map>
#include <unordered_set>

#include "common/string_util.h"

namespace llmdm::net {

namespace {
/// Receive timeout (SO_RCVTIMEO): a blocked Receive() gives up after this.
constexpr int kRecvTimeoutMs = 30000;

common::Status Errno(const char* what) {
  return common::Status::Unavailable(
      common::StrFormat("%s: %s", what, strerror(errno)));
}
}  // namespace

Client::~Client() { Close(); }

void Client::Close() {
  if (fd_ >= 0) {
    close(fd_);
    fd_ = -1;
  }
}

common::Status Client::Connect(const Options& options) {
  if (fd_ >= 0) return common::Status::FailedPrecondition("already connected");
  options_ = options;
  decoder_ = FrameDecoder();

  fd_ = socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd_ < 0) return Errno("socket");
  int on = 1;
  setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &on, sizeof(on));
  struct timeval tv;
  tv.tv_sec = kRecvTimeoutMs / 1000;
  tv.tv_usec = (kRecvTimeoutMs % 1000) * 1000;
  setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  struct sockaddr_in addr;
  memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_port = htons(options.port);
  if (inet_pton(AF_INET, options.host.c_str(), &addr.sin_addr) != 1) {
    Close();
    return common::Status::InvalidArgument("bad host address: " +
                                           options.host);
  }
  if (connect(fd_, reinterpret_cast<struct sockaddr*>(&addr), sizeof(addr)) <
      0) {
    common::Status s = Errno("connect");
    Close();
    return s;
  }
  return common::Status::Ok();
}

common::Status Client::Send(const WireRequest& request) {
  if (fd_ < 0) return common::Status::FailedPrecondition("not connected");
  std::string frame = EncodeRequestFrame(request);
  size_t off = 0;
  while (off < frame.size()) {
    // MSG_NOSIGNAL: a write to a peer that has reset the connection raises
    // SIGPIPE, whose default action ends the process; this way the caller
    // gets EPIPE as a Status instead.
    ssize_t n =
        send(fd_, frame.data() + off, frame.size() - off, MSG_NOSIGNAL);
    if (n > 0) {
      off += static_cast<size_t>(n);
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    return Errno("send");
  }
  return common::Status::Ok();
}

common::Status Client::ReadMore() {
  char buf[65536];
  for (;;) {
    ssize_t n = read(fd_, buf, sizeof(buf));
    if (n > 0) {
      return decoder_.Feed(std::string_view(buf, static_cast<size_t>(n)));
    }
    if (n == 0) {
      return common::Status::Unavailable("connection closed by server");
    }
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) {
      return common::Status::Timeout("receive timed out");
    }
    return Errno("read");
  }
}

common::Result<ClientResult> Client::ReceiveFromWire(bool* goodbye) {
  Frame frame;
  while (!decoder_.Next(&frame)) LLMDM_RETURN_IF_ERROR(ReadMore());
  ClientResult result;
  if (frame.type == FrameType::kError) {
    auto error = DecodeError(frame.payload);
    if (!error.ok()) return error.status();
    if (goodbye != nullptr) *goodbye = error->id == 0;
    result.id = error->id;
    result.status = common::Status(
        static_cast<common::StatusCode>(error->status_code), error->message);
    result.shed_cause = static_cast<serve::ShedCause>(error->shed_cause);
    result.shed = result.shed_cause != serve::ShedCause::kNone;
    result.retry_after_vms = error->retry_after_vms;
    return result;
  }
  auto response = DecodeResponse(frame.payload);
  if (!response.ok()) return response.status();
  result.id = response->id;
  result.status =
      response->status_code == 0
          ? common::Status::Ok()
          : common::Status(
                static_cast<common::StatusCode>(response->status_code),
                response->status_message);
  result.text = std::move(response->text);
  result.model = std::move(response->model);
  result.cost = common::Money::FromMicros(response->cost_micros);
  result.queue_wait_vms = response->queue_wait_vms;
  result.service_vms = response->service_vms;
  result.latency_vms = response->latency_vms;
  result.deadline_missed = response->deadline_missed;
  result.hedged = response->hedged;
  result.hedge_won = response->hedge_won;
  result.coalesced = response->coalesced;
  return result;
}

common::Result<ClientResult> Client::Receive() {
  if (!completed_.empty()) {
    ClientResult r = std::move(completed_.front());
    completed_.erase(completed_.begin());
    return r;
  }
  return ReceiveFromWire();
}

common::Result<ClientResult> Client::Call(const WireRequest& request) {
  LLMDM_RETURN_IF_ERROR(Send(request));
  // Pipelined results for other ids may land first; park them for the next
  // Receive() instead of dropping them.
  for (size_t i = 0; i < completed_.size(); ++i) {
    if (completed_[i].id == request.id) {
      ClientResult r = std::move(completed_[i]);
      completed_.erase(completed_.begin() + static_cast<ptrdiff_t>(i));
      return r;
    }
  }
  for (;;) {
    bool goodbye = false;
    auto result = ReceiveFromWire(&goodbye);
    if (!result.ok()) return result.status();
    if (result->id == request.id) return std::move(*result);
    // The server hung up; its reason is this call's outcome.
    if (goodbye) return result->status;
    completed_.push_back(std::move(*result));
  }
}

common::Result<std::vector<ClientResult>> Client::CallBatch(
    const std::vector<WireRequest>& requests) {
  for (const WireRequest& request : requests) {
    LLMDM_RETURN_IF_ERROR(Send(request));
  }
  std::unordered_set<uint64_t> wanted;
  for (const WireRequest& request : requests) wanted.insert(request.id);
  std::map<uint64_t, ClientResult> by_id;
  // Results already parked from earlier pipelining count too.
  for (size_t i = 0; i < completed_.size();) {
    if (wanted.count(completed_[i].id) != 0) {
      by_id[completed_[i].id] = std::move(completed_[i]);
      completed_.erase(completed_.begin() + static_cast<ptrdiff_t>(i));
    } else {
      ++i;
    }
  }
  while (by_id.size() < wanted.size()) {
    bool goodbye = false;
    auto result = ReceiveFromWire(&goodbye);
    if (!result.ok()) return result.status();
    if (wanted.count(result->id) != 0) {
      by_id[result->id] = std::move(*result);
    } else if (goodbye) {
      return result->status;  // the server hung up, and said why
    } else {
      completed_.push_back(std::move(*result));
    }
  }
  std::vector<ClientResult> out;
  out.reserve(requests.size());
  for (const WireRequest& request : requests) {
    out.push_back(std::move(by_id[request.id]));
  }
  return out;
}

}  // namespace llmdm::net
