// Tests for the network front door (src/net): the wire codec and its
// torn-frame / corruption guarantees, the epoll server end to end over
// loopback (byte-identity with a direct Submit() of the same workload,
// shed metadata on error frames, graceful drain, pipelining, duplicate-id
// refusal, watermark backpressure, responses written by serve workers),
// and concurrent connections (the case the TSan build exists for).
#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <string.h>
#include <sys/socket.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include <chrono>
#include <limits>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "llm/simulated.h"
#include "net/client.h"
#include "net/server.h"
#include "net/wire.h"
#include "serve/server.h"
#include "gated_llm.h"

namespace llmdm {
namespace {

using test::GatedLlm;

// ---- Wire codec round trips ------------------------------------------------

net::WireRequest SampleRequest() {
  net::WireRequest r;
  r.id = 42;
  r.tenant = "tenant-a";
  r.skill = "freeform";
  r.input = "How many rows survived the merge?";
  r.deadline_ms = 250.0;
  r.arrival_vms = 1234.5;
  return r;
}

net::WireResponse SampleResponse() {
  net::WireResponse r;
  r.id = 42;
  r.status_code = 0;
  r.text = "The merge kept 1,204 rows.";
  r.model = "sim-davinci-003";
  r.cost_micros = 1375;
  r.queue_wait_vms = 12.25;
  r.service_vms = 88.5;
  r.latency_vms = 100.75;
  r.deadline_missed = true;
  r.hedged = true;
  r.hedge_won = false;
  r.coalesced = true;
  return r;
}

TEST(WireCodec, RequestRoundTrip) {
  net::WireRequest in = SampleRequest();
  std::string frame = net::EncodeRequestFrame(in);
  net::FrameDecoder decoder;
  ASSERT_TRUE(decoder.Feed(frame).ok());
  net::Frame f;
  ASSERT_TRUE(decoder.Next(&f));
  EXPECT_EQ(f.type, net::FrameType::kRequest);
  auto out = net::DecodeRequest(f.payload);
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  EXPECT_EQ(*out, in);
}

TEST(WireCodec, ResponseRoundTripPreservesEveryFlag) {
  net::WireResponse in = SampleResponse();
  std::string frame = net::EncodeResponseFrame(in);
  net::FrameDecoder decoder;
  ASSERT_TRUE(decoder.Feed(frame).ok());
  net::Frame f;
  ASSERT_TRUE(decoder.Next(&f));
  EXPECT_EQ(f.type, net::FrameType::kResponse);
  auto out = net::DecodeResponse(f.payload);
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  EXPECT_EQ(*out, in);
}

TEST(WireCodec, ErrorRoundTrip) {
  net::WireError error;
  error.id = 9;
  error.status_code =
      static_cast<uint8_t>(common::StatusCode::kResourceExhausted);
  error.shed_cause = static_cast<uint8_t>(serve::ShedCause::kQuota);
  error.retry_after_vms = 74.5;
  error.message = std::string("tenant quota\0exhausted", 22);
  net::FrameDecoder decoder;
  ASSERT_TRUE(decoder.Feed(net::EncodeErrorFrame(error)).ok());
  net::Frame f;
  ASSERT_TRUE(decoder.Next(&f));
  EXPECT_EQ(f.type, net::FrameType::kError);
  auto out = net::DecodeError(f.payload);
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(*out, error);
}

TEST(WireCodec, EncodingIsByteDeterministic) {
  EXPECT_EQ(net::EncodeRequestFrame(SampleRequest()),
            net::EncodeRequestFrame(SampleRequest()));
  EXPECT_EQ(net::EncodeResponseFrame(SampleResponse()),
            net::EncodeResponseFrame(SampleResponse()));
}

TEST(WireCodec, TruncatedPayloadRejectedAtEveryLength) {
  std::string frame = net::EncodeRequestFrame(SampleRequest());
  std::string_view payload(frame.data() + net::kFrameHeaderBytes,
                           frame.size() - net::kFrameHeaderBytes);
  for (size_t len = 0; len < payload.size(); ++len) {
    auto out = net::DecodeRequest(payload.substr(0, len));
    EXPECT_FALSE(out.ok()) << "prefix of " << len << " bytes decoded";
  }
  // Trailing garbage is rejected too — a payload must be fully consumed.
  std::string padded(payload);
  padded.push_back('\0');
  EXPECT_FALSE(net::DecodeRequest(padded).ok());
}

TEST(WireCodec, NonFiniteOrNegativeVirtualTimeRejected) {
  auto decode = [](const net::WireRequest& r) {
    std::string frame = net::EncodeRequestFrame(r);
    return net::DecodeRequest(
        std::string_view(frame).substr(net::kFrameHeaderBytes));
  };
  const double bad[] = {std::numeric_limits<double>::quiet_NaN(),
                        std::numeric_limits<double>::infinity(),
                        -std::numeric_limits<double>::infinity(), -1.0};
  for (double v : bad) {
    for (bool arrival : {true, false}) {
      net::WireRequest in = SampleRequest();
      (arrival ? in.arrival_vms : in.deadline_ms) = v;
      auto out = decode(in);
      ASSERT_FALSE(out.ok()) << (arrival ? "arrival_vms " : "deadline_ms ")
                             << v << " decoded";
      EXPECT_EQ(out.status().code(), common::StatusCode::kInvalidArgument);
    }
  }
  // Zero stays valid for both: "arrived at the epoch", "no deadline".
  net::WireRequest zero = SampleRequest();
  zero.arrival_vms = 0.0;
  zero.deadline_ms = 0.0;
  EXPECT_TRUE(decode(zero).ok());
}

// ---- Torn frames and corruption -------------------------------------------

std::string MultiFrameStream() {
  std::string stream;
  stream += net::EncodeRequestFrame(SampleRequest());
  stream += net::EncodeResponseFrame(SampleResponse());
  net::WireResponse empty;  // an empty completion is still a whole frame
  empty.id = 44;
  stream += net::EncodeResponseFrame(empty);
  net::WireError error;
  error.id = 43;
  error.status_code =
      static_cast<uint8_t>(common::StatusCode::kResourceExhausted);
  error.shed_cause = static_cast<uint8_t>(serve::ShedCause::kQueue);
  error.retry_after_vms = 25.0;
  error.message = "queue full";
  stream += net::EncodeErrorFrame(error);
  return stream;
}

std::vector<net::Frame> DecodeAll(net::FrameDecoder* decoder) {
  std::vector<net::Frame> frames;
  net::Frame f;
  while (decoder->Next(&f)) frames.push_back(f);
  return frames;
}

bool SameFrames(const std::vector<net::Frame>& a,
                const std::vector<net::Frame>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].type != b[i].type || a[i].payload != b[i].payload) {
      return false;
    }
  }
  return true;
}

// The acceptance sweep: a four-frame stream split at *every* byte boundary
// across two reads must reassemble to exactly the frames a one-shot feed
// yields.
TEST(FrameDecoder, TornFrameSweepEverySplitPoint) {
  std::string stream = MultiFrameStream();
  net::FrameDecoder reference;
  ASSERT_TRUE(reference.Feed(stream).ok());
  std::vector<net::Frame> expected = DecodeAll(&reference);
  ASSERT_EQ(expected.size(), 4u);

  for (size_t split = 0; split <= stream.size(); ++split) {
    net::FrameDecoder decoder;
    ASSERT_TRUE(
        decoder.Feed(std::string_view(stream).substr(0, split)).ok())
        << "split at " << split;
    ASSERT_TRUE(decoder.Feed(std::string_view(stream).substr(split)).ok())
        << "split at " << split;
    std::vector<net::Frame> got = DecodeAll(&decoder);
    ASSERT_TRUE(SameFrames(got, expected)) << "split at " << split;
    EXPECT_EQ(decoder.buffered_bytes(), 0u) << "split at " << split;
  }
}

TEST(FrameDecoder, OneByteAtATime) {
  std::string stream = MultiFrameStream();
  net::FrameDecoder reference;
  ASSERT_TRUE(reference.Feed(stream).ok());
  std::vector<net::Frame> expected = DecodeAll(&reference);

  net::FrameDecoder decoder;
  std::vector<net::Frame> got;
  for (char c : stream) {
    ASSERT_TRUE(decoder.Feed(std::string_view(&c, 1)).ok());
    net::Frame f;
    while (decoder.Next(&f)) got.push_back(f);
  }
  EXPECT_TRUE(SameFrames(got, expected));
}

TEST(FrameDecoder, BadMagicRejected) {
  std::string frame = net::EncodeRequestFrame(SampleRequest());
  frame[0] = 'X';
  net::FrameDecoder decoder;
  EXPECT_FALSE(decoder.Feed(frame).ok());
  net::Frame f;
  EXPECT_FALSE(decoder.Next(&f));
}

// Version 1 (which carried streamed chunks) and version 2 (which carried a
// request priority) are as foreign as a future one.
TEST(FrameDecoder, BadVersionRejected) {
  for (int version : {1, 2, 4}) {
    std::string frame = net::EncodeRequestFrame(SampleRequest());
    frame[4] = static_cast<char>(version);
    net::FrameDecoder decoder;
    common::Status s = decoder.Feed(frame);
    EXPECT_EQ(s.code(), common::StatusCode::kInvalidArgument) << version;
    EXPECT_EQ(s.message(), "unsupported wire version " +
                               std::to_string(version) +
                               " (this build speaks 3)");
  }
}

// Header bytes 6 and 7 are reserved: a frame that sets either is refused
// before its checksum is read, like a frame of unknown type.
TEST(FrameDecoder, NonZeroReservedBytesRejected) {
  for (size_t offset : {6, 7}) {
    std::string frame = net::EncodeRequestFrame(SampleRequest());
    ASSERT_EQ(frame[offset], 0);
    frame[offset] = 1;
    net::FrameDecoder decoder;
    common::Status s = decoder.Feed(frame);
    EXPECT_EQ(s.code(), common::StatusCode::kInvalidArgument) << offset;
    EXPECT_NE(s.message().find("reserved header bytes"), std::string::npos)
        << s.message();
    net::Frame f;
    EXPECT_FALSE(decoder.Next(&f));
  }
}

// Type 3 was version 1's stream chunk; it is unassigned now.
TEST(FrameDecoder, UnknownFrameTypeRejected) {
  for (int type : {0, 3, 0x7f}) {
    std::string frame = net::EncodeRequestFrame(SampleRequest());
    frame[5] = static_cast<char>(type);
    net::FrameDecoder decoder;
    common::Status s = decoder.Feed(frame);
    EXPECT_EQ(s.code(), common::StatusCode::kInvalidArgument) << type;
    EXPECT_NE(s.message().find("unknown frame type " + std::to_string(type)),
              std::string::npos)
        << s.message();
  }
}

TEST(FrameDecoder, OversizedLengthRejected) {
  std::string frame = net::EncodeRequestFrame(SampleRequest());
  net::FrameDecoder::Options opts;
  opts.max_frame_bytes = 16;  // far below the sample request's payload
  net::FrameDecoder decoder(opts);
  common::Status s = decoder.Feed(frame);
  EXPECT_FALSE(s.ok());
}

TEST(FrameDecoder, ChecksumMismatchPoisonsTheDecoder) {
  std::string frame = net::EncodeRequestFrame(SampleRequest());
  frame[frame.size() - 1] ^= 0x01;  // corrupt the payload tail
  net::FrameDecoder decoder;
  common::Status first = decoder.Feed(frame);
  EXPECT_FALSE(first.ok());
  // Sticky: a perfectly valid follow-up frame is not decoded — a corrupted
  // stream is rejected, never resynchronized into plausible garbage.
  common::Status second = decoder.Feed(net::EncodeRequestFrame(SampleRequest()));
  EXPECT_FALSE(second.ok());
  net::Frame f;
  EXPECT_FALSE(decoder.Next(&f));
  EXPECT_FALSE(decoder.error().ok());
}

// Flip one bit in every byte of a frame: the decoder must either report an
// error or withhold output (a corrupted length can legitimately leave it
// waiting for bytes that never come) — it must never yield a frame.
TEST(FrameDecoder, EveryByteCorruptionIsDetectedOrWithheld) {
  std::string frame = net::EncodeRequestFrame(SampleRequest());
  for (size_t i = 0; i < frame.size(); ++i) {
    std::string corrupted = frame;
    corrupted[i] ^= 0x01;
    net::FrameDecoder decoder;
    common::Status s = decoder.Feed(corrupted);
    net::Frame f;
    bool decoded = decoder.Next(&f);
    EXPECT_FALSE(decoded) << "byte " << i << " flipped yet a frame decoded";
    if (s.ok()) {
      // No error means the decoder is waiting on a (corrupted, larger)
      // length — it must be holding the bytes, not silently dropping them.
      EXPECT_GT(decoder.buffered_bytes(), 0u) << "byte " << i;
    }
  }
}

// ---- Loopback end-to-end ---------------------------------------------------

struct TestBackendOptions {
  size_t model = 2;  // index into the paper ladder
  size_t worker_threads = 4;
  size_t virtual_concurrency = 4;
  size_t queue_depth = 64;
  serve::ShedPolicy shed_policy = serve::ShedPolicy::kQueueFull;
  serve::QosOptions qos;
};

serve::Server::Options MakeServeOptions(const TestBackendOptions& opts,
                                        bool retain) {
  serve::Server::Options so;
  so.worker_threads = opts.worker_threads;
  so.virtual_concurrency = opts.virtual_concurrency;
  so.queue_depth = opts.queue_depth;
  so.shed_policy = opts.shed_policy;
  so.qos = opts.qos;
  so.retain_responses = retain;
  return so;
}

// A NetServer + backend pair on an ephemeral port, plus an identically
// configured twin backend for direct Submit() comparison.
class LoopbackHarness {
 public:
  explicit LoopbackHarness(const TestBackendOptions& opts = {},
                           net::NetServer::Options net_options = {})
      : models_(llm::CreatePaperModelLadder(nullptr, 2024)),
        twin_models_(llm::CreatePaperModelLadder(nullptr, 2024)),
        backend_(models_[opts.model], MakeServeOptions(opts, false)),
        twin_(twin_models_[opts.model], MakeServeOptions(opts, true)),
        server_(&backend_, [&net_options] {
          net_options.port = 0;
          return net_options;
        }()) {
    common::Status s = server_.Start();
    EXPECT_TRUE(s.ok()) << s.ToString();
  }

  ~LoopbackHarness() {
    server_.Shutdown();
    (void)backend_.Drain();
  }

  net::NetServer& server() { return server_; }
  serve::Server& twin() { return twin_; }

  net::Client::Options ClientOptions() const {
    net::Client::Options copts;
    copts.port = server_.port();
    return copts;
  }

 private:
  std::vector<std::shared_ptr<llm::LlmModel>> models_;
  std::vector<std::shared_ptr<llm::LlmModel>> twin_models_;
  serve::Server backend_;
  serve::Server twin_;
  net::NetServer server_;
};

std::vector<net::WireRequest> MakeWorkload(size_t n, double gap_vms,
                                           uint64_t first_id = 1) {
  std::vector<net::WireRequest> requests;
  for (size_t i = 0; i < n; ++i) {
    net::WireRequest r;
    r.id = first_id + i;
    r.input = "workload question #" + std::to_string(first_id + i);
    r.arrival_vms = static_cast<double>(i) * gap_vms;
    requests.push_back(r);
  }
  return requests;
}

serve::Request ToServeRequest(const net::WireRequest& r) {
  serve::Request req;
  req.id = r.id;
  req.tenant = r.tenant;
  req.skill = r.skill;
  req.input = r.input;
  req.deadline_ms = r.deadline_ms;
  req.arrival_vms = r.arrival_vms;
  return req;
}

// The tentpole acceptance criterion: responses over loopback are
// byte-identical to a direct Submit() of the same workload — text, model,
// cost, and every virtual-time figure.
TEST(NetLoopback, ByteIdenticalToDirectSubmit) {
  LoopbackHarness harness;
  std::vector<net::WireRequest> workload = MakeWorkload(32, 5.0);

  net::Client client;
  ASSERT_TRUE(client.Connect(harness.ClientOptions()).ok());
  auto net_results = client.CallBatch(workload);
  ASSERT_TRUE(net_results.ok()) << net_results.status().ToString();

  for (const net::WireRequest& r : workload) {
    harness.twin().Submit(ToServeRequest(r));
  }
  std::vector<serve::Response> direct = harness.twin().Drain();
  ASSERT_EQ(direct.size(), workload.size());
  ASSERT_EQ(net_results->size(), workload.size());

  for (size_t i = 0; i < workload.size(); ++i) {
    const net::ClientResult& over_wire = (*net_results)[i];
    const serve::Response& in_process = direct[i];  // Drain() sorts by id
    ASSERT_EQ(over_wire.id, in_process.id);
    EXPECT_EQ(over_wire.status.code(), in_process.status.code());
    EXPECT_EQ(over_wire.text, in_process.text);
    EXPECT_EQ(over_wire.model, in_process.model);
    EXPECT_EQ(over_wire.cost, in_process.cost);
    EXPECT_EQ(over_wire.queue_wait_vms, in_process.queue_wait_vms);
    EXPECT_EQ(over_wire.service_vms, in_process.service_vms);
    EXPECT_EQ(over_wire.latency_vms, in_process.latency_vms);
    EXPECT_EQ(over_wire.shed, in_process.shed);
    EXPECT_FALSE(over_wire.shed);
  }
}

// Satellite 1 (queue half): a shed response crosses the wire as an error
// frame whose cause and retry_after_vms equal the direct-submit twin's.
TEST(NetLoopback, QueueShedCarriesCauseAndRetryAfter) {
  TestBackendOptions opts;
  opts.worker_threads = 2;
  opts.virtual_concurrency = 1;
  opts.queue_depth = 2;
  LoopbackHarness harness(opts);

  // Eight requests at one virtual instant against one slot + depth two:
  // the admission model must refuse most of them.
  std::vector<net::WireRequest> burst = MakeWorkload(8, 0.0, 10);

  net::Client client;
  ASSERT_TRUE(client.Connect(harness.ClientOptions()).ok());
  auto net_results = client.CallBatch(burst);
  ASSERT_TRUE(net_results.ok()) << net_results.status().ToString();

  for (const net::WireRequest& r : burst) {
    harness.twin().Submit(ToServeRequest(r));
  }
  std::vector<serve::Response> direct = harness.twin().Drain();
  ASSERT_EQ(direct.size(), burst.size());

  size_t shed = 0;
  for (size_t i = 0; i < burst.size(); ++i) {
    const net::ClientResult& over_wire = (*net_results)[i];
    const serve::Response& in_process = direct[i];
    ASSERT_EQ(over_wire.id, in_process.id);
    EXPECT_EQ(over_wire.shed, in_process.shed);
    EXPECT_EQ(over_wire.shed_cause, in_process.shed_cause);
    EXPECT_EQ(over_wire.retry_after_vms, in_process.retry_after_vms);
    if (over_wire.shed) {
      ++shed;
      EXPECT_EQ(over_wire.shed_cause, serve::ShedCause::kQueue);
      EXPECT_EQ(over_wire.status.code(),
                common::StatusCode::kResourceExhausted);
      EXPECT_GT(over_wire.retry_after_vms, 0.0);
    }
  }
  EXPECT_GT(shed, 0u);
  EXPECT_LT(shed, burst.size());
  EXPECT_EQ(harness.server().stats().shed_tx, shed);
}

// Satellite 1 (quota half): QoS quota sheds carry the *per-tenant* retry
// hint — the metered tenant's errors say kQuota with its own bucket's refill
// time, while the unmetered tenant sails through untouched.
TEST(NetLoopback, QuotaShedCarriesPerTenantRetryAfter) {
  TestBackendOptions opts;
  serve::TenantConfig metered;
  metered.id = "metered";
  metered.weight = 1.0;
  // Burst covers one request (input tokens + the 48-token output estimate ≈
  // 53), refill is a trickle: the first metered request drains the bucket
  // and the rest shed with a finite refill-time retry hint.
  metered.quota_tokens_per_vs = 0.5;
  metered.quota_burst_tokens = 80.0;
  serve::TenantConfig unmetered;
  unmetered.id = "open";
  unmetered.weight = 1.0;
  opts.qos.tenants = {metered, unmetered};
  LoopbackHarness harness(opts);

  std::vector<net::WireRequest> workload;
  for (size_t i = 0; i < 6; ++i) {
    net::WireRequest r;
    r.id = 100 + i;
    r.tenant = (i % 2 == 0) ? "metered" : "open";
    r.input = "quota probe #" + std::to_string(i);
    r.arrival_vms = static_cast<double>(i);
    workload.push_back(r);
  }

  net::Client client;
  ASSERT_TRUE(client.Connect(harness.ClientOptions()).ok());
  auto net_results = client.CallBatch(workload);
  ASSERT_TRUE(net_results.ok()) << net_results.status().ToString();

  for (const net::WireRequest& r : workload) {
    harness.twin().Submit(ToServeRequest(r));
  }
  std::vector<serve::Response> direct = harness.twin().Drain();
  ASSERT_EQ(direct.size(), workload.size());

  size_t quota_shed = 0;
  for (size_t i = 0; i < workload.size(); ++i) {
    const net::ClientResult& over_wire = (*net_results)[i];
    const serve::Response& in_process = direct[i];
    ASSERT_EQ(over_wire.id, in_process.id);
    EXPECT_EQ(over_wire.shed, in_process.shed);
    EXPECT_EQ(over_wire.shed_cause, in_process.shed_cause);
    EXPECT_EQ(over_wire.retry_after_vms, in_process.retry_after_vms);
    if (workload[i].tenant == "open") {
      EXPECT_FALSE(over_wire.shed) << "unmetered tenant shed at " << i;
    } else if (over_wire.shed) {
      ++quota_shed;
      EXPECT_EQ(over_wire.shed_cause, serve::ShedCause::kQuota);
      EXPECT_GT(over_wire.retry_after_vms, 0.0);
    }
  }
  EXPECT_GT(quota_shed, 0u);
}

// Retry-at-hint: a quota shed's retry_after_vms is accurate — the same
// request, re-sent just past the hint, is admitted on its first retry.
TEST(NetLoopback, QuotaShedThenRetryAfterHintSucceeds) {
  TestBackendOptions opts;
  serve::TenantConfig metered;
  metered.id = "metered";
  metered.weight = 1.0;
  // Burst admits exactly one request (~53 tokens of estimate); refill at 10
  // tokens/vs makes the hint finite and the retry admissible once waited.
  metered.quota_tokens_per_vs = 10.0;
  metered.quota_burst_tokens = 60.0;
  opts.qos.tenants = {metered};
  LoopbackHarness harness(opts);

  net::Client client;
  ASSERT_TRUE(client.Connect(harness.ClientOptions()).ok());

  net::WireRequest first;
  first.id = 1;
  first.tenant = "metered";
  first.input = "drain the bucket";
  first.arrival_vms = 0.0;
  auto drained = client.Call(first);
  ASSERT_TRUE(drained.ok()) << drained.status().ToString();
  EXPECT_FALSE(drained->shed);

  // Immediately behind it, the bucket is empty: a plain Call sheds with a
  // usable hint...
  net::WireRequest probe;
  probe.id = 2;
  probe.tenant = "metered";
  probe.input = "retry me after the refill";
  probe.arrival_vms = 1.0;
  auto refused = client.Call(probe);
  ASSERT_TRUE(refused.ok()) << refused.status().ToString();
  ASSERT_TRUE(refused->shed);
  EXPECT_EQ(refused->shed_cause, serve::ShedCause::kQuota);
  ASSERT_GT(refused->retry_after_vms, 0.0);

  // ...and a second Call of the same shape, arriving just past that hint
  // (a shed consumed no quota, so the hint still holds), is admitted. The
  // margin keeps floating-point rounding at the refill boundary out of it.
  net::WireRequest retried = probe;
  retried.id = 3;
  retried.arrival_vms = probe.arrival_vms + refused->retry_after_vms + 1e-3;
  auto result = client.Call(retried);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_FALSE(result->shed) << result->status.message();
  EXPECT_TRUE(result->status.ok());
  EXPECT_FALSE(result->text.empty());
  EXPECT_GT(result->cost, common::Money::Zero());
}

// Polls every millisecond until `done()` holds or ten seconds pass;
// returns `done()`.
template <typename Pred>
bool WaitFor(Pred done) {
  auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (!done() && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return done();
}

// A NetServer whose backend's model holds every call for `held_input`.
// The destructor releases the gate first, so a failed test cannot hang in
// Drain().
struct GatedHarness {
  explicit GatedHarness(const std::string& held_input)
      : gated(std::make_shared<GatedLlm>(
            llm::CreatePaperModelLadder(nullptr, 2024)[2], held_input)),
        backend(gated, MakeServeOptions(TestBackendOptions{}, false)),
        server(&backend, net::NetServer::Options{}) {
    common::Status s = server.Start();
    EXPECT_TRUE(s.ok()) << s.ToString();
  }
  ~GatedHarness() {
    gated->Release();
    server.Shutdown();
    (void)backend.Drain();
  }

  std::shared_ptr<GatedLlm> gated;
  serve::Server backend;
  net::NetServer server;
};

// ---- Raw-socket helpers (protocol-level tests that need exact framing) ----

int ConnectRaw(uint16_t port, int rcvbuf_bytes = 0) {
  int fd = socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  EXPECT_GE(fd, 0);
  int on = 1;
  setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &on, sizeof(on));
  if (rcvbuf_bytes > 0) {
    setsockopt(fd, SOL_SOCKET, SO_RCVBUF, &rcvbuf_bytes,
               sizeof(rcvbuf_bytes));
  }
  struct sockaddr_in addr;
  memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  EXPECT_EQ(connect(fd, reinterpret_cast<struct sockaddr*>(&addr),
                    sizeof(addr)),
            0)
      << strerror(errno);
  return fd;
}

void WriteAll(int fd, std::string_view data) {
  size_t off = 0;
  while (off < data.size()) {
    ssize_t n = write(fd, data.data() + off, data.size() - off);
    if (n < 0 && errno == EINTR) continue;
    ASSERT_GT(n, 0) << strerror(errno);
    off += static_cast<size_t>(n);
  }
}

// Reads frames until `count` of them arrived.
std::vector<net::Frame> ReadFrames(int fd, size_t count) {
  std::vector<net::Frame> frames;
  net::FrameDecoder decoder;
  char buf[65536];
  while (frames.size() < count) {
    ssize_t n = read(fd, buf, sizeof(buf));
    if (n < 0 && errno == EINTR) continue;
    EXPECT_GT(n, 0) << strerror(errno);
    if (n <= 0) break;
    common::Status s = decoder.Feed(std::string_view(buf, static_cast<size_t>(n)));
    EXPECT_TRUE(s.ok()) << s.ToString();
    if (!s.ok()) break;
    net::Frame f;
    while (decoder.Next(&f)) frames.push_back(std::move(f));
  }
  return frames;
}

// Two requests with the same id in one write(2): the second must be refused
// with kInvalidArgument while the first still completes normally. The model
// holds the first until the refusal has arrived, so it is in flight when
// the loop reads the second: a serve worker writes a response as soon as it
// has one, and an answered id is free again.
TEST(NetLoopback, DuplicateInFlightIdRefused) {
  GatedHarness harness("original");
  int fd = ConnectRaw(harness.server.port());

  net::WireRequest req;
  req.id = 55;
  req.input = "original";
  req.arrival_vms = 0.0;
  std::string wire = net::EncodeRequestFrame(req);
  net::WireRequest dup = req;
  dup.input = "imposter with the same id";
  wire += net::EncodeRequestFrame(dup);
  WriteAll(fd, wire);

  std::vector<net::Frame> frames = ReadFrames(fd, 1);
  harness.gated->Release();
  std::vector<net::Frame> rest = ReadFrames(fd, 1);
  frames.insert(frames.end(), rest.begin(), rest.end());
  ASSERT_EQ(frames.size(), 2u);
  EXPECT_EQ(frames[0].type, net::FrameType::kError);
  size_t errors = 0;
  size_t responses = 0;
  for (const net::Frame& f : frames) {
    if (f.type == net::FrameType::kError) {
      auto err = net::DecodeError(f.payload);
      ASSERT_TRUE(err.ok());
      EXPECT_EQ(err->id, 55u);
      EXPECT_EQ(err->status_code,
                static_cast<uint8_t>(common::StatusCode::kInvalidArgument));
      ++errors;
    } else if (f.type == net::FrameType::kResponse) {
      auto resp = net::DecodeResponse(f.payload);
      ASSERT_TRUE(resp.ok());
      EXPECT_EQ(resp->id, 55u);
      EXPECT_EQ(resp->status_code, 0);
      ++responses;
    }
  }
  EXPECT_EQ(errors, 1u);
  EXPECT_EQ(responses, 1u);
  close(fd);
}

// A client speaking garbage gets one best-effort error frame and then its
// connection closed, and the metric records why.
TEST(NetLoopback, ProtocolGarbageClosesTheConnection) {
  LoopbackHarness harness;
  int fd = ConnectRaw(harness.server().port());
  WriteAll(fd, "GET / HTTP/1.1\r\nHost: llmdm\r\n\r\n");
  std::string reply;
  char buf[4096];
  for (;;) {
    ssize_t n = read(fd, buf, sizeof(buf));
    if (n < 0 && errno == EINTR) continue;
    ASSERT_GE(n, 0) << strerror(errno);
    if (n == 0) break;  // the server hung up after its goodbye frame
    reply.append(buf, static_cast<size_t>(n));
  }
  close(fd);

  net::FrameDecoder decoder;
  ASSERT_TRUE(decoder.Feed(reply).ok());
  net::Frame f;
  ASSERT_TRUE(decoder.Next(&f));
  EXPECT_EQ(f.type, net::FrameType::kError);
  auto err = net::DecodeError(f.payload);
  ASSERT_TRUE(err.ok());
  EXPECT_NE(err->status_code, 0);
  EXPECT_FALSE(decoder.Next(&f));  // nothing after the goodbye
  EXPECT_GE(harness.server().stats().protocol_errors, 1u);
}

// A request the server cannot decode gets the id-0 goodbye frame, then a
// closed connection. Call() reports the goodbye's reason, not the close.
TEST(NetLoopback, CallReportsWhyTheServerHungUp) {
  LoopbackHarness harness;
  net::Client client;
  ASSERT_TRUE(client.Connect(harness.ClientOptions()).ok());
  net::WireRequest bad = SampleRequest();
  bad.arrival_vms = std::numeric_limits<double>::quiet_NaN();
  auto result = client.Call(bad);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), common::StatusCode::kInvalidArgument);
  EXPECT_EQ(result.status().message(),
            "request virtual time nan is not a finite non-negative value");
}

TEST(NetLoopback, CallBatchReportsWhyTheServerHungUp) {
  LoopbackHarness harness;
  net::Client client;
  ASSERT_TRUE(client.Connect(harness.ClientOptions()).ok());
  std::vector<net::WireRequest> batch = MakeWorkload(3, 5.0);
  batch[1].deadline_ms = -1.0;
  auto results = client.CallBatch(batch);
  ASSERT_FALSE(results.ok());
  EXPECT_EQ(results.status().code(), common::StatusCode::kInvalidArgument);
  EXPECT_EQ(results.status().message(),
            "request virtual time -1 is not a finite non-negative value");
}

// Satellite: graceful drain. Every request the server accepted before
// Shutdown() still gets its response flushed, with no forced closes.
TEST(NetLoopback, DrainCompletesEveryAcceptedRequest) {
  LoopbackHarness harness;
  net::Client client;
  ASSERT_TRUE(client.Connect(harness.ClientOptions()).ok());

  constexpr size_t kInFlight = 16;
  std::vector<net::WireRequest> workload = MakeWorkload(kInFlight, 1.0, 200);
  for (const net::WireRequest& r : workload) {
    ASSERT_TRUE(client.Send(r).ok());
  }
  // Wait until the loop thread has accepted all of them, so Shutdown()'s
  // drain has real in-flight work to finish.
  while (harness.server().stats().requests_rx < kInFlight) {
    std::this_thread::yield();
  }
  std::thread shutdown([&harness] { harness.server().Shutdown(); });

  size_t ok = 0;
  for (size_t i = 0; i < kInFlight; ++i) {
    auto result = client.Receive();
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    EXPECT_TRUE(result->status.ok()) << result->status.ToString();
    if (result->status.ok()) ++ok;
  }
  shutdown.join();
  EXPECT_EQ(ok, kInFlight);
  EXPECT_EQ(harness.server().stats().drain_forced_closes, 0u);
  EXPECT_EQ(harness.server().stats().responses_tx, kInFlight);
}

// Satellite: watermark backpressure. A tiny client receive window + a tiny
// server send buffer force the outbound buffer over the high watermark; the
// server must pause reading (counted) and still deliver every response once
// the client drains.
TEST(NetLoopback, BackpressurePausesReadsAndRecovers) {
  TestBackendOptions opts;
  // Unbounded admission: every request must come back as a full response
  // (sheds would shrink the byte volume the watermarks need).
  opts.shed_policy = serve::ShedPolicy::kNone;
  net::NetServer::Options net_options;
  net_options.sndbuf_bytes = 4096;
  net_options.high_watermark = 16 << 10;
  net_options.low_watermark = 4 << 10;
  LoopbackHarness harness(opts, net_options);

  int fd = ConnectRaw(harness.server().port(), /*rcvbuf_bytes=*/4096);
  constexpr size_t kRequests = 300;
  std::string wire;
  for (size_t i = 0; i < kRequests; ++i) {
    net::WireRequest r;
    r.id = 1000 + i;
    r.input = "backpressure probe #" + std::to_string(i) +
              std::string(64, 'x');
    r.arrival_vms = static_cast<double>(i);
    wire += net::EncodeRequestFrame(r);
  }
  WriteAll(fd, wire);

  // Let responses pile up against the small windows before draining.
  while (harness.server().stats().backpressure_pauses == 0 &&
         harness.server().stats().responses_tx < kRequests) {
    std::this_thread::yield();
  }
  std::vector<net::Frame> frames = ReadFrames(fd, kRequests);
  size_t responses = 0;
  for (const net::Frame& f : frames) {
    if (f.type == net::FrameType::kResponse) ++responses;
  }
  EXPECT_EQ(responses, kRequests);
  EXPECT_GE(harness.server().stats().backpressure_pauses, 1u);
  close(fd);
}

// Serve workers write their own responses. One connection, four workers, a
// 4 KiB send buffer and small watermarks make the workers' partial writes,
// the loop's EPOLLOUT flush and the read pause all run. Every response must
// still arrive exactly once and whole (the decoder refuses interleaved
// frames by checksum), equal to its direct-Submit twin.
TEST(NetLoopback, WorkerWritesArriveOnceWholeAndEqualTheTwin) {
  TestBackendOptions opts;
  ASSERT_EQ(opts.worker_threads, 4u);
  opts.shed_policy = serve::ShedPolicy::kNone;
  net::NetServer::Options net_options;
  net_options.sndbuf_bytes = 4096;
  net_options.high_watermark = 16 << 10;
  net_options.low_watermark = 4 << 10;
  LoopbackHarness harness(opts, net_options);

  constexpr size_t kRequests = 300;
  std::vector<net::WireRequest> workload;
  std::string wire;
  for (size_t i = 0; i < kRequests; ++i) {
    net::WireRequest r;
    r.id = 7000 + i;
    r.input = "worker write probe #" + std::to_string(i) + " " +
              std::string(200, static_cast<char>('a' + i % 26));
    r.arrival_vms = static_cast<double>(i);
    wire += net::EncodeRequestFrame(r);
    workload.push_back(r);
  }
  int fd = ConnectRaw(harness.server().port(), /*rcvbuf_bytes=*/4096);
  // The sender may block once the server pauses reading; it resumes when
  // this thread drains the responses.
  std::thread sender([fd, &wire] { WriteAll(fd, wire); });
  WaitFor([&harness] {
    net::NetStats stats = harness.server().stats();
    return stats.backpressure_pauses > 0 || stats.responses_tx == kRequests;
  });
  std::vector<net::Frame> frames = ReadFrames(fd, kRequests);
  sender.join();
  close(fd);

  for (const net::WireRequest& r : workload) {
    harness.twin().Submit(ToServeRequest(r));
  }
  std::map<uint64_t, serve::Response> direct;
  for (serve::Response& r : harness.twin().Drain()) direct[r.id] = r;

  ASSERT_EQ(frames.size(), kRequests);
  std::map<uint64_t, size_t> seen;
  for (const net::Frame& f : frames) {
    ASSERT_EQ(f.type, net::FrameType::kResponse);
    auto over_wire = net::DecodeResponse(f.payload);
    ASSERT_TRUE(over_wire.ok()) << over_wire.status().ToString();
    ++seen[over_wire->id];
    auto twin = direct.find(over_wire->id);
    ASSERT_NE(twin, direct.end()) << over_wire->id;
    const serve::Response& in_process = twin->second;
    EXPECT_EQ(over_wire->status_code,
              static_cast<uint8_t>(in_process.status.code()));
    EXPECT_EQ(over_wire->text, in_process.text);
    EXPECT_EQ(over_wire->model, in_process.model);
    EXPECT_EQ(over_wire->cost_micros, in_process.cost.micros());
    EXPECT_EQ(over_wire->queue_wait_vms, in_process.queue_wait_vms);
    EXPECT_EQ(over_wire->service_vms, in_process.service_vms);
    EXPECT_EQ(over_wire->latency_vms, in_process.latency_vms);
  }
  EXPECT_EQ(seen.size(), kRequests);
  for (const auto& [id, count] : seen) EXPECT_EQ(count, 1u) << id;
  EXPECT_GE(harness.server().stats().backpressure_pauses, 1u);
}

// A client hangs up while workers hold its requests. When the workers
// finish, the server drops those responses (counted) and stays up, and a
// connection accepted afterwards, which likely reuses the freed fd number,
// receives only its own frames.
TEST(NetLoopback, HungUpClientsResponsesAreDroppedNotMisdelivered) {
  GatedHarness harness("held");
  net::NetServer& server = harness.server;

  constexpr size_t kHeld = 3;
  int gone = ConnectRaw(server.port());
  std::string wire;
  for (size_t i = 0; i < kHeld; ++i) {
    net::WireRequest r;
    r.id = 1 + i;
    r.input = "held";
    r.arrival_vms = static_cast<double>(i);
    wire += net::EncodeRequestFrame(r);
  }
  WriteAll(gone, wire);
  harness.gated->AwaitHeld(kHeld);
  close(gone);
  ASSERT_TRUE(WaitFor([&server] {
    return server.stats().connections_closed == 1;
  }));
  harness.gated->Release();
  ASSERT_TRUE(WaitFor([&server] {
    return server.stats().responses_dropped == kHeld;
  }));
  EXPECT_EQ(server.stats().responses_tx, 0u);

  int fresh = ConnectRaw(server.port());
  wire.clear();
  for (size_t i = 0; i < kHeld; ++i) {
    net::WireRequest r;
    r.id = 10 + i;
    r.input = "fresh #" + std::to_string(i);
    r.arrival_vms = static_cast<double>(kHeld + i);
    wire += net::EncodeRequestFrame(r);
  }
  WriteAll(fresh, wire);
  std::vector<net::Frame> frames = ReadFrames(fresh, kHeld);
  ASSERT_EQ(frames.size(), kHeld);
  std::map<uint64_t, size_t> seen;
  for (const net::Frame& f : frames) {
    ASSERT_EQ(f.type, net::FrameType::kResponse);
    auto resp = net::DecodeResponse(f.payload);
    ASSERT_TRUE(resp.ok()) << resp.status().ToString();
    EXPECT_EQ(resp->status_code, 0);
    ++seen[resp->id];
  }
  EXPECT_EQ(seen, (std::map<uint64_t, size_t>{{10, 1}, {11, 1}, {12, 1}}));
  // Nothing else is on its way: the held responses were dropped above.
  struct pollfd pfd = {fresh, POLLIN, 0};
  EXPECT_EQ(poll(&pfd, 1, 50), 0);
  close(fresh);

  server.Shutdown();
  EXPECT_EQ(server.stats().responses_dropped, kHeld);
  EXPECT_EQ(server.stats().responses_tx, kHeld);
}

// ---- Concurrency (run this binary under -DLLMDM_TSAN=ON) -------------------

// Several connections submitting in parallel: every request answered, no
// data races between the loop thread, serve workers, and client threads.
TEST(NetConcurrency, ParallelConnectionsAllAnswered) {
  TestBackendOptions opts;
  // Admit everything: the test asserts every request gets an OK answer, so
  // the 160-request pile-up must queue rather than shed.
  opts.shed_policy = serve::ShedPolicy::kNone;
  LoopbackHarness harness(opts);
  constexpr size_t kThreads = 4;
  constexpr size_t kPerThread = 40;

  std::vector<std::thread> threads;
  std::vector<size_t> ok_counts(kThreads, 0);
  for (size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&harness, &ok_counts, t] {
      net::Client client;
      if (!client.Connect(harness.ClientOptions()).ok()) return;
      for (size_t i = 0; i < kPerThread; ++i) {
        net::WireRequest r;
        r.id = (t + 1) * 100000 + i;  // id space partitioned per connection
        r.input = "parallel #" + std::to_string(r.id);
        r.arrival_vms = static_cast<double>(i);
        auto result = client.Call(r);
        if (result.ok() && result->status.ok()) ++ok_counts[t];
      }
    });
  }
  for (std::thread& t : threads) t.join();
  for (size_t t = 0; t < kThreads; ++t) {
    EXPECT_EQ(ok_counts[t], kPerThread) << "thread " << t;
  }
  net::NetStats stats = harness.server().stats();
  EXPECT_EQ(stats.requests_rx, kThreads * kPerThread);
  EXPECT_EQ(stats.responses_tx, kThreads * kPerThread);
  EXPECT_EQ(stats.connections_accepted, kThreads);
}

// One connection, one thread Send()ing while another Receive()s — the
// full-duplex split the client documents for open-loop load generation.
TEST(NetConcurrency, FullDuplexSendAndReceiveThreads) {
  LoopbackHarness harness;
  net::Client client;
  ASSERT_TRUE(client.Connect(harness.ClientOptions()).ok());

  constexpr size_t kRequests = 64;
  std::thread sender([&client] {
    for (size_t i = 0; i < kRequests; ++i) {
      net::WireRequest r;
      r.id = 500 + i;
      r.input = "duplex #" + std::to_string(i);
      r.arrival_vms = static_cast<double>(i);
      ASSERT_TRUE(client.Send(r).ok());
    }
  });
  size_t ok = 0;
  for (size_t i = 0; i < kRequests; ++i) {
    auto result = client.Receive();
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    if (result->status.ok()) ++ok;
  }
  sender.join();
  EXPECT_EQ(ok, kRequests);
}

// ---- Metrics ---------------------------------------------------------------

TEST(NetLoopback, MetricsCountTheConversation) {
  obs::Registry registry;
  TestBackendOptions opts;
  net::NetServer::Options net_options;
  net_options.registry = &registry;
  LoopbackHarness harness(opts, net_options);

  net::Client client;
  ASSERT_TRUE(client.Connect(harness.ClientOptions()).ok());
  net::WireRequest r;
  r.id = 1;
  r.input = "count me";
  auto result = client.Call(r);
  ASSERT_TRUE(result.ok());

  // The serve worker that writes the response counts bytes_tx after send()
  // returns, so the client can hold its response before the count lands.
  // Every sink call runs under the serve results lock, and Shutdown()
  // detaches the sink with set_response_sink(nullptr), which takes that
  // lock, so the read below comes after every count a sink call made.
  // (Shutdown also joins the loop thread, which orders the loop's counts.)
  harness.server().Shutdown();
  net::NetStats stats = harness.server().stats();
  EXPECT_EQ(stats.connections_accepted, 1u);
  EXPECT_EQ(stats.requests_rx, 1u);
  EXPECT_EQ(stats.responses_tx, 1u);
  EXPECT_EQ(stats.frames_rx, 1u);
  EXPECT_GE(stats.bytes_rx, net::kFrameHeaderBytes);
  EXPECT_GE(stats.bytes_tx, net::kFrameHeaderBytes);

  std::string prom = registry.PrometheusText();
  EXPECT_NE(prom.find("llmdm_net_requests_rx_total"), std::string::npos);
  EXPECT_NE(prom.find("llmdm_net_request_wall_us"), std::string::npos);
}

}  // namespace
}  // namespace llmdm
