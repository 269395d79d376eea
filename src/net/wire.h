#ifndef LLMDM_NET_WIRE_H_
#define LLMDM_NET_WIRE_H_

#include <cstdint>
#include <deque>
#include <string>
#include <string_view>

#include "common/result.h"
#include "common/status.h"

namespace llmdm::net {

/// The llmdm wire protocol: length-prefixed binary frames over a byte
/// stream. Every frame is
///
///   offset  size  field
///   0       4     magic    "LDMN" (little-endian u32)
///   4       1     version  kWireVersion
///   5       1     type     FrameType
///   6       2     reserved both 0; a frame with either set is
///                          rejected, as one of unknown type is
///   8       4     length   payload bytes (u32, little-endian)
///   12      8     checksum FNV-1a over the payload, seeded with the FNV-1a
///                          of header bytes [0, 12) — one checksum covers
///                          both header and payload, so a corrupted length
///                          or type fails the same check a corrupted body
///                          does
///   20      len   payload  explicit little-endian fields (durability codec)
///
/// The payload encoding reuses the durability byte codec (fixed-width
/// little-endian, u32-length-prefixed strings, IEEE-754 bit patterns for
/// doubles), so two encodings of the same message are byte-identical on
/// every platform — the property the loopback byte-identity tests and the
/// torn-frame sweep rest on.
///
/// A conversation is: client writes kRequest frames (pipelining allowed);
/// the server answers each with exactly one frame, either
///   - one kResponse frame with the full completion text, or
///   - one kError frame (shed, draining, or protocol violation) carrying the
///     shed cause and the QoS retry_after_vms hint.
/// Responses come back in completion order, not request order; the `id`
/// field is the correlation key.
///
/// Version 2 dropped version 1's streamed rendering (type 3 chunk frames
/// and the request's chunk-size field). Version 3 dropped the request's
/// priority byte and fixed the header's two flag bytes at zero. A frame of
/// another version, or of type 3, is rejected like any other unknown
/// header.

inline constexpr uint32_t kWireMagic = 0x4E4D444Cu;  // "LDMN" on the wire
inline constexpr uint8_t kWireVersion = 3;
inline constexpr size_t kFrameHeaderBytes = 20;

/// Type codes keep their version-1 values; 3 is unassigned.
enum class FrameType : uint8_t {
  kRequest = 1,
  kResponse = 2,
  kError = 4,
};

/// One submitted request. Mirrors serve::Request. `arrival_vms` rides the
/// wire so a network workload replays the exact admission sequence a
/// direct Submit() of the same requests would — the virtual clock is the
/// workload's, not the transport's. Payload: u64 id, then tenant, skill and
/// input as u32-length-prefixed strings, then f64 deadline_ms and f64
/// arrival_vms.
struct WireRequest {
  uint64_t id = 0;
  std::string tenant;
  std::string skill = "freeform";
  std::string input;
  /// Both finite and >= 0; DecodeRequest rejects anything else.
  double deadline_ms = 0.0;
  double arrival_vms = 0.0;

  bool operator==(const WireRequest&) const = default;
};

/// One completed request. Mirrors the non-shed serve::Response fields; shed
/// outcomes travel as WireError frames instead so the error path carries
/// exactly the refusal metadata (cause + retry hint) and nothing else.
struct WireResponse {
  uint64_t id = 0;
  uint8_t status_code = 0;  // common::StatusCode
  std::string status_message;
  std::string text;
  std::string model;
  int64_t cost_micros = 0;
  double queue_wait_vms = 0.0;
  double service_vms = 0.0;
  double latency_vms = 0.0;
  bool deadline_missed = false;
  bool hedged = false;
  bool hedge_won = false;
  bool coalesced = false;

  bool operator==(const WireResponse&) const = default;
};

/// A refusal: admission shed (kResourceExhausted + shed cause + the
/// cause-specific retry_after_vms hint from serve), server draining
/// (kUnavailable), or a protocol violation (kInvalidArgument). id = 0 when
/// the error is not attributable to a specific request.
struct WireError {
  uint64_t id = 0;
  uint8_t status_code = 0;  // common::StatusCode
  uint8_t shed_cause = 0;   // serve::ShedCause
  double retry_after_vms = 0.0;
  std::string message;

  bool operator==(const WireError&) const = default;
};

/// A decoded frame: type + raw payload bytes (checksum already verified by
/// the decoder).
struct Frame {
  FrameType type = FrameType::kRequest;
  std::string payload;
};

// ---- Frame encoding (header + checksum + payload) ----

/// Wraps `payload` in a checksummed frame header. The only way bytes reach
/// the wire.
std::string EncodeFrame(FrameType type, std::string_view payload);

std::string EncodeRequestFrame(const WireRequest& request);
std::string EncodeResponseFrame(const WireResponse& response);
std::string EncodeErrorFrame(const WireError& error);

// ---- Payload decoding (bounds-checked; kOutOfRange on truncation,
//      kInvalidArgument on trailing garbage) ----

common::Result<WireRequest> DecodeRequest(std::string_view payload);
common::Result<WireResponse> DecodeResponse(std::string_view payload);
common::Result<WireError> DecodeError(std::string_view payload);

/// Incremental frame decoder over an arbitrary chunking of the byte stream.
/// Feed() whatever read(2) produced — a frame torn at any byte boundary
/// across any number of reads reassembles to exactly the frames a one-shot
/// decode would yield (the torn-frame sweep asserts this at every split
/// point). A malformed header (bad magic / version / unknown type /
/// non-zero reserved bytes / oversized length) or checksum mismatch poisons the decoder: Feed()
/// returns the error, keeps returning it, and Next() yields nothing more —
/// a corrupted stream is rejected cleanly, never resynchronized into
/// garbage frames. The transport should close the connection.
class FrameDecoder {
 public:
  struct Options {
    /// A single corrupted length prefix must not become a multi-gigabyte
    /// buffered allocation.
    size_t max_frame_bytes = 64u << 20;
  };

  FrameDecoder() : FrameDecoder(Options{}) {}
  explicit FrameDecoder(const Options& options) : options_(options) {}

  /// Buffers `data` and decodes every complete frame in it onto the ready
  /// queue. Returns the first protocol error encountered (sticky).
  common::Status Feed(std::string_view data);

  /// Pops the next fully decoded frame; false when none is ready.
  bool Next(Frame* frame);

  /// Bytes buffered waiting for the rest of a frame (flow-control input).
  size_t buffered_bytes() const { return buffer_.size(); }
  const common::Status& error() const { return error_; }

 private:
  Options options_;
  std::string buffer_;
  std::deque<Frame> ready_;
  common::Status error_;
};

}  // namespace llmdm::net

#endif  // LLMDM_NET_WIRE_H_
