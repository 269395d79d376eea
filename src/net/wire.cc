#include "net/wire.h"

#include <cmath>
#include <cstring>

#include "common/hash.h"
#include "common/string_util.h"
#include "durability/format.h"

namespace llmdm::net {

namespace {

using durability::AppendF64;
using durability::AppendString;
using durability::AppendU32;
using durability::AppendU64;
using durability::AppendU8;
using durability::ByteReader;
using durability::AppendI64;

/// Checksum contract: FNV-1a over the payload, seeded with the FNV-1a of the
/// first 12 header bytes (magic..length). Computed identically by encoder
/// and decoder; a flipped bit anywhere in the frame fails the comparison.
uint64_t FrameChecksum(std::string_view header12, std::string_view payload) {
  return common::Fnv1a(payload, common::Fnv1a(header12));
}

bool ValidFrameType(uint8_t t) {
  switch (static_cast<FrameType>(t)) {
    case FrameType::kRequest:
    case FrameType::kResponse:
    case FrameType::kError:
      return true;
  }
  return false;
}

/// All payload decoders must consume the payload exactly: trailing bytes
/// mean the peer speaks a different (newer?) dialect and silently ignoring
/// them would mask that.
common::Status CheckFullyConsumed(const ByteReader& reader,
                                  const char* what) {
  if (!reader.empty()) {
    return common::Status::InvalidArgument(common::StrFormat(
        "%s payload has %zu trailing bytes", what, reader.remaining()));
  }
  return common::Status::Ok();
}

}  // namespace

std::string EncodeFrame(FrameType type, std::string_view payload) {
  std::string frame;
  frame.reserve(kFrameHeaderBytes + payload.size());
  AppendU32(&frame, kWireMagic);
  AppendU8(&frame, kWireVersion);
  AppendU8(&frame, static_cast<uint8_t>(type));
  frame.append(2, '\0');  // reserved
  AppendU32(&frame, static_cast<uint32_t>(payload.size()));
  AppendU64(&frame, FrameChecksum(std::string_view(frame.data(), 12), payload));
  frame.append(payload.data(), payload.size());
  return frame;
}

std::string EncodeRequestFrame(const WireRequest& request) {
  std::string payload;
  AppendU64(&payload, request.id);
  AppendString(&payload, request.tenant);
  AppendString(&payload, request.skill);
  AppendString(&payload, request.input);
  AppendF64(&payload, request.deadline_ms);
  AppendF64(&payload, request.arrival_vms);
  return EncodeFrame(FrameType::kRequest, payload);
}

std::string EncodeResponseFrame(const WireResponse& response) {
  std::string payload;
  AppendU64(&payload, response.id);
  AppendU8(&payload, response.status_code);
  AppendString(&payload, response.status_message);
  AppendString(&payload, response.text);
  AppendString(&payload, response.model);
  AppendI64(&payload, response.cost_micros);
  AppendF64(&payload, response.queue_wait_vms);
  AppendF64(&payload, response.service_vms);
  AppendF64(&payload, response.latency_vms);
  uint8_t bits = 0;
  if (response.deadline_missed) bits |= 1u << 0;
  if (response.hedged) bits |= 1u << 1;
  if (response.hedge_won) bits |= 1u << 2;
  if (response.coalesced) bits |= 1u << 3;
  AppendU8(&payload, bits);
  return EncodeFrame(FrameType::kResponse, payload);
}

std::string EncodeErrorFrame(const WireError& error) {
  std::string payload;
  AppendU64(&payload, error.id);
  AppendU8(&payload, error.status_code);
  AppendU8(&payload, error.shed_cause);
  AppendF64(&payload, error.retry_after_vms);
  AppendString(&payload, error.message);
  return EncodeFrame(FrameType::kError, payload);
}

common::Result<WireRequest> DecodeRequest(std::string_view payload) {
  ByteReader reader(payload);
  WireRequest r;
  LLMDM_RETURN_IF_ERROR(reader.ReadU64(&r.id));
  LLMDM_RETURN_IF_ERROR(reader.ReadString(&r.tenant));
  LLMDM_RETURN_IF_ERROR(reader.ReadString(&r.skill));
  LLMDM_RETURN_IF_ERROR(reader.ReadString(&r.input));
  LLMDM_RETURN_IF_ERROR(reader.ReadF64(&r.deadline_ms));
  LLMDM_RETURN_IF_ERROR(reader.ReadF64(&r.arrival_vms));
  LLMDM_RETURN_IF_ERROR(CheckFullyConsumed(reader, "request"));
  // Client-supplied virtual time: one +inf or NaN arrival would pin the
  // server's shared arrival high-water mark, and with it every later
  // arrival from every connection.
  for (double v : {r.deadline_ms, r.arrival_vms}) {
    if (!std::isfinite(v) || v < 0.0) {
      return common::Status::InvalidArgument(common::StrFormat(
          "request virtual time %g is not a finite non-negative value", v));
    }
  }
  return r;
}

common::Result<WireResponse> DecodeResponse(std::string_view payload) {
  ByteReader reader(payload);
  WireResponse r;
  uint8_t bits = 0;
  LLMDM_RETURN_IF_ERROR(reader.ReadU64(&r.id));
  LLMDM_RETURN_IF_ERROR(reader.ReadU8(&r.status_code));
  LLMDM_RETURN_IF_ERROR(reader.ReadString(&r.status_message));
  LLMDM_RETURN_IF_ERROR(reader.ReadString(&r.text));
  LLMDM_RETURN_IF_ERROR(reader.ReadString(&r.model));
  LLMDM_RETURN_IF_ERROR(reader.ReadI64(&r.cost_micros));
  LLMDM_RETURN_IF_ERROR(reader.ReadF64(&r.queue_wait_vms));
  LLMDM_RETURN_IF_ERROR(reader.ReadF64(&r.service_vms));
  LLMDM_RETURN_IF_ERROR(reader.ReadF64(&r.latency_vms));
  LLMDM_RETURN_IF_ERROR(reader.ReadU8(&bits));
  LLMDM_RETURN_IF_ERROR(CheckFullyConsumed(reader, "response"));
  r.deadline_missed = (bits & (1u << 0)) != 0;
  r.hedged = (bits & (1u << 1)) != 0;
  r.hedge_won = (bits & (1u << 2)) != 0;
  r.coalesced = (bits & (1u << 3)) != 0;
  return r;
}

common::Result<WireError> DecodeError(std::string_view payload) {
  ByteReader reader(payload);
  WireError e;
  LLMDM_RETURN_IF_ERROR(reader.ReadU64(&e.id));
  LLMDM_RETURN_IF_ERROR(reader.ReadU8(&e.status_code));
  LLMDM_RETURN_IF_ERROR(reader.ReadU8(&e.shed_cause));
  LLMDM_RETURN_IF_ERROR(reader.ReadF64(&e.retry_after_vms));
  LLMDM_RETURN_IF_ERROR(reader.ReadString(&e.message));
  LLMDM_RETURN_IF_ERROR(CheckFullyConsumed(reader, "error"));
  return e;
}

common::Status FrameDecoder::Feed(std::string_view data) {
  if (!error_.ok()) return error_;
  buffer_.append(data.data(), data.size());
  for (;;) {
    if (buffer_.size() < kFrameHeaderBytes) return common::Status::Ok();
    ByteReader header(std::string_view(buffer_.data(), kFrameHeaderBytes));
    uint32_t magic = 0, length = 0;
    uint8_t version = 0, type = 0, reserved_lo = 0, reserved_hi = 0;
    uint64_t checksum = 0;
    // Header reads over a 20-byte view cannot fail; statuses are asserted
    // away by construction but still checked to honour [[nodiscard]].
    common::Status hs = header.ReadU32(&magic);
    if (hs.ok()) hs = header.ReadU8(&version);
    if (hs.ok()) hs = header.ReadU8(&type);
    if (hs.ok()) hs = header.ReadU8(&reserved_lo);
    if (hs.ok()) hs = header.ReadU8(&reserved_hi);
    if (hs.ok()) hs = header.ReadU32(&length);
    if (hs.ok()) hs = header.ReadU64(&checksum);
    if (!hs.ok()) {
      error_ = hs;
      return error_;
    }
    if (magic != kWireMagic) {
      error_ = common::Status::InvalidArgument(
          common::StrFormat("bad frame magic 0x%08x", magic));
      return error_;
    }
    if (version != kWireVersion) {
      error_ = common::Status::InvalidArgument(common::StrFormat(
          "unsupported wire version %u (this build speaks %u)", version,
          kWireVersion));
      return error_;
    }
    if (!ValidFrameType(type)) {
      error_ = common::Status::InvalidArgument(
          common::StrFormat("unknown frame type %u", type));
      return error_;
    }
    if (reserved_lo != 0 || reserved_hi != 0) {
      error_ = common::Status::InvalidArgument(common::StrFormat(
          "reserved header bytes 0x%02x%02x are not zero", reserved_hi,
          reserved_lo));
      return error_;
    }
    if (length > options_.max_frame_bytes) {
      error_ = common::Status::InvalidArgument(common::StrFormat(
          "frame length %u exceeds cap %zu", length, options_.max_frame_bytes));
      return error_;
    }
    if (buffer_.size() < kFrameHeaderBytes + length) {
      return common::Status::Ok();  // torn frame: wait for the next read
    }
    std::string_view payload(buffer_.data() + kFrameHeaderBytes, length);
    uint64_t expect =
        common::Fnv1a(payload, common::Fnv1a(std::string_view(buffer_.data(), 12)));
    if (expect != checksum) {
      error_ = common::Status::InvalidArgument(common::StrFormat(
          "frame checksum mismatch (expected %016llx, header says %016llx)",
          static_cast<unsigned long long>(expect),
          static_cast<unsigned long long>(checksum)));
      return error_;
    }
    Frame frame;
    frame.type = static_cast<FrameType>(type);
    frame.payload.assign(payload.data(), payload.size());
    ready_.push_back(std::move(frame));
    buffer_.erase(0, kFrameHeaderBytes + length);
  }
}

bool FrameDecoder::Next(Frame* frame) {
  if (ready_.empty()) return false;
  *frame = std::move(ready_.front());
  ready_.pop_front();
  return true;
}

}  // namespace llmdm::net
