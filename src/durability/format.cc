#include "durability/format.h"

#include <cstring>

namespace llmdm::durability {

namespace {
// A single corrupted length prefix must not turn into a multi-gigabyte
// allocation: any length beyond this is treated as corruption. Far above any
// payload the library writes (the largest are whole-cache snapshots).
constexpr uint32_t kMaxLength = 1u << 30;
}  // namespace

void AppendU8(std::string* out, uint8_t v) {
  out->push_back(static_cast<char>(v));
}

void AppendU32(std::string* out, uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    out->push_back(static_cast<char>((v >> (8 * i)) & 0xFF));
  }
}

void AppendU64(std::string* out, uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    out->push_back(static_cast<char>((v >> (8 * i)) & 0xFF));
  }
}

void AppendI64(std::string* out, int64_t v) {
  AppendU64(out, static_cast<uint64_t>(v));
}

void AppendF64(std::string* out, double v) {
  uint64_t bits;
  std::memcpy(&bits, &v, sizeof(bits));
  AppendU64(out, bits);
}

void AppendString(std::string* out, std::string_view s) {
  AppendU32(out, static_cast<uint32_t>(s.size()));
  out->append(s.data(), s.size());
}

common::Status ByteReader::Take(size_t n, const char** p) {
  if (n > remaining()) {
    return common::Status::OutOfRange(
        "serialized payload truncated: need " + std::to_string(n) +
        " bytes at offset " + std::to_string(offset_) + ", have " +
        std::to_string(remaining()));
  }
  *p = data_.data() + offset_;
  offset_ += n;
  return common::Status::Ok();
}

common::Status ByteReader::ReadU8(uint8_t* v) {
  const char* p = nullptr;
  LLMDM_RETURN_IF_ERROR(Take(1, &p));
  *v = static_cast<uint8_t>(*p);
  return common::Status::Ok();
}

common::Status ByteReader::ReadU32(uint32_t* v) {
  const char* p = nullptr;
  LLMDM_RETURN_IF_ERROR(Take(4, &p));
  uint32_t out = 0;
  for (int i = 0; i < 4; ++i) {
    out |= static_cast<uint32_t>(static_cast<unsigned char>(p[i])) << (8 * i);
  }
  *v = out;
  return common::Status::Ok();
}

common::Status ByteReader::ReadU64(uint64_t* v) {
  const char* p = nullptr;
  LLMDM_RETURN_IF_ERROR(Take(8, &p));
  uint64_t out = 0;
  for (int i = 0; i < 8; ++i) {
    out |= static_cast<uint64_t>(static_cast<unsigned char>(p[i])) << (8 * i);
  }
  *v = out;
  return common::Status::Ok();
}

common::Status ByteReader::ReadI64(int64_t* v) {
  uint64_t u = 0;
  LLMDM_RETURN_IF_ERROR(ReadU64(&u));
  *v = static_cast<int64_t>(u);
  return common::Status::Ok();
}

common::Status ByteReader::ReadF64(double* v) {
  uint64_t bits = 0;
  LLMDM_RETURN_IF_ERROR(ReadU64(&bits));
  std::memcpy(v, &bits, sizeof(*v));
  return common::Status::Ok();
}

common::Status ByteReader::ReadString(std::string* s) {
  uint32_t len = 0;
  LLMDM_RETURN_IF_ERROR(ReadU32(&len));
  if (len > kMaxLength) {
    return common::Status::OutOfRange("string length " + std::to_string(len) +
                                      " exceeds sanity cap");
  }
  const char* p = nullptr;
  LLMDM_RETURN_IF_ERROR(Take(len, &p));
  s->assign(p, len);
  return common::Status::Ok();
}

}  // namespace llmdm::durability
