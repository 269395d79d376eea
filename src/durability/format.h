#ifndef LLMDM_DURABILITY_FORMAT_H_
#define LLMDM_DURABILITY_FORMAT_H_

#include <cstdint>
#include <string>
#include <string_view>

#include "common/status.h"

namespace llmdm::durability {

/// Byte-level encoding shared by the WAL and snapshot formats. Everything is
/// explicit little-endian fixed width, so files written on one platform
/// replay on any other and two serializations of the same state are
/// byte-identical — the property every crash-consistency assertion in the
/// durability suite rests on. Doubles are written as raw IEEE-754 bit
/// patterns (bit-stable, no text round-trip).

void AppendU8(std::string* out, uint8_t v);
void AppendU32(std::string* out, uint32_t v);
void AppendU64(std::string* out, uint64_t v);
void AppendI64(std::string* out, int64_t v);
/// Raw IEEE-754 double bit pattern.
void AppendF64(std::string* out, double v);
/// u32 length prefix + raw bytes.
void AppendString(std::string* out, std::string_view s);

/// Bounds-checked sequential reader over a serialized buffer. Every Read
/// fails with kOutOfRange instead of reading past the end, so a truncated or
/// corrupted payload surfaces as a clean Status — never as UB. The reader
/// does not own the bytes; keep the backing buffer (or mmap) alive.
class ByteReader {
 public:
  explicit ByteReader(std::string_view data) : data_(data) {}

  common::Status ReadU8(uint8_t* v);
  common::Status ReadU32(uint32_t* v);
  common::Status ReadU64(uint64_t* v);
  common::Status ReadI64(int64_t* v);
  common::Status ReadF64(double* v);
  common::Status ReadString(std::string* s);

  size_t remaining() const { return data_.size() - offset_; }
  bool empty() const { return remaining() == 0; }
  size_t offset() const { return offset_; }

 private:
  common::Status Take(size_t n, const char** p);

  std::string_view data_;
  size_t offset_ = 0;
};

}  // namespace llmdm::durability

#endif  // LLMDM_DURABILITY_FORMAT_H_
