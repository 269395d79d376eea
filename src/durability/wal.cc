#include "durability/wal.h"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>

#include "common/hash.h"
#include "durability/format.h"

namespace llmdm::durability {

namespace {

constexpr char kWalMagic[8] = {'L', 'D', 'M', 'W', 'A', 'L', '0', '1'};
// Corruption guard: a torn length prefix must not be believed when it claims
// a record bigger than anything the library writes.
constexpr uint32_t kMaxRecordLen = 1u << 30;

std::string HeaderBytes(uint64_t epoch) {
  std::string h;
  h.append(kWalMagic, sizeof(kWalMagic));
  AppendU32(&h, kWalVersion);
  AppendU64(&h, epoch);
  return h;
}

common::Status WriteFully(int fd, const char* data, size_t n) {
  size_t off = 0;
  while (off < n) {
    ssize_t w = ::write(fd, data + off, n - off);
    if (w < 0) {
      if (errno == EINTR) continue;
      return common::Status::Internal(std::string("write: ") +
                                      std::strerror(errno));
    }
    off += static_cast<size_t>(w);
  }
  return common::Status::Ok();
}

}  // namespace

WalWriter::WalWriter(std::string path, int fd, uint64_t epoch, uint64_t size,
                     bool fsync)
    : path_(std::move(path)),
      fd_(fd),
      epoch_(epoch),
      size_(size),
      fsync_(fsync) {}

WalWriter::~WalWriter() {
  if (fd_ >= 0) {
    if (fsync_) ::fdatasync(fd_);
    ::close(fd_);
  }
}

common::Result<std::unique_ptr<WalWriter>> WalWriter::Create(
    const std::string& path, uint64_t epoch, bool fsync) {
  int fd = ::open(path.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC,
                  0644);
  if (fd < 0) {
    return common::Status::Internal("open(" + path +
                                    "): " + std::strerror(errno));
  }
  std::string header = HeaderBytes(epoch);
  common::Status s = WriteFully(fd, header.data(), header.size());
  if (s.ok() && fsync && ::fdatasync(fd) != 0) {
    s = common::Status::Internal("fdatasync(" + path +
                                 "): " + std::strerror(errno));
  }
  if (!s.ok()) {
    ::close(fd);
    return s;
  }
  return std::unique_ptr<WalWriter>(
      new WalWriter(path, fd, epoch, header.size(), fsync));
}

common::Result<std::unique_ptr<WalWriter>> WalWriter::OpenForAppend(
    const std::string& path, uint64_t epoch, uint64_t valid_size,
    bool fsync) {
  int fd = ::open(path.c_str(), O_WRONLY | O_CLOEXEC);
  if (fd < 0) {
    return common::Status::Internal("open(" + path +
                                    "): " + std::strerror(errno));
  }
  // Cut the torn tail before the first new append: the verified prefix must
  // be contiguous with everything written from here on.
  if (::ftruncate(fd, static_cast<off_t>(valid_size)) != 0) {
    int err = errno;
    ::close(fd);
    return common::Status::Internal("ftruncate(" + path +
                                    "): " + std::strerror(err));
  }
  if (::lseek(fd, 0, SEEK_END) < 0) {
    int err = errno;
    ::close(fd);
    return common::Status::Internal("lseek(" + path +
                                    "): " + std::strerror(err));
  }
  if (fsync && ::fdatasync(fd) != 0) {
    int err = errno;
    ::close(fd);
    return common::Status::Internal("fdatasync(" + path +
                                    "): " + std::strerror(err));
  }
  return std::unique_ptr<WalWriter>(
      new WalWriter(path, fd, epoch, valid_size, fsync));
}

common::Status WalWriter::Append(std::string_view payload) {
  std::string record;
  record.reserve(kWalRecordOverhead + payload.size());
  AppendU32(&record, static_cast<uint32_t>(payload.size()));
  AppendU64(&record, common::Fnv1a(payload));
  record.append(payload.data(), payload.size());

  std::lock_guard<std::mutex> lock(mu_);
  LLMDM_RETURN_IF_ERROR(CrashedLocked());
  size_t to_write = record.size();
  if (crash_after_bytes_ >= 0) {
    to_write = std::min<size_t>(
        to_write, static_cast<uint64_t>(crash_after_bytes_) - size_);
  }
  LLMDM_RETURN_IF_ERROR(WriteFully(fd_, record.data(), to_write));
  size_ += to_write;
  if (to_write < record.size()) {
    return common::Status::Aborted("simulated crash: record torn at byte " +
                                   std::to_string(size_));
  }
  return common::Status::Ok();
}

common::Status WalWriter::CrashedLocked() const {
  if (crash_after_bytes_ >= 0 &&
      size_ >= static_cast<uint64_t>(crash_after_bytes_)) {
    return common::Status::Aborted("simulated crash: WAL write limit hit");
  }
  return common::Status::Ok();
}

common::Status WalWriter::Sync() {
  std::lock_guard<std::mutex> lock(mu_);
  LLMDM_RETURN_IF_ERROR(CrashedLocked());
  if (::fdatasync(fd_) != 0) {
    return common::Status::Internal("fdatasync(" + path_ +
                                    "): " + std::strerror(errno));
  }
  return common::Status::Ok();
}

uint64_t WalWriter::size_bytes() const {
  std::lock_guard<std::mutex> lock(mu_);
  return size_;
}

void WalWriter::set_crash_after_bytes(int64_t n) {
  std::lock_guard<std::mutex> lock(mu_);
  crash_after_bytes_ = n;
}

bool PeekWalHeader(std::string_view bytes, uint64_t* epoch) {
  if (bytes.size() < kWalHeaderSize ||
      std::memcmp(bytes.data(), kWalMagic, sizeof(kWalMagic)) != 0) {
    return false;
  }
  ByteReader header(bytes.substr(sizeof(kWalMagic),
                                 kWalHeaderSize - sizeof(kWalMagic)));
  uint32_t version = 0;
  uint64_t e = 0;
  if (!header.ReadU32(&version).ok() || !header.ReadU64(&e).ok()) return false;
  if (version != kWalVersion) return false;
  *epoch = e;
  return true;
}

common::Result<WalReplayResult> ReplayWal(
    std::string_view bytes,
    const std::function<common::Status(std::string_view)>& fn) {
  WalReplayResult out;

  // Header: anything short of a full, matching header means "no committed
  // records" (crash before the first sync, or a foreign file) — a valid
  // empty log, with every byte reported as discarded.
  if (bytes.size() < kWalHeaderSize ||
      std::memcmp(bytes.data(), kWalMagic, sizeof(kWalMagic)) != 0) {
    out.discarded_bytes = bytes.size();
    out.torn_tail = !bytes.empty();
    return out;
  }
  ByteReader header(bytes.substr(sizeof(kWalMagic), kWalHeaderSize -
                                                        sizeof(kWalMagic)));
  uint32_t version = 0;
  (void)header.ReadU32(&version).ok();
  (void)header.ReadU64(&out.epoch).ok();
  if (version != kWalVersion) {
    out.discarded_bytes = bytes.size();
    out.torn_tail = true;
    return out;
  }
  out.header_valid = true;
  out.valid_bytes = kWalHeaderSize;

  size_t off = kWalHeaderSize;
  while (off < bytes.size()) {
    if (bytes.size() - off < kWalRecordOverhead) break;  // torn record header
    ByteReader rec(bytes.substr(off, kWalRecordOverhead));
    uint32_t len = 0;
    uint64_t checksum = 0;
    (void)rec.ReadU32(&len).ok();
    (void)rec.ReadU64(&checksum).ok();
    if (len > kMaxRecordLen) break;  // corrupt length prefix
    if (bytes.size() - off - kWalRecordOverhead < len) break;  // torn payload
    std::string_view payload = bytes.substr(off + kWalRecordOverhead, len);
    if (common::Fnv1a(payload) != checksum) break;  // garbled payload
    LLMDM_RETURN_IF_ERROR(fn(payload));
    off += kWalRecordOverhead + len;
    ++out.records;
    out.valid_bytes = off;
  }
  out.discarded_bytes = bytes.size() - out.valid_bytes;
  out.torn_tail = out.discarded_bytes > 0;
  return out;
}

}  // namespace llmdm::durability
