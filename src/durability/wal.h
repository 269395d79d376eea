#ifndef LLMDM_DURABILITY_WAL_H_
#define LLMDM_DURABILITY_WAL_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>

#include "common/result.h"
#include "common/status.h"

namespace llmdm::durability {

/// Append-only write-ahead log. On-disk layout:
///
///   header:  [8B magic "LDMWAL01"] [u32 version=2] [u64 epoch]
///   record:  [u32 payload_len] [u64 fnv1a(payload)] [payload bytes]*
///
/// Each Append issues the whole record as one write(2), so a crash leaves at
/// most one torn record at the tail — and the reader's contract is to stop
/// cleanly at the first record whose length or checksum does not verify,
/// treating everything before it as the committed prefix. The epoch ties a
/// WAL to the snapshot it extends (see DurableStore): records only make
/// sense on top of the matching base image.
constexpr size_t kWalHeaderSize = 8 + 4 + 8;
constexpr size_t kWalRecordOverhead = 4 + 8;
/// Bumped with kSnapshotVersion (2: cache records name entries by id). A
/// WAL of any other version replays as zero records.
constexpr uint32_t kWalVersion = 2;

class WalWriter {
 public:
  /// Creates (or truncates) the file, writes the header, fsyncs.
  static common::Result<std::unique_ptr<WalWriter>> Create(
      const std::string& path, uint64_t epoch, bool fsync);

  /// Opens an existing WAL for append. `valid_size` is the verified prefix
  /// length from replay (header + complete records); the file is truncated
  /// to it first, so a torn tail can never sit between old and new records.
  static common::Result<std::unique_ptr<WalWriter>> OpenForAppend(
      const std::string& path, uint64_t epoch, uint64_t valid_size,
      bool fsync);

  ~WalWriter();
  WalWriter(const WalWriter&) = delete;
  WalWriter& operator=(const WalWriter&) = delete;

  /// Appends one length-prefixed checksummed record with a single write
  /// call. Thread-safe.
  common::Status Append(std::string_view payload);

  /// fdatasync(2) the file.
  common::Status Sync();

  /// Bytes written: header + appended records.
  uint64_t size_bytes() const;
  uint64_t epoch() const { return epoch_; }
  const std::string& path() const { return path_; }

  /// Crash-injection hook for the durability harness: once the file would
  /// grow past `n` bytes, Append writes only the bytes up to the limit
  /// (possibly tearing a record mid-header or mid-payload) and then fails
  /// every subsequent Append and Sync with kAborted — the exact shape a
  /// power cut leaves behind, made deterministic. Negative disables
  /// (default).
  void set_crash_after_bytes(int64_t n);

 private:
  WalWriter(std::string path, int fd, uint64_t epoch, uint64_t size,
            bool fsync);

  /// kAborted once crash injection has cut the file at its limit: the
  /// simulated power cut already happened and the writer stays dead.
  common::Status CrashedLocked() const;

  std::string path_;
  mutable std::mutex mu_;
  int fd_ = -1;
  uint64_t epoch_ = 0;
  uint64_t size_ = 0;  // bytes written (possibly not yet synced)
  bool fsync_ = true;
  int64_t crash_after_bytes_ = -1;
};

/// Outcome of scanning one WAL.
struct WalReplayResult {
  /// Header parsed and magic/version matched. False for empty, partially
  /// written, or foreign files — which replay as zero records, not errors
  /// (a crash before the first sync must recover to empty-but-valid).
  bool header_valid = false;
  uint64_t epoch = 0;
  size_t records = 0;
  /// Verified prefix: header + complete checksummed records. Pass to
  /// WalWriter::OpenForAppend.
  uint64_t valid_bytes = 0;
  /// Bytes after the verified prefix (torn tail, checksum mismatch, or
  /// garbage). Recovery discards them.
  uint64_t discarded_bytes = 0;
  bool torn_tail = false;
};

/// Parses just the WAL header out of `bytes`. Returns false (without
/// touching `epoch`) when the header is short, foreign, or of the wrong
/// version. Recovery uses this to reject a WAL whose embedded epoch
/// disagrees with its filename *before* replaying any of its records.
bool PeekWalHeader(std::string_view bytes, uint64_t* epoch);

/// Replays the WAL bytes `bytes` (a mapped file), invoking `fn` once per
/// valid record in order. Stops cleanly at the first record that fails its
/// length or checksum; a torn tail is reported, never an error. The one
/// error is `fn` itself failing (a component replay failure is real and
/// aborts recovery).
common::Result<WalReplayResult> ReplayWal(
    std::string_view bytes,
    const std::function<common::Status(std::string_view)>& fn);

}  // namespace llmdm::durability

#endif  // LLMDM_DURABILITY_WAL_H_
