#ifndef LLMDM_DURABILITY_SNAPSHOT_H_
#define LLMDM_DURABILITY_SNAPSHOT_H_

#include <cstdint>
#include <string>
#include <string_view>

#include "common/status.h"

namespace llmdm::durability {

/// Point-in-time snapshot file. On-disk layout:
///
///   [8B magic "LDMSNAP1"] [u32 version=2] [u64 epoch]
///   [u64 payload_len] [payload bytes] [u64 fnv1a(version..payload)]
///
/// The checksum trails the payload so a crash mid-write cannot leave a file
/// that both claims its full length and carries a matching checksum — and it
/// covers every header field after the magic, not just the payload, so a
/// corrupted epoch can never validate and pair the image with the wrong WAL.
/// Publication is atomic: the bytes go to `<path>.tmp`, are fsynced, and the
/// tmp is renamed over `<path>` (then the directory is fsynced), so `<path>`
/// only ever names a complete image or the previous one — never a partial.
constexpr size_t kSnapshotHeaderSize = 8 + 4 + 8 + 8;
/// Bumped when the component payload changes (2: semantic-cache entries are
/// keyed by ids that are never reused). A file of any other version does
/// not parse, so recovery falls back to empty-but-valid; there is no reader
/// for an older layout.
constexpr uint32_t kSnapshotVersion = 2;

/// Result of validating mapped snapshot bytes. A structurally broken file
/// (short, foreign magic, bad length, checksum mismatch) comes back with
/// valid=false rather than an error status: recovery's contract is to fall
/// back to empty-but-valid, and the caller decides whether that is fatal.
struct SnapshotView {
  bool valid = false;
  uint64_t epoch = 0;
  std::string_view payload;  // borrows the caller's buffer/mapping
};

SnapshotView ParseSnapshot(std::string_view bytes);

/// Atomically publishes `payload` as the snapshot at `path` (tmp + fsync +
/// rename + directory fsync). When `fsync` is false the sync calls are
/// skipped (tests on tmpfs); the rename is still atomic.
common::Status WriteSnapshotFile(const std::string& path, uint64_t epoch,
                                 std::string_view payload, bool fsync);

}  // namespace llmdm::durability

#endif  // LLMDM_DURABILITY_SNAPSHOT_H_
