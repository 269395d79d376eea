// Deterministic crash-injection harness for the durability subsystem.
//
// The contract under test: recovery after a crash yields exactly the state
// described by the snapshot plus the longest clean prefix of the WAL —
// nothing more, nothing less, at EVERY possible crash point.
//
//   sweep mode: run a scripted workload against a DurableStore (with a
//     mid-run checkpoint, so both the snapshot and the WAL carry state),
//     then for every truncation offset B of the resulting WAL — each byte
//     with --stride=1, sampled plus all record boundaries otherwise —
//     simulate the crash by copying the files with the WAL cut at B,
//     recover a fresh cache, and compare its serialized image against a
//     reference built *independently*: this file re-parses the WAL's record
//     framing with its own scanner (lengths + FNV-1a checksums) and applies
//     the surviving payloads on top of the parsed snapshot. Recovery and
//     reference must agree byte-for-byte, and a second recovery from the
//     already-recovered files must be a no-op (idempotence).
//
//   point mode: instead of truncating files after the fact, arm
//     WalWriter::set_crash_after_bytes mid-workload so the writer itself
//     tears a record at --crash-after-bytes and refuses further writes —
//     the in-process shape of a power cut — then recover from whatever
//     actually reached the file and run the same comparison.
//
// The component under test is the semantic cache (insert/refresh/evict),
// the one durable component. Exit 0 when every offset agrees; 1
// on the first divergence; 2 on usage errors.
//
// scripts/verify.sh runs the sweep as its crash-sweep stage.

#include <dirent.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <set>
#include <string>
#include <vector>

#include "common/hash.h"
#include "common/money.h"
#include "core/optimize/semantic_cache.h"
#include "durability/format.h"
#include "durability/snapshot.h"
#include "durability/store.h"
#include "durability/wal.h"

namespace llmdm {
namespace {

// ---------------------------------------------------------------------------
// The scripted, deterministic workload.

optimize::SemanticCache::Options CacheOptions() {
  optimize::SemanticCache::Options options;
  options.capacity = 6;
  options.num_shards = 2;
  return options;
}

// Cycles through a query set larger than capacity, so the stream exercises
// fresh inserts, refreshes of resident queries and evictions — all three
// WAL op kinds.
void ApplyOp(optimize::SemanticCache& cache, size_t i) {
  const std::string query = "harness query " + std::to_string(i % 11);
  cache.Insert(query, "response for op " + std::to_string(i),
               common::Money::FromMicros(250 + static_cast<int64_t>(i) * 13));
}

// ---------------------------------------------------------------------------
// Filesystem helpers (plain POSIX; no dependency on the code under test).

bool ReadFileBytes(const std::string& path, std::string* out) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return false;
  out->assign(std::istreambuf_iterator<char>(in),
              std::istreambuf_iterator<char>());
  return true;
}

bool WriteFileBytes(const std::string& path, std::string_view bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) return false;
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  return static_cast<bool>(out);
}

bool EnsureEmptyDir(const std::string& path) {
  ::mkdir(path.c_str(), 0755);  // EEXIST is fine; we clear it next
  DIR* dir = ::opendir(path.c_str());
  if (dir == nullptr) return false;
  std::vector<std::string> names;
  while (struct dirent* entry = ::readdir(dir)) {
    const std::string name = entry->d_name;
    if (name != "." && name != "..") names.push_back(name);
  }
  ::closedir(dir);
  for (const std::string& name : names) {
    ::unlink((path + "/" + name).c_str());
  }
  return true;
}

// ---------------------------------------------------------------------------
// Independent WAL scanner. Deliberately NOT ReplayWal: the harness
// re-derives the record framing from the documented format so a bug in the
// production reader cannot hide behind itself.

uint64_t ReadLe(const char* p, size_t width) {
  uint64_t v = 0;
  for (size_t i = width; i-- > 0;) {
    v = (v << 8) | static_cast<uint8_t>(p[i]);
  }
  return v;
}

struct WalScan {
  bool header_valid = false;
  uint64_t epoch = 0;
  std::vector<std::string> payloads;  // the clean prefix, in order
  uint64_t valid_bytes = 0;           // header + complete verified records
};

WalScan ScanWalBytes(std::string_view bytes) {
  WalScan scan;
  if (bytes.size() < durability::kWalHeaderSize) return scan;
  if (bytes.substr(0, 8) != "LDMWAL01") return scan;
  if (ReadLe(bytes.data() + 8, 4) != durability::kWalVersion) return scan;
  scan.header_valid = true;
  scan.epoch = ReadLe(bytes.data() + 12, 8);
  size_t offset = durability::kWalHeaderSize;
  scan.valid_bytes = offset;
  while (bytes.size() - offset >= durability::kWalRecordOverhead) {
    const uint64_t len = ReadLe(bytes.data() + offset, 4);
    const uint64_t sum = ReadLe(bytes.data() + offset + 4, 8);
    const size_t body = offset + durability::kWalRecordOverhead;
    if (len > bytes.size() - body) break;  // torn: length outruns the file
    std::string_view payload = bytes.substr(body, len);
    if (common::Fnv1a(payload) != sum) break;  // torn or corrupt
    scan.payloads.emplace_back(payload);
    offset = body + len;
    scan.valid_bytes = offset;
  }
  return scan;
}

/// Record boundaries (file offsets where a clean prefix ends) of a pristine
/// WAL — the crash points most worth hitting when a stride skips bytes.
std::vector<uint64_t> RecordBoundaries(std::string_view bytes) {
  std::vector<uint64_t> offsets;
  WalScan scan = ScanWalBytes(bytes);
  if (!scan.header_valid) return offsets;
  size_t offset = durability::kWalHeaderSize;
  offsets.push_back(offset);
  for (const std::string& p : scan.payloads) {
    offset += durability::kWalRecordOverhead + p.size();
    offsets.push_back(offset);
  }
  return offsets;
}

// ---------------------------------------------------------------------------
// The check itself.

struct HarnessConfig {
  std::string mode = "sweep";
  std::string dir;
  size_t ops = 30;
  size_t stride = 1;
  int64_t crash_after_bytes = -1;
};

std::string Serialize(const optimize::SemanticCache& cache) {
  std::string image;
  cache.SaveSnapshot(&image).ok();
  return image;
}

int Fail(const std::string& what) {
  std::fprintf(stderr, "FAIL: %s\n", what.c_str());
  return 1;
}

/// Runs the scripted workload with a checkpoint a third of the way in (so
/// recovery must combine snapshot and WAL). Returns false on setup errors.
bool RunWorkload(const HarnessConfig& config, optimize::SemanticCache& cache,
                 durability::DurableStore* store) {
  for (size_t i = 0; i < config.ops; ++i) {
    if (i == config.ops / 3) {
      if (!store->Checkpoint().ok()) return false;
      if (config.mode == "point") {
        store->set_crash_after_bytes(config.crash_after_bytes);
      }
    }
    ApplyOp(cache, i);
  }
  store->Sync().ok();  // fails under point-mode injection, by design
  return true;
}

/// Recovers a fresh cache from `work_dir`, checks it against the
/// independently built reference for `wal_bytes`, and checks that a second
/// recovery of the now-repaired directory is a no-op. `label` names the
/// crash point in failure messages.
int CheckRecovery(const std::string& work_dir, const std::string& snap_bytes,
                  std::string_view wal_bytes, const std::string& label) {
  // Reference: parsed snapshot + clean WAL prefix, applied directly.
  WalScan scan = ScanWalBytes(wal_bytes);
  optimize::SemanticCache ref(CacheOptions());
  ref.ResetToEmpty();
  durability::SnapshotView view = durability::ParseSnapshot(snap_bytes);
  if (!view.valid) return Fail(label + ": pristine snapshot failed to parse");
  durability::ByteReader reader(view.payload);
  if (!ref.LoadSnapshot(reader).ok()) {
    return Fail(label + ": reference LoadSnapshot failed");
  }
  for (size_t k = 0; k < scan.payloads.size(); ++k) {
    if (!ref.ApplyWalRecord(scan.payloads[k]).ok()) {
      return Fail(label + ": reference replay failed at record " +
                  std::to_string(k));
    }
  }
  const std::string want = Serialize(ref);

  // Recovery under test.
  optimize::SemanticCache recovered(CacheOptions());
  durability::DurableStore::Options options;
  options.dir = work_dir;
  options.name = "cache";
  options.fsync = false;
  auto store = durability::DurableStore::Open(options, &recovered);
  if (!store.ok()) {
    return Fail(label + ": recovery errored: " + store.status().ToString());
  }
  const durability::DurableStore::RecoveryInfo& info =
      store.value()->recovery_info();
  if (Serialize(recovered) != want) {
    return Fail(label + ": recovered state != snapshot + clean WAL prefix (" +
                std::to_string(scan.payloads.size()) + " surviving records)");
  }
  if (!info.snapshot_loaded) {
    return Fail(label + ": recovery did not load the snapshot");
  }
  if (info.wal_records_replayed != scan.payloads.size()) {
    return Fail(label + ": replayed " +
                std::to_string(info.wal_records_replayed) + " records, scanner found " +
                std::to_string(scan.payloads.size()));
  }
  const uint64_t want_valid = scan.header_valid ? scan.valid_bytes : 0;
  if (info.wal_valid_bytes != want_valid ||
      info.wal_valid_bytes + info.wal_discarded_bytes != wal_bytes.size()) {
    return Fail(label + ": byte accounting off (valid " +
                std::to_string(info.wal_valid_bytes) + " + discarded " +
                std::to_string(info.wal_discarded_bytes) + " vs file " +
                std::to_string(wal_bytes.size()) + ")");
  }
  store.value().reset();  // close the writer before reopening the files

  // Idempotence: recovery already truncated the torn tail, so recovering
  // again must land on the identical image with nothing left to discard.
  optimize::SemanticCache again(CacheOptions());
  auto store2 = durability::DurableStore::Open(options, &again);
  if (!store2.ok()) {
    return Fail(label + ": second recovery errored: " +
                store2.status().ToString());
  }
  if (Serialize(again) != want) {
    return Fail(label + ": second recovery diverged (not idempotent)");
  }
  if (store2.value()->recovery_info().wal_discarded_bytes != 0) {
    return Fail(label + ": second recovery still discarding bytes");
  }
  return 0;
}

int RunSweep(const HarnessConfig& config, const std::string& snap_bytes,
             const std::string& wal_bytes, uint64_t epoch,
             const std::string& final_image) {
  // Offsets: every stride-th byte, always including 0, the file size, and
  // every record boundary (the clean-crash points a coarse stride would
  // jump over).
  std::set<uint64_t> offsets;
  for (uint64_t b = 0; b <= wal_bytes.size(); b += config.stride) {
    offsets.insert(b);
  }
  offsets.insert(wal_bytes.size());
  for (uint64_t b : RecordBoundaries(wal_bytes)) offsets.insert(b);

  const std::string work_dir = config.dir + "/work";
  size_t prev_records = 0;
  bool full_file_checked = false;
  for (uint64_t b : offsets) {
    if (!EnsureEmptyDir(work_dir)) {
      std::fprintf(stderr, "cannot create %s\n", work_dir.c_str());
      return 2;
    }
    if (!WriteFileBytes(work_dir + "/cache.snap", snap_bytes) ||
        !WriteFileBytes(work_dir + "/cache.wal." + std::to_string(epoch),
                        std::string_view(wal_bytes).substr(0, b))) {
      std::fprintf(stderr, "cannot stage crash files in %s\n",
                   work_dir.c_str());
      return 2;
    }
    const std::string label = "truncate@" + std::to_string(b);
    int rc = CheckRecovery(work_dir, snap_bytes,
                           std::string_view(wal_bytes).substr(0, b), label);
    if (rc != 0) return rc;

    // Longer prefixes can only ever add records: recovery is monotone in
    // the crash point.
    WalScan scan = ScanWalBytes(std::string_view(wal_bytes).substr(0, b));
    if (scan.payloads.size() < prev_records) {
      return Fail(label + ": surviving record count went backwards");
    }
    prev_records = scan.payloads.size();

    if (b == wal_bytes.size()) {
      // The uncut file must recover to exactly the pre-crash image.
      optimize::SemanticCache whole(CacheOptions());
      durability::DurableStore::Options options;
      options.dir = work_dir;
      options.name = "cache";
      options.fsync = false;
      auto store = durability::DurableStore::Open(options, &whole);
      if (!store.ok() || Serialize(whole) != final_image) {
        return Fail("full WAL does not recover the pre-crash state");
      }
      full_file_checked = true;
    }
  }
  if (!full_file_checked) return Fail("sweep never reached the full file");
  std::printf(
      "sweep: %zu crash points over %zu WAL bytes "
      "(%zu records) all recover to the clean prefix\n",
      offsets.size(), wal_bytes.size(), prev_records);
  return 0;
}

int RunHarness(const HarnessConfig& config) {
  // Phase 1: pristine run — scripted workload with a mid-run checkpoint.
  const std::string pristine_dir = config.dir + "/pristine";
  if (!EnsureEmptyDir(config.dir) || !EnsureEmptyDir(pristine_dir)) {
    std::fprintf(stderr, "cannot create working dirs under %s\n",
                 config.dir.c_str());
    return 2;
  }
  optimize::SemanticCache cache(CacheOptions());
  std::string final_image;
  uint64_t epoch = 0;
  {
    durability::DurableStore::Options options;
    options.dir = pristine_dir;
    options.name = "cache";
    options.fsync = false;
    auto store = durability::DurableStore::Open(options, &cache);
    if (!store.ok()) {
      std::fprintf(stderr, "pristine open failed: %s\n",
                   store.status().ToString().c_str());
      return 2;
    }
    cache.AttachDurability(store.value().get());
    if (!RunWorkload(config, cache, store.value().get())) {
      std::fprintf(stderr, "pristine workload failed\n");
      return 2;
    }
    final_image = Serialize(cache);
    epoch = store.value()->epoch();
  }

  std::string snap_bytes, wal_bytes;
  if (!ReadFileBytes(pristine_dir + "/cache.snap", &snap_bytes) ||
      !ReadFileBytes(pristine_dir + "/cache.wal." + std::to_string(epoch),
                     &wal_bytes)) {
    std::fprintf(stderr, "pristine run left no snapshot/WAL pair\n");
    return 2;
  }

  if (config.mode == "sweep") {
    return RunSweep(config, snap_bytes, wal_bytes, epoch, final_image);
  }

  // Point mode: the workload above ran with set_crash_after_bytes armed, so
  // cache.wal.<epoch> on disk IS the crash artifact — recover it in place.
  // (final_image is the in-memory state the crash cut short; the recovered
  // state must instead match the clean prefix that reached the file.)
  int rc = CheckRecovery(
      pristine_dir, snap_bytes, wal_bytes,
      "crash-after-bytes=" + std::to_string(config.crash_after_bytes));
  if (rc != 0) return rc;
  WalScan scan = ScanWalBytes(wal_bytes);
  std::printf(
      "point crash-after-bytes=%lld: %zu of the workload's records "
      "survived and recover cleanly\n",
      static_cast<long long>(config.crash_after_bytes), scan.payloads.size());
  return 0;
}

int Usage() {
  std::fprintf(
      stderr,
      "usage: llmdm_durability_harness --mode=sweep|point --dir=DIR\n"
      "        [--ops=N] [--stride=N] [--crash-after-bytes=N]\n"
      "  sweep: truncate the WAL at every (stride-sampled) byte offset and\n"
      "         assert recovery equals snapshot + clean record prefix\n"
      "  point: arm the writer's crash injection at the given file size and\n"
      "         assert recovery of the torn file\n");
  return 2;
}

}  // namespace
}  // namespace llmdm

int main(int argc, char** argv) {
  llmdm::HarnessConfig config;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&arg](const char* flag) -> const char* {
      const size_t n = std::strlen(flag);
      if (arg.compare(0, n, flag) == 0 && arg.size() > n && arg[n] == '=') {
        return arg.c_str() + n + 1;
      }
      return nullptr;
    };
    if (const char* v = value("--mode")) {
      config.mode = v;
    } else if (const char* v = value("--dir")) {
      config.dir = v;
    } else if (const char* v = value("--ops")) {
      config.ops = static_cast<size_t>(std::strtoull(v, nullptr, 10));
    } else if (const char* v = value("--stride")) {
      config.stride = static_cast<size_t>(std::strtoull(v, nullptr, 10));
    } else if (const char* v = value("--crash-after-bytes")) {
      config.crash_after_bytes = std::strtoll(v, nullptr, 10);
    } else {
      return llmdm::Usage();
    }
  }
  if (config.dir.empty() || config.ops == 0 || config.stride == 0) {
    return llmdm::Usage();
  }
  if (config.mode != "sweep" && config.mode != "point") return llmdm::Usage();
  if (config.mode == "point" && config.crash_after_bytes < 0) {
    // Default leaves room for a few committed records, then tears one
    // mid-payload (the cache's records are well under 150 bytes).
    config.crash_after_bytes =
        static_cast<int64_t>(llmdm::durability::kWalHeaderSize) + 150;
  }
  return llmdm::RunHarness(config);
}
