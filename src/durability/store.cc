#include "durability/store.h"

#include <dirent.h>
#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <utility>
#include <vector>

#include "durability/mmap_file.h"
#include "durability/snapshot.h"

namespace llmdm::durability {

namespace {

void FsyncDir(const std::string& dir) {
  int dfd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC);
  if (dfd >= 0) {
    ::fsync(dfd);
    ::close(dfd);
  }
}

/// Parses the epoch suffix of "<stem>.wal.<digits>". Returns false when
/// `filename` is not a WAL of this stem.
bool ParseWalEpoch(const std::string& filename, const std::string& stem,
                   uint64_t* epoch) {
  const std::string prefix = stem + ".wal.";
  if (filename.size() <= prefix.size()) return false;
  if (filename.compare(0, prefix.size(), prefix) != 0) return false;
  uint64_t value = 0;
  for (size_t i = prefix.size(); i < filename.size(); ++i) {
    char c = filename[i];
    if (c < '0' || c > '9') return false;
    value = value * 10 + static_cast<uint64_t>(c - '0');
  }
  *epoch = value;
  return true;
}

}  // namespace

DurableStore::DurableStore(Options options, DurableState* state)
    : options_(std::move(options)), state_(state) {
  obs::Registry* registry = options_.registry;
  if (registry == nullptr) {
    owned_registry_ = std::make_unique<obs::Registry>();
    registry = owned_registry_.get();
  }
  const obs::Labels labels = {{"store", options_.name}};
  metrics_.wal_records =
      registry->GetCounter("llmdm_durability_wal_records_total", labels);
  metrics_.wal_bytes =
      registry->GetCounter("llmdm_durability_wal_bytes_total", labels);
  metrics_.wal_syncs =
      registry->GetCounter("llmdm_durability_wal_syncs_total", labels);
  metrics_.checkpoints =
      registry->GetCounter("llmdm_durability_checkpoints_total", labels);
  metrics_.snapshot_bytes =
      registry->GetGauge("llmdm_durability_snapshot_bytes", labels);
  metrics_.recoveries =
      registry->GetCounter("llmdm_durability_recoveries_total", labels);
  metrics_.torn_recoveries =
      registry->GetCounter("llmdm_durability_torn_recoveries_total", labels);
  metrics_.recovery_replayed_records = registry->GetCounter(
      "llmdm_durability_recovery_replayed_records_total", labels);
  metrics_.recovery_discarded_bytes = registry->GetCounter(
      "llmdm_durability_recovery_discarded_bytes_total", labels);
}

common::Result<std::unique_ptr<DurableStore>> DurableStore::Open(
    const Options& options, DurableState* state) {
  if (options.dir.empty() || options.name.empty()) {
    return common::Status::InvalidArgument(
        "DurableStore needs a directory and a name");
  }
  if (state == nullptr) {
    return common::Status::InvalidArgument("DurableStore needs a component");
  }
  std::unique_ptr<DurableStore> store(new DurableStore(options, state));
  LLMDM_RETURN_IF_ERROR(store->Recover());
  return store;
}

std::string DurableStore::snapshot_path() const {
  return options_.dir + "/" + options_.name + ".snap";
}

std::string DurableStore::wal_path(uint64_t epoch) const {
  return options_.dir + "/" + options_.name + ".wal." + std::to_string(epoch);
}

common::Status DurableStore::Recover() {
  recovery_ = RecoveryInfo{};
  state_->ResetToEmpty();

  // Phase 1: snapshot. A missing file is a cold start; a file that fails to
  // verify (truncated copy, external corruption — the rename protocol never
  // produces one) falls back to empty-but-valid at epoch 0 rather than
  // refusing to start.
  {
    auto mapped = MappedFile::Open(snapshot_path());
    if (mapped.ok()) {
      SnapshotView view = ParseSnapshot(mapped.value().data());
      if (view.valid) {
        ByteReader reader(view.payload);
        common::Status loaded = state_->LoadSnapshot(reader);
        if (loaded.ok()) {
          recovery_.snapshot_loaded = true;
          recovery_.epoch = view.epoch;
          epoch_ = view.epoch;
        } else {
          // Checksummed-valid bytes the component rejects: treat like
          // corruption (empty-but-valid), not a crash loop on startup.
          state_->ResetToEmpty();
          recovery_.snapshot_corrupt = true;
        }
      } else {
        recovery_.snapshot_corrupt = true;
      }
    } else if (mapped.status().code() != common::StatusCode::kNotFound) {
      return mapped.status();
    }
  }

  // Phase 2: the WAL for the recovered epoch. Replay stops at the first
  // record whose length or checksum fails; the tail past that point is
  // truncated before appends resume. A WAL whose header does not verify or
  // whose embedded epoch disagrees with its filename carries no trustworthy
  // records and is recreated empty.
  const std::string wal_file = wal_path(epoch_);
  bool wal_usable = false;
  {
    auto mapped = MappedFile::Open(wal_file);
    if (mapped.ok()) {
      // Check the embedded epoch before replay starts — ReplayWal applies
      // records as it scans, and records from a mismatched epoch must never
      // reach the component.
      uint64_t header_epoch = 0;
      if (PeekWalHeader(mapped.value().data(), &header_epoch) &&
          header_epoch == epoch_) {
        auto replayed = ReplayWal(
            mapped.value().data(), [this](std::string_view payload) {
              return state_->ApplyWalRecord(payload);
            });
        LLMDM_RETURN_IF_ERROR(replayed.status());
        const WalReplayResult& r = replayed.value();
        wal_usable = true;
        recovery_.wal_records_replayed = r.records;
        recovery_.wal_valid_bytes = r.valid_bytes;
        recovery_.wal_discarded_bytes = r.discarded_bytes;
        recovery_.torn_tail = r.torn_tail;
      } else {
        recovery_.wal_discarded_bytes = mapped.value().size();
        recovery_.torn_tail = mapped.value().size() > 0;
      }
    } else if (mapped.status().code() != common::StatusCode::kNotFound) {
      return mapped.status();
    }
  }
  if (wal_usable) {
    LLMDM_ASSIGN_OR_RETURN(
        writer_, WalWriter::OpenForAppend(wal_file, epoch_,
                                          recovery_.wal_valid_bytes,
                                          options_.fsync));
  } else {
    LLMDM_ASSIGN_OR_RETURN(
        writer_, WalWriter::Create(wal_file, epoch_, options_.fsync));
  }

  // Phase 3: sweep files a crash may have stranded — WALs of other epochs
  // (left when a crash hit between a checkpoint's rename and its delete) and
  // an unpublished snapshot tmp.
  recovery_.orphans_removed = RemoveOrphans(epoch_);

  metrics_.recoveries->Add(1);
  if (recovery_.torn_tail || recovery_.snapshot_corrupt) {
    metrics_.torn_recoveries->Add(1);
  }
  metrics_.recovery_replayed_records->Add(recovery_.wal_records_replayed);
  metrics_.recovery_discarded_bytes->Add(recovery_.wal_discarded_bytes);
  return common::Status::Ok();
}

size_t DurableStore::RemoveOrphans(uint64_t keep_epoch) {
  size_t removed = 0;
  std::vector<std::string> doomed;
  DIR* dir = ::opendir(options_.dir.c_str());
  if (dir == nullptr) return 0;
  while (struct dirent* entry = ::readdir(dir)) {
    const std::string filename = entry->d_name;
    uint64_t epoch = 0;
    if (ParseWalEpoch(filename, options_.name, &epoch)) {
      if (epoch != keep_epoch) doomed.push_back(filename);
    } else if (filename == options_.name + ".snap.tmp") {
      doomed.push_back(filename);
    }
  }
  ::closedir(dir);
  for (const std::string& filename : doomed) {
    if (::unlink((options_.dir + "/" + filename).c_str()) == 0) ++removed;
  }
  if (removed > 0 && options_.fsync) FsyncDir(options_.dir);
  return removed;
}

common::Status DurableStore::Append(const MutationGuard& guard,
                                    std::string_view payload) {
  if (!guard.held()) {
    return common::Status::FailedPrecondition(
        "Append requires a guard from BeginMutation");
  }
  std::lock_guard<std::mutex> lock(mu_);
  LLMDM_RETURN_IF_ERROR(writer_->Append(payload));
  metrics_.wal_records->Add(1);
  metrics_.wal_bytes->Add(kWalRecordOverhead + payload.size());
  return common::Status::Ok();
}

common::Status DurableStore::Sync() {
  std::lock_guard<std::mutex> lock(mu_);
  LLMDM_RETURN_IF_ERROR(writer_->Sync());
  metrics_.wal_syncs->Add(1);
  return common::Status::Ok();
}

common::Status DurableStore::Checkpoint() {
  // Exclusive side of the commit gate: no mutate+append pair is in flight,
  // so the serialized image and the record stream cannot interleave.
  std::unique_lock<std::shared_mutex> gate(gate_);
  std::string payload;
  LLMDM_RETURN_IF_ERROR(state_->SaveSnapshot(&payload));

  std::lock_guard<std::mutex> lock(mu_);
  const uint64_t next = epoch_ + 1;
  LLMDM_RETURN_IF_ERROR(
      WriteSnapshotFile(snapshot_path(), next, payload, options_.fsync));
  // From here the published snapshot already covers everything in the old
  // WAL; a crash before the swap below recovers from snap@next alone and
  // sweeps wal.epoch_ as an orphan.
  LLMDM_ASSIGN_OR_RETURN(
      auto next_writer, WalWriter::Create(wal_path(next), next,
                                          options_.fsync));
  const std::string old_wal = wal_path(epoch_);
  writer_ = std::move(next_writer);
  epoch_ = next;
  ::unlink(old_wal.c_str());
  if (options_.fsync) FsyncDir(options_.dir);

  metrics_.checkpoints->Add(1);
  metrics_.snapshot_bytes->Set(static_cast<int64_t>(payload.size()));
  return common::Status::Ok();
}

uint64_t DurableStore::epoch() const {
  std::lock_guard<std::mutex> lock(mu_);
  return epoch_;
}

uint64_t DurableStore::wal_size_bytes() const {
  std::lock_guard<std::mutex> lock(mu_);
  return writer_->size_bytes();
}

void DurableStore::set_crash_after_bytes(int64_t n) {
  std::lock_guard<std::mutex> lock(mu_);
  writer_->set_crash_after_bytes(n);
}

}  // namespace llmdm::durability
