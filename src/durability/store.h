#ifndef LLMDM_DURABILITY_STORE_H_
#define LLMDM_DURABILITY_STORE_H_

#include <cstdint>
#include <memory>
#include <shared_mutex>
#include <string>
#include <string_view>

#include "common/result.h"
#include "common/status.h"
#include "durability/durable.h"
#include "durability/wal.h"
#include "obs/metrics.h"

namespace llmdm::durability {

/// Snapshot + WAL management for one DurableState component. On disk a store
/// named `cache` in directory `dir` is:
///
///   dir/cache.snap        last published snapshot (epoch E)
///   dir/cache.wal.E       records appended since that snapshot
///
/// Checkpoint advances the epoch: snapshot at E+1 is renamed into place,
/// wal.(E+1) is created, then wal.E is deleted. Every crash window leaves a
/// recoverable pair: before the rename, snap@E + wal.E still recover; after
/// the rename, snap@(E+1) alone recovers (wal.E is for the old image and is
/// ignored as an orphan); wal.(E+1) missing just means zero new records.
///
/// Open() is recovery: reset the component, load the snapshot if one
/// verifies (a corrupt or partial snapshot falls back to empty-but-valid —
/// never an error), replay the matching WAL up to its first torn record,
/// truncate the tail, delete orphans, and reopen the WAL for append.
class DurableStore {
 public:
  struct Options {
    std::string dir;        // must exist
    std::string name;       // file stem; also the {store=...} metric label
    bool fsync = true;      // false for tmpfs-heavy tests
    obs::Registry* registry = nullptr;  // shared registry, or private if null
  };

  /// What recovery found. Exposed for tests, logs, and the bench's
  /// warm-start rows.
  struct RecoveryInfo {
    bool snapshot_loaded = false;   // a valid snapshot was applied
    bool snapshot_corrupt = false;  // a snapshot file existed but failed to verify
    uint64_t epoch = 0;             // epoch recovered into (and now appending to)
    size_t wal_records_replayed = 0;
    uint64_t wal_valid_bytes = 0;
    uint64_t wal_discarded_bytes = 0;  // torn tail dropped at the truncation point
    bool torn_tail = false;
    size_t orphans_removed = 0;  // stale-epoch WALs and leftover .snap.tmp
  };

  /// Recovers `state` from disk and opens the store for appends. `state`
  /// must outlive the returned store.
  static common::Result<std::unique_ptr<DurableStore>> Open(
      const Options& options, DurableState* state);

  DurableStore(const DurableStore&) = delete;
  DurableStore& operator=(const DurableStore&) = delete;

  /// Shared side of the commit gate. Hold the returned guard across
  /// "mutate component state, then Append the record" so Checkpoint (the
  /// exclusive side) can never snapshot between the two.
  MutationGuard BeginMutation() { return MutationGuard(gate_); }

  /// Appends one record. The guard must come from BeginMutation() — passing
  /// it proves the mutation/append pair is inside the commit gate.
  common::Status Append(const MutationGuard& guard, std::string_view payload);

  /// fdatasync the WAL.
  common::Status Sync();

  /// Serializes the component, publishes it as the next-epoch snapshot, and
  /// retires the current WAL. Takes the exclusive side of the commit gate.
  common::Status Checkpoint();

  const RecoveryInfo& recovery_info() const { return recovery_; }
  uint64_t epoch() const;
  uint64_t wal_size_bytes() const;

  std::string snapshot_path() const;
  std::string wal_path(uint64_t epoch) const;

  /// Forwards to WalWriter::set_crash_after_bytes — the harness's
  /// deterministic torn-write injection point. Applies to the *current*
  /// writer; Checkpoint clears it with the WAL it retires.
  void set_crash_after_bytes(int64_t n);

 private:
  DurableStore(Options options, DurableState* state);

  common::Status Recover();
  size_t RemoveOrphans(uint64_t keep_epoch);

  Options options_;
  DurableState* state_;  // not owned

  // Commit gate: mutators shared, Checkpoint exclusive. Ordering: gate_ →
  // component locks → WalWriter's internal mutex.
  std::shared_mutex gate_;
  mutable std::mutex mu_;  // writer_/epoch_ swap during Checkpoint
  std::unique_ptr<WalWriter> writer_;
  uint64_t epoch_ = 0;

  RecoveryInfo recovery_;

  std::unique_ptr<obs::Registry> owned_registry_;
  struct Metrics {
    obs::Counter* wal_records = nullptr;
    obs::Counter* wal_bytes = nullptr;
    obs::Counter* wal_syncs = nullptr;
    obs::Counter* checkpoints = nullptr;
    obs::Gauge* snapshot_bytes = nullptr;
    obs::Counter* recoveries = nullptr;
    obs::Counter* torn_recoveries = nullptr;
    obs::Counter* recovery_replayed_records = nullptr;
    obs::Counter* recovery_discarded_bytes = nullptr;
  } metrics_;
};

}  // namespace llmdm::durability

#endif  // LLMDM_DURABILITY_STORE_H_
