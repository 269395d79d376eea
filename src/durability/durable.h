#ifndef LLMDM_DURABILITY_DURABLE_H_
#define LLMDM_DURABILITY_DURABLE_H_

#include <shared_mutex>
#include <string>
#include <string_view>

#include "common/status.h"
#include "durability/format.h"

namespace llmdm::durability {

/// What DurableStore manages: one component's point-in-time byte image
/// (snapshot) and the WAL records that extend it.
///
/// The image is the component's *durable* state — the bytes that cost money
/// to rebuild (queries, responses, costs). Process-local heat (ticks, hit
/// counters, doorkeeper windows, metric counters) is deliberately excluded:
/// it is cheap to re-learn, and excluding it makes "recovered state ==
/// reference state" a byte-equality check (two stores that applied the same
/// operations serialize identically even if one of them also served
/// lookups).
///
/// WAL records are *physical* (insert this entry, evict this id) rather than
/// logical, so replay bypasses admission/eviction heuristics and lands in
/// exactly the state the original process reached — heuristics may consult
/// non-durable heat, and re-running them on replay would diverge.
class DurableState {
 public:
  virtual ~DurableState() = default;

  /// Drops all state, returning the component to its freshly constructed
  /// (empty) form. Recovery-time only: not thread-safe against concurrent
  /// use of the component.
  virtual void ResetToEmpty() = 0;

  /// Appends the durable image to `out`. Must be a pure function of durable
  /// state: save → load → save must reproduce the bytes exactly.
  virtual common::Status SaveSnapshot(std::string* out) const = 0;

  /// Rebuilds state from an image produced by SaveSnapshot. Called on an
  /// empty component (after ResetToEmpty); derived data (embeddings, token
  /// counts, int8 index codes) is recomputed deterministically.
  virtual common::Status LoadSnapshot(ByteReader& in) = 0;

  /// Applies one record payload (as passed to DurableStore::Append). Returns
  /// an error only for structurally impossible records (a checksummed-valid
  /// record naming a missing entry means a format bug or a WAL from an
  /// incompatible configuration) — torn/corrupt tails never reach here.
  virtual common::Status ApplyWalRecord(std::string_view payload) = 0;
};

/// Shared-side handle on a store's commit gate. A component holds one across
/// "mutate state, then append the WAL record" so a concurrent Checkpoint
/// (which takes the exclusive side) can never serialize a snapshot between
/// the mutation and its record — the torn interleaving that would replay an
/// operation on top of a snapshot that already contains it. Default
/// constructed = empty (no durability attached); cheap to move.
class MutationGuard {
 public:
  MutationGuard() = default;
  explicit MutationGuard(std::shared_mutex& mu) : lock_(mu) {}

  bool held() const { return lock_.owns_lock(); }

 private:
  std::shared_lock<std::shared_mutex> lock_;
};

}  // namespace llmdm::durability

#endif  // LLMDM_DURABILITY_DURABLE_H_
