#ifndef LLMDM_CORE_OPTIMIZE_PROMPT_STORE_H_
#define LLMDM_CORE_OPTIMIZE_PROMPT_STORE_H_

#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "common/rng.h"
#include "embed/embedder.h"
#include "llm/prompt.h"
#include "vectordb/flat_index.h"

namespace llmdm::optimize {

/// A historical prompt (a worked example) with its running utility: how often
/// including it actually helped. Sec. III-A's point is that raw vector
/// similarity is not the right selection target — the store therefore tracks
/// outcome feedback per prompt and offers utility-aware selection.
struct StoredPrompt {
  uint64_t id = 0;
  std::string input;
  std::string output;
  size_t uses = 0;
  size_t successes = 0;

  double success_rate() const {
    // Laplace-smoothed so unproven prompts neither dominate nor vanish.
    return (static_cast<double>(successes) + 1.0) /
           (static_cast<double>(uses) + 2.0);
  }
};

/// Vector-database-backed store of historical prompts with three selection
/// strategies and a budgeted retention policy.
///
/// Prompts are keyed by ids that are never reused, and an evicted prompt
/// leaves the store: memory and the eviction scan are bounded by capacity,
/// not by the number of Adds.
///
/// Thread-safe: one internal mutex guards all state, and accessors return
/// copies (a pointer into `prompts_` would dangle once a concurrent Add
/// evicts its prompt). Note that under concurrency "the most recent
/// Select()" in last_selected_ids() means the most recent across *all*
/// threads — callers that need per-request feedback routing should capture
/// the ids right after their own Select() call.
class PromptStore {
 public:
  enum class Selection {
    kSimilarity,          // plain nearest-neighbour
    kUtilityWeighted,     // similarity x historical success rate
    kEpsilonGreedy,       // bandit: mostly utility, explores with p = 0.1
  };

  struct Options {
    size_t capacity = 512;
    uint64_t seed = 17;
  };

  explicit PromptStore(const Options& options)
      : options_(options), rng_(options.seed) {}

  /// Adds a worked example; evicts the lowest-utility prompt when full
  /// (the "which historical prompts to keep within a budget" question).
  uint64_t Add(const std::string& input, const std::string& output);

  /// Selects up to k examples for a new query under the given strategy.
  std::vector<llm::FewShotExample> Select(const std::string& query, size_t k,
                                          Selection strategy);

  /// Outcome feedback: the task that used prompt `id` succeeded/failed.
  /// Drives utility-weighted selection and budgeted retention.
  void RecordOutcome(uint64_t id, bool success);

  /// Ids of the most recent Select() result (aligned with its examples),
  /// so callers can route outcome feedback. Snapshot copy.
  std::vector<uint64_t> last_selected_ids() const {
    std::lock_guard<std::mutex> lock(mu_);
    return last_selected_ids_;
  }

  size_t Size() const {
    std::lock_guard<std::mutex> lock(mu_);
    return prompts_.size();
  }
  /// Snapshot copy of the stored prompt, or nullopt if absent/evicted.
  std::optional<StoredPrompt> Get(uint64_t id) const;

 private:
  void EvictIfNeeded();  // requires mu_

  mutable std::mutex mu_;
  Options options_;
  common::Rng rng_;
  embed::HashingEmbedder embedder_;
  vectordb::FlatIndex index_;
  /// Live prompts by id; ascending id is insertion order.
  std::map<uint64_t, StoredPrompt> prompts_;
  uint64_t next_id_ = 0;
  std::vector<uint64_t> last_selected_ids_;
};

}  // namespace llmdm::optimize

#endif  // LLMDM_CORE_OPTIMIZE_PROMPT_STORE_H_
