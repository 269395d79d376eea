#include "core/optimize/prompt_store.h"

#include <algorithm>

namespace llmdm::optimize {

namespace {
// Exploration rate of Selection::kEpsilonGreedy.
constexpr double kEpsilon = 0.1;
}  // namespace

uint64_t PromptStore::Add(const std::string& input, const std::string& output) {
  std::lock_guard<std::mutex> lock(mu_);
  const uint64_t id = next_id_++;
  // Ids only grow, so the new prompt goes at the end of the map.
  prompts_.emplace_hint(
      prompts_.end(), id,
      StoredPrompt{.id = id, .input = input, .output = output});
  index_.Add(id, embedder_.Embed(input)).ok();
  EvictIfNeeded();
  return id;
}

void PromptStore::EvictIfNeeded() {
  while (prompts_.size() > options_.capacity) {
    // Budgeted retention by smoothed success rate: proven failures
    // (rate << 0.5) go first, fresh prompts sit at the 0.5 prior and
    // outrank them, proven earners stay. Ties evict the oldest (the first
    // minimum in id order).
    auto victim = std::min_element(
        prompts_.begin(), prompts_.end(), [](const auto& a, const auto& b) {
          return a.second.success_rate() < b.second.success_rate();
        });
    index_.Remove(victim->first).ok();
    prompts_.erase(victim);
  }
}

std::vector<llm::FewShotExample> PromptStore::Select(const std::string& query,
                                                     size_t k,
                                                     Selection strategy) {
  std::lock_guard<std::mutex> lock(mu_);
  last_selected_ids_.clear();
  std::vector<llm::FewShotExample> out;
  if (prompts_.empty() || k == 0) return out;

  // Over-fetch then re-rank by the strategy's score.
  size_t fetch = std::min(prompts_.size(), k * 4 + 4);
  auto candidates = index_.Search(embedder_.Embed(query), fetch);

  struct Ranked {
    uint64_t id;
    double score;
  };
  std::vector<Ranked> ranked;
  for (const auto& c : candidates) {
    const StoredPrompt& p = prompts_.at(c.id);
    double score = c.score;
    if (strategy != Selection::kSimilarity) {
      score = c.score * p.success_rate();
    }
    ranked.push_back(Ranked{c.id, score});
  }
  std::sort(ranked.begin(), ranked.end(), [](const Ranked& a, const Ranked& b) {
    if (a.score != b.score) return a.score > b.score;
    return a.id < b.id;
  });

  if (strategy == Selection::kEpsilonGreedy && ranked.size() > k) {
    // With probability kEpsilon, swap a tail candidate into the last slot
    // so unproven prompts accumulate outcome data.
    if (rng_.Bernoulli(kEpsilon)) {
      size_t tail = k + rng_.NextBelow(ranked.size() - k);
      std::swap(ranked[k - 1], ranked[tail]);
    }
  }

  for (size_t i = 0; i < ranked.size() && out.size() < k; ++i) {
    const StoredPrompt& p = prompts_.at(ranked[i].id);
    out.push_back(llm::FewShotExample{p.input, p.output});
    last_selected_ids_.push_back(p.id);
  }
  return out;
}

void PromptStore::RecordOutcome(uint64_t id, bool success) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = prompts_.find(id);
  if (it == prompts_.end()) return;  // evicted: its outcome no longer counts
  ++it->second.uses;
  if (success) ++it->second.successes;
}

std::optional<StoredPrompt> PromptStore::Get(uint64_t id) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = prompts_.find(id);
  if (it == prompts_.end()) return std::nullopt;
  return it->second;
}

}  // namespace llmdm::optimize
