#include "core/optimize/prompt_store.h"

#include <algorithm>

namespace llmdm::optimize {

uint64_t PromptStore::Add(const std::string& input, const std::string& output) {
  std::lock_guard<std::mutex> lock(mu_);
  StoredPrompt p;
  p.id = prompts_.size();
  p.input = input;
  p.output = output;
  prompts_.push_back(p);
  live_.push_back(true);
  index_.Add(p.id, embedder_.Embed(input)).ok();
  ++live_count_;
  EvictIfNeeded();
  return p.id;
}

void PromptStore::EvictIfNeeded() {
  while (live_count_ > options_.capacity) {
    double worst = 1e300;
    size_t victim = prompts_.size();
    for (size_t i = 0; i < prompts_.size(); ++i) {
      if (!live_[i]) continue;
      // Budgeted retention by smoothed success rate: proven failures
      // (rate << 0.5) go first, fresh prompts sit at the 0.5 prior and
      // outrank them, proven earners stay.
      double score = prompts_[i].success_rate();
      if (score < worst) {
        worst = score;
        victim = i;
      }
    }
    if (victim == prompts_.size()) return;
    live_[victim] = false;
    index_.Remove(victim).ok();
    --live_count_;
  }
}

std::vector<llm::FewShotExample> PromptStore::Select(const std::string& query,
                                                     size_t k,
                                                     Selection strategy) {
  std::lock_guard<std::mutex> lock(mu_);
  last_selected_ids_.clear();
  std::vector<llm::FewShotExample> out;
  if (live_count_ == 0 || k == 0) return out;

  // Over-fetch then re-rank by the strategy's score.
  size_t fetch = std::min(live_count_, k * 4 + 4);
  auto candidates = index_.Search(embedder_.Embed(query), fetch);

  struct Ranked {
    uint64_t id;
    double score;
  };
  std::vector<Ranked> ranked;
  for (const auto& c : candidates) {
    if (!live_[c.id]) continue;
    const StoredPrompt& p = prompts_[c.id];
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
    // With probability epsilon, swap a tail candidate into the last slot so
    // unproven prompts accumulate outcome data.
    if (rng_.Bernoulli(options_.epsilon)) {
      size_t tail = k + rng_.NextBelow(ranked.size() - k);
      std::swap(ranked[k - 1], ranked[tail]);
    }
  }

  for (size_t i = 0; i < ranked.size() && out.size() < k; ++i) {
    const StoredPrompt& p = prompts_[ranked[i].id];
    out.push_back(llm::FewShotExample{p.input, p.output});
    last_selected_ids_.push_back(p.id);
  }
  return out;
}

void PromptStore::RecordOutcome(uint64_t id, bool success) {
  std::lock_guard<std::mutex> lock(mu_);
  if (id >= prompts_.size()) return;
  ++prompts_[id].uses;
  if (success) ++prompts_[id].successes;
}

std::optional<StoredPrompt> PromptStore::Get(uint64_t id) const {
  std::lock_guard<std::mutex> lock(mu_);
  if (id >= prompts_.size() || !live_[id]) return std::nullopt;
  return prompts_[id];
}

}  // namespace llmdm::optimize
