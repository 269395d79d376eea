#include "core/optimize/prompt_store.h"

#include <algorithm>

#include "durability/format.h"
#include "durability/store.h"

namespace llmdm::optimize {

uint64_t PromptStore::Add(const std::string& input, const std::string& output) {
  durability::MutationGuard guard = durable_ != nullptr
                                        ? durable_->BeginMutation()
                                        : durability::MutationGuard();
  std::lock_guard<std::mutex> lock(mu_);
  StoredPrompt p;
  p.id = prompts_.size();
  p.input = input;
  p.output = output;
  prompts_.push_back(p);
  live_.push_back(true);
  index_.Add(p.id, embedder_.Embed(input)).ok();
  ++live_count_;
  std::string rec;
  durability::AppendU8(&rec, static_cast<uint8_t>(WalOp::kAdd));
  durability::AppendString(&rec, input);
  durability::AppendString(&rec, output);
  LogWal(guard, std::move(rec));
  EvictIfNeeded(guard);
  return p.id;
}

void PromptStore::EvictIfNeeded(const durability::MutationGuard& guard) {
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
    std::string rec;
    durability::AppendU8(&rec, static_cast<uint8_t>(WalOp::kEvict));
    durability::AppendU64(&rec, victim);
    LogWal(guard, std::move(rec));
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
  durability::MutationGuard guard = durable_ != nullptr
                                        ? durable_->BeginMutation()
                                        : durability::MutationGuard();
  std::lock_guard<std::mutex> lock(mu_);
  if (id >= prompts_.size()) return;
  ++prompts_[id].uses;
  if (success) ++prompts_[id].successes;
  std::string rec;
  durability::AppendU8(&rec, static_cast<uint8_t>(WalOp::kOutcome));
  durability::AppendU64(&rec, id);
  durability::AppendU8(&rec, success ? 1 : 0);
  LogWal(guard, std::move(rec));
}

std::optional<StoredPrompt> PromptStore::Get(uint64_t id) const {
  std::lock_guard<std::mutex> lock(mu_);
  if (id >= prompts_.size() || !live_[id]) return std::nullopt;
  return prompts_[id];
}

void PromptStore::AttachDurability(durability::DurableStore* store) {
  durable_ = store;
}

void PromptStore::LogWal(const durability::MutationGuard& guard,
                         std::string payload) {
  if (durable_ == nullptr) return;
  // See SemanticCache::LogWal: an aborted append is the harness's injected
  // crash; real I/O failures surface at Sync/Checkpoint.
  durable_->Append(guard, payload).ok();
}

void PromptStore::ResetToEmpty() {
  prompts_.clear();
  live_.clear();
  last_selected_ids_.clear();
  live_count_ = 0;
  index_ = vectordb::FlatIndex();
  // Reseed: a recovered store explores exactly like a fresh one, so two
  // processes recovered from the same files select identically.
  rng_ = common::Rng(options_.seed);
}

common::Status PromptStore::SaveSnapshot(std::string* out) const {
  std::lock_guard<std::mutex> lock(mu_);
  durability::AppendU64(out, prompts_.size());
  for (size_t i = 0; i < prompts_.size(); ++i) {
    const StoredPrompt& p = prompts_[i];
    durability::AppendU8(out, live_[i] ? 1 : 0);
    durability::AppendString(out, p.input);
    durability::AppendString(out, p.output);
    durability::AppendU64(out, p.uses);
    durability::AppendU64(out, p.successes);
  }
  return common::Status::Ok();
}

common::Status PromptStore::LoadSnapshot(durability::ByteReader& in) {
  std::lock_guard<std::mutex> lock(mu_);
  uint64_t count = 0;
  LLMDM_RETURN_IF_ERROR(in.ReadU64(&count));
  // The count is untrusted: every slot takes at least one byte, so a count
  // past the bytes left is corrupt and must not size an allocation.
  const uint64_t plausible = std::min<uint64_t>(count, in.remaining());
  prompts_.reserve(plausible);
  live_.reserve(plausible);
  for (uint64_t i = 0; i < count; ++i) {
    uint8_t live = 0;
    StoredPrompt p;
    p.id = i;
    LLMDM_RETURN_IF_ERROR(in.ReadU8(&live));
    LLMDM_RETURN_IF_ERROR(in.ReadString(&p.input));
    LLMDM_RETURN_IF_ERROR(in.ReadString(&p.output));
    uint64_t uses = 0, successes = 0;
    LLMDM_RETURN_IF_ERROR(in.ReadU64(&uses));
    LLMDM_RETURN_IF_ERROR(in.ReadU64(&successes));
    p.uses = static_cast<size_t>(uses);
    p.successes = static_cast<size_t>(successes);
    if (live != 0) {
      index_.Add(i, embedder_.Embed(p.input)).ok();
      ++live_count_;
    }
    prompts_.push_back(std::move(p));
    live_.push_back(live != 0);
  }
  return common::Status::Ok();
}

common::Status PromptStore::ApplyWalRecord(std::string_view payload) {
  durability::ByteReader in(payload);
  uint8_t op = 0;
  LLMDM_RETURN_IF_ERROR(in.ReadU8(&op));
  std::lock_guard<std::mutex> lock(mu_);
  switch (static_cast<WalOp>(op)) {
    case WalOp::kAdd: {
      StoredPrompt p;
      p.id = prompts_.size();
      LLMDM_RETURN_IF_ERROR(in.ReadString(&p.input));
      LLMDM_RETURN_IF_ERROR(in.ReadString(&p.output));
      index_.Add(p.id, embedder_.Embed(p.input)).ok();
      prompts_.push_back(std::move(p));
      live_.push_back(true);
      ++live_count_;
      return common::Status::Ok();
    }
    case WalOp::kEvict: {
      uint64_t id = 0;
      LLMDM_RETURN_IF_ERROR(in.ReadU64(&id));
      if (id >= prompts_.size() || !live_[id]) {
        return common::Status::InvalidArgument(
            "prompt WAL evict of missing/dead slot " + std::to_string(id));
      }
      live_[id] = false;
      index_.Remove(id).ok();
      --live_count_;
      return common::Status::Ok();
    }
    case WalOp::kOutcome: {
      uint64_t id = 0;
      uint8_t success = 0;
      LLMDM_RETURN_IF_ERROR(in.ReadU64(&id));
      LLMDM_RETURN_IF_ERROR(in.ReadU8(&success));
      if (id >= prompts_.size()) {
        return common::Status::InvalidArgument(
            "prompt WAL outcome for missing slot " + std::to_string(id));
      }
      ++prompts_[id].uses;
      if (success != 0) ++prompts_[id].successes;
      return common::Status::Ok();
    }
  }
  return common::Status::InvalidArgument("unknown prompt WAL op " +
                                         std::to_string(op));
}

}  // namespace llmdm::optimize
