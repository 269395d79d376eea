#include "core/optimize/semantic_cache.h"

#include <algorithm>

#include "common/hash.h"
#include "common/string_util.h"
#include "durability/format.h"
#include "durability/store.h"
#include "obs/trace.h"
#include "text/tokenizer.h"

namespace llmdm::optimize {

namespace {
/// How many neighbours a reuse/stale probe asks for: only the best can hit.
constexpr size_t kLookupProbeWidth = 1;
/// Insert refreshes an entry scoring above this against its query instead
/// of adding a near-duplicate. Compared as a double, so a float score of
/// exactly 0.999f (which is above 0.999) refreshes.
constexpr double kRefreshSimilarity = 0.999;
/// kCostAware scoring weights for the two hit kinds: a reuse hit saves a
/// whole call, an augmentation hit only sharpens one.
constexpr double kReuseWeight = 2.0;
constexpr double kAugmentWeight = 1.0;

/// The entry with `id` in a shard's id-sorted entries, or end().
template <typename Entries>
auto FindEntry(Entries& entries, uint64_t id) {
  auto it = std::lower_bound(
      entries.begin(), entries.end(), id,
      [](const auto& entry, uint64_t key) { return entry.id < key; });
  return it != entries.end() && it->id == id ? it : entries.end();
}
}  // namespace

SemanticCache::SemanticCache(const Options& options) : options_(options) {
  if (options_.num_shards == 0) options_.num_shards = 1;
  if (options_.registry != nullptr) {
    registry_ = options_.registry;
  } else {
    owned_registry_ = std::make_unique<obs::Registry>();
    registry_ = owned_registry_.get();
  }
  InitShards();
}

void SemanticCache::InitShards() {
  shards_.clear();
  const size_t n = options_.num_shards;
  // Divide the global capacity across shards: base share everywhere, the
  // remainder spread over the first shards, so the shares always sum to
  // Options::capacity (and shard 0 of a 1-shard cache gets all of it).
  const size_t base = options_.capacity / n;
  const size_t extra = options_.capacity % n;
  shards_.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    shards_.push_back(std::make_unique<Shard>(base + (i < extra ? 1 : 0)));
    Shard& shard = *shards_.back();
    shard.shard_id = i;
    BumpIndexVersion(shard);
    obs::Labels labels{{"shard", std::to_string(i)}};
    ShardMetrics& m = shard.metrics;
    m.lookups = registry_->GetCounter("llmdm_cache_lookups_total", labels);
    m.hits = registry_->GetCounter("llmdm_cache_hits_total", labels);
    m.insertions = registry_->GetCounter("llmdm_cache_insertions_total", labels);
    m.evictions = registry_->GetCounter("llmdm_cache_evictions_total", labels);
    m.admission_rejections =
        registry_->GetCounter("llmdm_cache_admission_rejections_total", labels);
    m.saved_micros =
        registry_->GetCounter("llmdm_cache_saved_micros_total", labels);
    m.live_entries = registry_->GetGauge("llmdm_cache_live_entries", labels);
    // Counters are process history and survive a reset; the state gauge
    // must reflect the (now empty) cache.
    m.live_entries->Set(0);
  }
}

void SemanticCache::BumpIndexVersion(Shard& shard) {
  shard.index_version =
      index_versions_.fetch_add(1, std::memory_order_relaxed) + 1;
}

size_t SemanticCache::ShardIndexFor(std::string_view query) const {
  if (shards_.size() == 1) return 0;
  return common::Fnv1a(query) % shards_.size();
}

double SemanticCache::EvictionScore(const Entry& entry) const {
  switch (options_.policy) {
    case EvictionPolicy::kLru:
      return static_cast<double>(entry.last_used_tick);
    case EvictionPolicy::kLfu:
      return static_cast<double>(entry.reuse_hits + entry.augment_hits);
    case EvictionPolicy::kCostAware: {
      // Hits are weighted by kind; recency breaks ties so dead entries
      // rotate out.
      double value = kReuseWeight * double(entry.reuse_hits) +
                     kAugmentWeight * double(entry.augment_hits);
      return value + 1e-6 * static_cast<double>(entry.last_used_tick);
    }
  }
  return 0.0;
}

void SemanticCache::AddEntry(Shard& shard, Entry entry,
                             embed::Vector embedding) {
  shard.index.Add(entry.id, std::move(embedding)).ok();
  shard.entries.push_back(std::move(entry));
  BumpIndexVersion(shard);
  shard.metrics.live_entries->Set(static_cast<int64_t>(shard.entries.size()));
}

void SemanticCache::EraseEntry(Shard& shard,
                               std::deque<Entry>::iterator entry) {
  shard.index.Remove(entry->id).ok();  // ignore status: id is known-present
  shard.entries.erase(entry);
  BumpIndexVersion(shard);
  shard.metrics.evictions->Add(1);
  shard.metrics.live_entries->Set(static_cast<int64_t>(shard.entries.size()));
}

void SemanticCache::EvictIfNeeded(Shard& shard,
                                  const durability::MutationGuard& guard) {
  while (shard.entries.size() > shard.capacity) {
    // The first minimum in id order, that is, the oldest of the worst.
    auto victim = shard.entries.begin();
    double worst = EvictionScore(*victim);
    for (auto it = std::next(victim); it != shard.entries.end(); ++it) {
      const double score = EvictionScore(*it);
      if (score < worst) {
        worst = score;
        victim = it;
      }
    }
    const uint64_t id = victim->id;
    EraseEntry(shard, victim);
    // The *outcome* is logged (which entry left), not the scoring that chose
    // it — eviction scores read non-durable heat, so replaying the decision
    // could pick a different victim.
    std::string rec;
    durability::AppendU8(&rec, static_cast<uint8_t>(WalOp::kEvict));
    durability::AppendU32(&rec, static_cast<uint32_t>(shard.shard_id));
    durability::AppendU64(&rec, id);
    LogWal(guard, std::move(rec));
  }
}

std::optional<SemanticCache::Hit> SemanticCache::Lookup(
    const std::string& query, common::Money avoided_cost,
    common::Money output_price_per_1k, Miss* miss) {
  // Embedding is the expensive half of a lookup; do it before taking any
  // lock so concurrent lookups only serialize on the (cheap) shard scan.
  embed::Vector q;
  embedder_.EmbedInto(query, &q);
  Shard& shard = *shards_[ShardIndexFor(query)];
  float top_score = -std::numeric_limits<float>::infinity();
  uint64_t version = 0;
  {
    std::lock_guard<std::mutex> lock(shard.mu);
    shard.metrics.lookups->Add(1);
    ++shard.tick;
    version = shard.index_version;
    const std::vector<vectordb::SearchResult> results =
        shard.index.Search(q, kLookupProbeWidth);
    if (!results.empty()) top_score = results.front().score;
    if (!results.empty() && top_score >= options_.similarity_threshold) {
      Entry& entry = *FindEntry(shard.entries, results.front().id);
      entry.last_used_tick = shard.tick;
      ++entry.reuse_hits;
      // Credit both halves of the avoided bill: the caller's input-side
      // estimate, plus the output tokens the cached response replaces.
      common::Money saved =
          avoided_cost +
          llm::PriceTokens(output_price_per_1k, entry.response_tokens);
      shard.metrics.hits->Add(1);
      shard.metrics.saved_micros->Add(static_cast<uint64_t>(saved.micros()));
      return Hit{entry.query, entry.response, top_score, saved};
    }
  }
  if (miss != nullptr) {
    miss->cache = this;
    miss->query = query;
    miss->embedding = std::move(q);
    miss->version = version;
    miss->best_score = top_score;
  }
  return std::nullopt;
}

std::optional<SemanticCache::Hit> SemanticCache::LookupStale(
    const std::string& query, double relaxed_threshold) const {
  embed::Vector q;
  embedder_.EmbedInto(query, &q);
  // Stale candidates may live in any shard (similar text hashes anywhere),
  // so take the best top-1 across all of them. Ties keep the earliest shard,
  // which with one shard reproduces the pre-sharding result exactly.
  std::optional<Hit> best;
  for (const auto& shard_ptr : shards_) {
    const Shard& shard = *shard_ptr;
    std::lock_guard<std::mutex> lock(shard.mu);
    const std::vector<vectordb::SearchResult> results =
        shard.index.Search(q, kLookupProbeWidth);
    if (results.empty()) continue;
    const vectordb::SearchResult& r = results.front();  // this shard's best
    if (r.score < relaxed_threshold) continue;
    if (!best.has_value() || r.score > best->similarity) {
      const Entry& entry = *FindEntry(shard.entries, r.id);
      best = Hit{entry.query, entry.response, r.score, common::Money::Zero()};
    }
  }
  return best;
}

std::vector<SemanticCache::Hit> SemanticCache::TopKForAugmentation(
    const std::string& query, size_t k) {
  embed::Vector q;
  embedder_.EmbedInto(query, &q);
  // Phase 1: per-shard top-k candidates. Each shard's list arrives best
  // first; the global merge below is a stable sort on score, so candidates
  // keep their (shard, rank) order on ties — with one shard this is exactly
  // the pre-sharding iteration order.
  struct Candidate {
    float score;
    size_t shard;
    uint64_t id;
  };
  std::vector<Candidate> candidates;
  for (size_t s = 0; s < shards_.size(); ++s) {
    Shard& shard = *shards_[s];
    std::lock_guard<std::mutex> lock(shard.mu);
    ++shard.tick;
    for (const auto& r : shard.index.Search(q, k)) {
      candidates.push_back(Candidate{r.score, s, r.id});
    }
  }
  std::stable_sort(candidates.begin(), candidates.end(),
                   [](const Candidate& a, const Candidate& b) {
                     return a.score > b.score;
                   });
  // Phase 2: re-lock each winner's shard to bump its usage. An entry evicted
  // between the phases is simply skipped; ids are never reused, so a
  // candidate's id names its own entry or none.
  std::vector<Hit> out;
  for (const Candidate& c : candidates) {
    if (out.size() == k) break;
    Shard& shard = *shards_[c.shard];
    std::lock_guard<std::mutex> lock(shard.mu);
    auto entry = FindEntry(shard.entries, c.id);
    if (entry == shard.entries.end()) continue;
    entry->last_used_tick = shard.tick;
    ++entry->augment_hits;
    out.push_back(Hit{entry->query, entry->response, c.score,
                      common::Money::Zero()});
  }
  return out;
}

void SemanticCache::Insert(const std::string& query,
                           const std::string& response,
                           common::Money cost_to_produce, Miss* miss) {
  // Take the embedding from this cache's Lookup of this query, or embed
  // before locking (see Lookup). Either way predictive admission may then
  // drop it on a first sighting — accepted: rejections are rare per
  // recurring query, and keeping one critical section preserves the
  // pre-sharding semantics under every interleaving.
  const bool handed =
      miss != nullptr && miss->cache == this && miss->query == query;
  embed::Vector q;
  if (handed) {
    q = std::move(miss->embedding);
    miss->cache = nullptr;  // consumed: its embedding is gone
  } else {
    embedder_.EmbedInto(query, &q);
  }
  // Commit gate before the shard lock (ordering: gate -> shard.mu -> WAL
  // file mutex): the mutation and its WAL record must land on the same side
  // of any concurrent Checkpoint, or replay would re-apply an operation the
  // snapshot already contains.
  durability::MutationGuard guard = durable_ != nullptr
                                        ? durable_->BeginMutation()
                                        : durability::MutationGuard();
  Shard& shard = *shards_[ShardIndexFor(query)];
  std::lock_guard<std::mutex> lock(shard.mu);
  ++shard.tick;
  if (options_.predictive_admission) {
    if (!shard.doorkeeper.SeenAndNote(common::Fnv1a(query))) {
      // First sighting: predicted unlikely to recur; do not admit. Nothing
      // durable changed, so nothing is logged.
      shard.metrics.admission_rejections->Add(1);
      return;
    }
  }
  shard.metrics.insertions->Add(1);
  // Refresh an existing (near-)identical key instead of duplicating it. A
  // handed probe of the unchanged index already settles that there is none
  // when its best score fails the refresh test: every search is exact, so
  // the top-1 search of the same query over the same index would return
  // the probe's best, score bits included.
  const bool probe_settles = handed && miss->version == shard.index_version &&
                             !(miss->best_score > kRefreshSimilarity);
  std::vector<vectordb::SearchResult> nearest;
  if (!probe_settles) nearest = shard.index.Search(q, 1);
  if (!nearest.empty() && nearest[0].score > kRefreshSimilarity) {
    Entry& entry = *FindEntry(shard.entries, nearest[0].id);
    entry.response = response;
    entry.response_tokens = text::CountTokens(response);
    entry.cost_to_produce = cost_to_produce;
    entry.last_used_tick = shard.tick;
    std::string rec;
    durability::AppendU8(&rec, static_cast<uint8_t>(WalOp::kRefresh));
    durability::AppendU32(&rec, static_cast<uint32_t>(shard.shard_id));
    durability::AppendU64(&rec, nearest[0].id);
    durability::AppendString(&rec, response);
    durability::AppendI64(&rec, cost_to_produce.micros());
    LogWal(guard, std::move(rec));
    return;
  }
  Entry entry;
  entry.id = shard.next_id++;
  entry.query = query;
  entry.response = response;
  entry.response_tokens = text::CountTokens(response);
  entry.cost_to_produce = cost_to_produce;
  entry.last_used_tick = shard.tick;
  AddEntry(shard, std::move(entry), std::move(q));
  std::string rec;
  durability::AppendU8(&rec, static_cast<uint8_t>(WalOp::kInsert));
  durability::AppendU32(&rec, static_cast<uint32_t>(shard.shard_id));
  durability::AppendString(&rec, query);
  durability::AppendString(&rec, response);
  durability::AppendI64(&rec, cost_to_produce.micros());
  LogWal(guard, std::move(rec));
  EvictIfNeeded(shard, guard);
}

size_t SemanticCache::Size() const {
  size_t total = 0;
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    total += shard->entries.size();
  }
  return total;
}

SemanticCache::Stats SemanticCache::stats() const {
  // The legacy struct is a view over the per-shard instruments: the same
  // numbers a registry export reports, re-shaped for existing callers.
  Stats total;
  for (const auto& shard : shards_) {
    const ShardMetrics& m = shard->metrics;
    total.lookups += m.lookups->value();
    total.hits += m.hits->value();
    total.insertions += m.insertions->value();
    total.evictions += m.evictions->value();
    total.admission_rejections += m.admission_rejections->value();
    total.saved +=
        common::Money::FromMicros(static_cast<int64_t>(m.saved_micros->value()));
  }
  return total;
}

size_t SemanticCache::doorkeeper_entries() const {
  size_t total = 0;
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    total += shard->doorkeeper.entries();
  }
  return total;
}

void SemanticCache::AttachDurability(durability::DurableStore* store) {
  durable_ = store;
}

void SemanticCache::LogWal(const durability::MutationGuard& guard,
                           std::string payload) {
  if (durable_ == nullptr) return;
  // A failed append is either the harness's injected crash (the process's
  // in-memory state is about to be discarded and re-derived from disk) or a
  // real I/O failure, which the next Sync/Checkpoint surfaces loudly.
  durable_->Append(guard, payload).ok();
}

void SemanticCache::ResetToEmpty() { InitShards(); }

common::Status SemanticCache::SaveSnapshot(std::string* out) const {
  // Per shard: the next id, then the live entries in ascending id. WAL
  // records written after this snapshot name entries by id, and inserts
  // replayed on top of it take ids from the next id, so the image keeps
  // both exactly (the next id is not derivable: the newest entry may have
  // been evicted).
  durability::AppendU32(out, static_cast<uint32_t>(shards_.size()));
  for (const auto& shard_ptr : shards_) {
    const Shard& shard = *shard_ptr;
    std::lock_guard<std::mutex> lock(shard.mu);
    durability::AppendU64(out, shard.next_id);
    durability::AppendU64(out, shard.entries.size());
    for (const Entry& entry : shard.entries) {
      durability::AppendU64(out, entry.id);
      durability::AppendString(out, entry.query);
      durability::AppendString(out, entry.response);
      durability::AppendI64(out, entry.cost_to_produce.micros());
    }
  }
  return common::Status::Ok();
}

common::Status SemanticCache::LoadSnapshot(durability::ByteReader& in) {
  uint32_t num_shards = 0;
  LLMDM_RETURN_IF_ERROR(in.ReadU32(&num_shards));
  if (num_shards != shards_.size()) {
    return common::Status::InvalidArgument(
        "cache snapshot written with " + std::to_string(num_shards) +
        " shards, cache configured with " + std::to_string(shards_.size()));
  }
  for (auto& shard_ptr : shards_) {
    Shard& shard = *shard_ptr;
    std::lock_guard<std::mutex> lock(shard.mu);
    uint64_t count = 0;
    LLMDM_RETURN_IF_ERROR(in.ReadU64(&shard.next_id));
    // The count is untrusted; it sizes no allocation, and a count past the
    // bytes left fails at the first short read.
    LLMDM_RETURN_IF_ERROR(in.ReadU64(&count));
    for (uint64_t i = 0; i < count; ++i) {
      Entry entry;
      int64_t cost_micros = 0;
      LLMDM_RETURN_IF_ERROR(in.ReadU64(&entry.id));
      LLMDM_RETURN_IF_ERROR(in.ReadString(&entry.query));
      LLMDM_RETURN_IF_ERROR(in.ReadString(&entry.response));
      LLMDM_RETURN_IF_ERROR(in.ReadI64(&cost_micros));
      if (entry.id >= shard.next_id ||
          (!shard.entries.empty() && entry.id <= shard.entries.back().id)) {
        return common::Status::InvalidArgument(
            "cache snapshot entry id " + std::to_string(entry.id) +
            " out of order or past the shard's next id");
      }
      // Derived state is recomputed, not stored: the embedder and tokenizer
      // are deterministic, so the rebuilt entry matches the one that was
      // saved.
      embed::Vector embedding;
      embedder_.EmbedInto(entry.query, &embedding);
      entry.response_tokens = text::CountTokens(entry.response);
      entry.cost_to_produce = common::Money::FromMicros(cost_micros);
      AddEntry(shard, std::move(entry), std::move(embedding));
    }
  }
  return common::Status::Ok();
}

common::Status SemanticCache::ApplyWalRecord(std::string_view payload) {
  durability::ByteReader in(payload);
  uint8_t op = 0;
  LLMDM_RETURN_IF_ERROR(in.ReadU8(&op));
  switch (static_cast<WalOp>(op)) {
    case WalOp::kInsert:
      return ApplyInsertRecord(in);
    case WalOp::kRefresh:
      return ApplyRefreshRecord(in);
    case WalOp::kEvict:
      return ApplyEvictRecord(in);
  }
  return common::Status::InvalidArgument("unknown cache WAL op " +
                                         std::to_string(op));
}

common::Status SemanticCache::ApplyInsertRecord(durability::ByteReader& in) {
  uint32_t shard_id = 0;
  Entry entry;
  int64_t cost_micros = 0;
  LLMDM_RETURN_IF_ERROR(in.ReadU32(&shard_id));
  LLMDM_RETURN_IF_ERROR(in.ReadString(&entry.query));
  LLMDM_RETURN_IF_ERROR(in.ReadString(&entry.response));
  LLMDM_RETURN_IF_ERROR(in.ReadI64(&cost_micros));
  if (shard_id >= shards_.size()) {
    return common::Status::InvalidArgument(
        "cache WAL record for shard " + std::to_string(shard_id) + " of " +
        std::to_string(shards_.size()));
  }
  Shard& shard = *shards_[shard_id];
  std::lock_guard<std::mutex> lock(shard.mu);
  embed::Vector embedding;
  embedder_.EmbedInto(entry.query, &embedding);
  entry.response_tokens = text::CountTokens(entry.response);
  entry.cost_to_produce = common::Money::FromMicros(cost_micros);
  // The live process numbered this insert from the same counter, in the
  // same per-shard order.
  entry.id = shard.next_id++;
  AddEntry(shard, std::move(entry), std::move(embedding));
  shard.metrics.insertions->Add(1);
  return common::Status::Ok();
}

common::Status SemanticCache::ApplyRefreshRecord(durability::ByteReader& in) {
  uint32_t shard_id = 0;
  uint64_t id = 0;
  std::string response;
  int64_t cost_micros = 0;
  LLMDM_RETURN_IF_ERROR(in.ReadU32(&shard_id));
  LLMDM_RETURN_IF_ERROR(in.ReadU64(&id));
  LLMDM_RETURN_IF_ERROR(in.ReadString(&response));
  LLMDM_RETURN_IF_ERROR(in.ReadI64(&cost_micros));
  if (shard_id >= shards_.size()) {
    return common::Status::InvalidArgument("cache WAL refresh: bad shard");
  }
  Shard& shard = *shards_[shard_id];
  std::lock_guard<std::mutex> lock(shard.mu);
  auto entry = FindEntry(shard.entries, id);
  if (entry == shard.entries.end()) {
    return common::Status::InvalidArgument(
        "cache WAL refresh of missing entry " + std::to_string(id));
  }
  entry->response = std::move(response);
  entry->response_tokens = text::CountTokens(entry->response);
  entry->cost_to_produce = common::Money::FromMicros(cost_micros);
  return common::Status::Ok();
}

common::Status SemanticCache::ApplyEvictRecord(durability::ByteReader& in) {
  uint32_t shard_id = 0;
  uint64_t id = 0;
  LLMDM_RETURN_IF_ERROR(in.ReadU32(&shard_id));
  LLMDM_RETURN_IF_ERROR(in.ReadU64(&id));
  if (shard_id >= shards_.size()) {
    return common::Status::InvalidArgument("cache WAL evict: bad shard");
  }
  Shard& shard = *shards_[shard_id];
  std::lock_guard<std::mutex> lock(shard.mu);
  auto entry = FindEntry(shard.entries, id);
  if (entry == shard.entries.end()) {
    return common::Status::InvalidArgument(
        "cache WAL evict of missing entry " + std::to_string(id));
  }
  EraseEntry(shard, entry);
  return common::Status::Ok();
}

common::Result<llm::Completion> CachedLlm::Complete(const llm::Prompt& prompt) {
  // Estimate the input half of what a fresh call would cost; the cache
  // credits the output half from the cached response's own token count, so
  // the savings ledger reflects the whole avoided bill (input + output),
  // not just the prompt side.
  size_t input_tokens = prompt.CountInputTokens();
  common::Money avoided =
      llm::PriceTokens(spec().input_price_per_1k, input_tokens);
  obs::Span* probe = nullptr;
  double probe_start = 0.0;
  if (prompt.trace != nullptr) {
    probe_start = prompt.trace->SpanStart(prompt.trace_parent);
    probe = prompt.trace->StartSpan("cache_probe", probe_start,
                                    prompt.trace_parent);
  }
  SemanticCache::Miss miss;
  if (auto hit = cache_->Lookup(prompt.input, avoided,
                                spec().output_price_per_1k, &miss);
      hit.has_value()) {
    cache_hits_.fetch_add(1, std::memory_order_relaxed);
    if (probe != nullptr) {
      prompt.trace->SetAttr(probe, "outcome", "hit");
      prompt.trace->SetAttr(probe, "similarity",
                            common::StrFormat("%.3f", hit->similarity));
      prompt.trace->SetAttr(probe, "saved", hit->saved.ToString());
      prompt.trace->EndSpan(probe, probe_start + 1.0);
    }
    llm::Completion c;
    c.text = hit->response;
    c.confidence = 0.9;  // cache hits are answers we previously committed to
    c.model = spec().name + "+cache";
    c.input_tokens = 0;
    c.output_tokens = 0;
    c.cost = common::Money::Zero();
    c.latency_ms = 1.0;  // vector lookup, not a model round-trip
    return c;
  }
  if (probe != nullptr) {
    prompt.trace->SetAttr(probe, "outcome", "miss");
    prompt.trace->EndSpan(probe, probe_start + 1.0);
  }
  LLMDM_ASSIGN_OR_RETURN(llm::Completion c, inner_->Complete(prompt));
  cache_->Insert(prompt.input, c.text, c.cost, &miss);
  return c;
}

llm::ResilientLlm::CacheFallback MakeStaleCacheFallback(
    const SemanticCache* cache, std::string model_name,
    double relaxed_threshold) {
  return [cache, model_name = std::move(model_name),
          relaxed_threshold](const llm::Prompt& prompt)
             -> std::optional<llm::Completion> {
    auto hit = cache->LookupStale(prompt.input, relaxed_threshold);
    if (!hit.has_value()) return std::nullopt;
    llm::Completion c;
    c.text = hit->response;
    c.confidence = 0.5;  // stale answers carry no freshness guarantee
    c.model = model_name + "+stale-cache";
    c.latency_ms = 1.0;
    return c;
  };
}

}  // namespace llmdm::optimize
