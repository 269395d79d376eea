#ifndef LLMDM_CORE_OPTIMIZE_SEMANTIC_CACHE_H_
#define LLMDM_CORE_OPTIMIZE_SEMANTIC_CACHE_H_

#include <atomic>
#include <deque>
#include <limits>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_set>
#include <vector>

#include "durability/durable.h"
#include "embed/embedder.h"
#include "llm/model.h"
#include "llm/resilient.h"
#include "obs/metrics.h"
#include "vectordb/flat_index.h"

namespace llmdm::durability {
class DurableStore;
}  // namespace llmdm::durability

namespace llmdm::optimize {

/// Eviction policies for the semantic cache. The paper argues plain LRU/LFU
/// are insufficient because cache hits have two different values: (1) reuse
/// hits replace an LLM call entirely, (2) augmentation hits only improve a
/// prompt — so kCostAware weights entries by the kind and cost of the hits
/// they have produced.
enum class EvictionPolicy { kLru, kLfu, kCostAware };

/// Bounded doorkeeper for predictive admission: a two-epoch rotating window
/// of query hashes (TinyLFU style). Membership means "seen within the last
/// one-to-two epochs"; when the current epoch fills, it becomes the previous
/// epoch and the oldest epoch is dropped, so memory is bounded by
/// 2 x epoch_capacity entries no matter how long the query stream runs —
/// unlike the unbounded seen-once set it replaces.
class Doorkeeper {
 public:
  explicit Doorkeeper(size_t epoch_capacity)
      : epoch_capacity_(epoch_capacity == 0 ? 1 : epoch_capacity) {}

  /// True if `h` was sighted within the window; always records the sighting.
  bool SeenAndNote(uint64_t h) {
    if (current_.count(h) > 0 || previous_.count(h) > 0) return true;
    current_.insert(h);
    if (current_.size() >= epoch_capacity_) {
      previous_ = std::move(current_);
      current_.clear();
    }
    return false;
  }

  size_t entries() const { return current_.size() + previous_.size(); }
  size_t epoch_capacity() const { return epoch_capacity_; }

 private:
  size_t epoch_capacity_;
  std::unordered_set<uint64_t> current_, previous_;
};

/// Embedding-keyed response cache (Sec. III-C / Table III). Matching is by
/// cosine similarity rather than exact equality, because LLM queries almost
/// never repeat verbatim.
///
/// Thread-safe and sharded: the serving layer shares one cache across all
/// worker threads, so the cache is split into Options::num_shards
/// independently locked shards by query hash — each shard owns its own
/// index, entries, eviction state, statistics and doorkeeper, and the
/// global capacity is divided across shards. Query embedding (the expensive
/// half of a lookup) happens before any lock is taken. With num_shards == 1
/// (the default) behaviour is byte-identical to the pre-sharding cache.
/// Reuse lookups consult only the query's shard (the hot path touches one
/// lock); augmentation and stale lookups search every shard, since their
/// candidates may hash anywhere.
class SemanticCache : public durability::DurableState {
 public:
  struct Options {
    double similarity_threshold = 0.9;
    size_t capacity = 256;
    EvictionPolicy policy = EvictionPolicy::kCostAware;
    /// Predictive admission (the paper's "predict the probability of future
    /// access ... or refrain from caching"): a query is only admitted on its
    /// second sighting (TinyLFU-doorkeeper style), so one-off queries never
    /// displace recurring ones. Costs one extra model call per recurring
    /// query; pays off when the stream is dominated by singletons.
    bool predictive_admission = false;
    /// Number of independently locked shards. Serving throughput scales
    /// with shards until embedding dominates; keep it a small power of two.
    size_t num_shards = 1;
    /// Metrics registry the cache's per-shard instruments live in. Null
    /// (the default) gives the cache a private registry, which keeps
    /// stats() per-instance; inject one registry per cache to aggregate
    /// across a stack (instrument names collide between caches sharing a
    /// registry).
    obs::Registry* registry = nullptr;
  };

  struct Hit {
    std::string query;       // the cached query that matched
    std::string response;
    double similarity = 0.0;
    common::Money saved;     // cost the hit avoided
  };

  struct Stats {
    size_t lookups = 0;
    size_t hits = 0;
    size_t insertions = 0;
    size_t evictions = 0;
    size_t admission_rejections = 0;  // first-sighting skips (predictive)
    common::Money saved;
    double hit_rate() const {
      return lookups == 0 ? 0.0
                          : static_cast<double>(hits) /
                                static_cast<double>(lookups);
    }
  };

  /// What a missed Lookup learned about its query, handed to the Insert
  /// that follows the model call so a miss embeds the query and scans its
  /// shard once (CachedLlm::Complete passes one along). Lookup fills it only
  /// on a miss; Insert consumes it. Only the issuing cache trusts it, and
  /// only for the query it was issued for.
  struct Miss {
    const SemanticCache* cache = nullptr;  // the issuer; null: untrusted
    std::string query;
    embed::Vector embedding;
    /// The query's shard's index version, read under the probe's lock.
    uint64_t version = 0;
    /// The probe's best score; -inf when the shard held no candidate.
    float best_score = -std::numeric_limits<float>::infinity();
  };

  explicit SemanticCache(const Options& options);

  /// Reuse lookup: the best cached entry with similarity >= threshold.
  /// `avoided_cost` is what a fresh LLM call's *input* side would have
  /// cost; when `output_price_per_1k` is non-zero the hit additionally
  /// credits the output tokens the cached response replaces — both halves
  /// of the bill land in Hit::saved and the stats ledger. On a miss, a
  /// non-null `miss` receives the probe's embedding, shard index version
  /// and best score for Insert (see Miss).
  std::optional<Hit> Lookup(
      const std::string& query,
      common::Money avoided_cost = common::Money::Zero(),
      common::Money output_price_per_1k = common::Money::Zero(),
      Miss* miss = nullptr);

  /// Augmentation lookup: top-k similar cached (query, response) pairs below
  /// or above threshold, for use as extra few-shot examples (hit case (2)).
  /// Searches every shard and merges.
  std::vector<Hit> TopKForAugmentation(const std::string& query, size_t k);

  /// Degraded-mode lookup at a caller-chosen (typically relaxed) threshold.
  /// Does not touch stats or eviction state: a stale serve is an emergency
  /// exit, not evidence the entry is hot. Searches every shard.
  std::optional<Hit> LookupStale(const std::string& query,
                                 double relaxed_threshold) const;

  /// Inserts (or refreshes) a query/response pair into the query's shard,
  /// evicting within that shard if it is over its capacity share. An entry
  /// scoring above 0.999 against the query is refreshed in place; finding
  /// it takes a top-1 search of the shard.
  ///
  /// `miss`, when it holds this cache's Lookup of this same query, saves
  /// work without changing any decision: Insert takes its embedding instead
  /// of embedding the query again (the handle is consumed), and skips the
  /// search when the shard's index has not changed since the probe and the
  /// probe's best score was not above 0.999 — the top-1 search could then
  /// only have found the same or a lower score. In every other case Insert
  /// searches, exactly as without a handle.
  void Insert(const std::string& query, const std::string& response,
              common::Money cost_to_produce = common::Money::Zero(),
              Miss* miss = nullptr);

  /// Live entries across all shards.
  size_t Size() const;

  /// Snapshot aggregated across shards (each shard locked in turn; the
  /// result is a consistent per-shard sum, not a global atomic snapshot).
  Stats stats() const;

  const Options& options() const { return options_; }  // immutable

  size_t num_shards() const { return shards_.size(); }

  /// Doorkeeper epoch capacity per shard; each shard's rotating window
  /// retains at most twice this many hashes (see Doorkeeper).
  static constexpr size_t kDoorkeeperCapacity = 4096;

  /// Total doorkeeper window entries across shards (bounded by
  /// num_shards x 2 x kDoorkeeperCapacity); exposed for the bound tests.
  size_t doorkeeper_entries() const;

  /// The registry holding the cache's instruments (the injected one, or the
  /// private per-instance registry).
  obs::Registry* registry() const { return registry_; }

  /// Attaches a DurableStore (src/durability/): from here on every
  /// insert/refresh/evict is logged as a physical WAL record under
  /// the store's commit gate. Call during setup — typically right after
  /// DurableStore::Open has replayed this cache back to its recovered state
  /// — not while other threads are using the cache. Pass nullptr to detach.
  void AttachDurability(durability::DurableStore* store);

  // DurableState implementation. The durable image is the payload state
  // (queries, responses, costs, entry ids and each shard's next id — WAL
  // records name entries by id, so ids stay valid across a checkpoint);
  // heat (ticks, hit counts, the doorkeeper window, metric counters) is
  // process-local and re-learned.
  void ResetToEmpty() override;
  common::Status SaveSnapshot(std::string* out) const override;
  common::Status LoadSnapshot(durability::ByteReader& in) override;
  common::Status ApplyWalRecord(std::string_view payload) override;

 private:
  /// Physical WAL record kinds. Replay re-applies the *outcome* of each
  /// mutation (which entry, which shard) rather than re-running admission or
  /// eviction heuristics, which consult non-durable heat and would diverge.
  enum class WalOp : uint8_t {
    kInsert = 1,   // shard, query, response, cost -> add under the next id
    kRefresh = 2,  // shard, id, response, cost    -> overwrite payload
    kEvict = 3,    // shard, id                    -> erase
  };

  /// One cached pair. Its embedding lives only in the shard's index, under
  /// the entry's id.
  struct Entry {
    uint64_t id = 0;
    std::string query;
    std::string response;
    common::Money cost_to_produce;
    /// Token count of `response`, memoized at insert so a hit can credit
    /// the output half of the avoided bill without re-tokenizing.
    size_t response_tokens = 0;
    uint64_t last_used_tick = 0;
    size_t reuse_hits = 0;
    size_t augment_hits = 0;
  };

  /// Per-shard instruments; the legacy Stats struct is a read-time view
  /// over these counters.
  struct ShardMetrics {
    obs::Counter* lookups = nullptr;
    obs::Counter* hits = nullptr;
    obs::Counter* insertions = nullptr;
    obs::Counter* evictions = nullptr;
    obs::Counter* admission_rejections = nullptr;
    obs::Counter* saved_micros = nullptr;
    obs::Gauge* live_entries = nullptr;
  };

  struct Shard {
    explicit Shard(size_t cap)
        : capacity(cap), doorkeeper(kDoorkeeperCapacity) {}

    mutable std::mutex mu;
    vectordb::FlatIndex index;  // keyed by entry id
    /// Live entries in ascending id. Ids come from next_id and are never
    /// reused, so an insert appends, ascending id is insertion order (the
    /// order the search tie-break and the eviction scan read), and an id
    /// held across an unlock names its entry or nothing. A deque, because
    /// the usual victim is the oldest entry and erasing it moves nothing.
    std::deque<Entry> entries;
    uint64_t next_id = 0;
    uint64_t tick = 0;
    /// Replaced from the cache-wide index_versions_ counter on every index
    /// mutation (add, remove) and at shard creation, so equal versions mean
    /// an unchanged index — even across ResetToEmpty. Miss handles record
    /// it.
    uint64_t index_version = 0;
    size_t capacity = 0;  // this shard's share of Options::capacity
    size_t shard_id = 0;  // position in shards_, for WAL record encoding
    Doorkeeper doorkeeper;
    ShardMetrics metrics;
  };

  size_t ShardIndexFor(std::string_view query) const;
  double EvictionScore(const Entry& entry) const;
  /// (Re)creates the shard array empty; shared by the constructor and
  /// ResetToEmpty. Instruments are re-fetched from the registry, so counters
  /// survive a reset (they are process metrics, not cache state).
  void InitShards();
  /// Appends one WAL record when durability is attached; no-op otherwise.
  /// The guard must be held whenever shard state is being mutated.
  void LogWal(const durability::MutationGuard& guard, std::string payload);
  common::Status ApplyInsertRecord(durability::ByteReader& in);
  common::Status ApplyRefreshRecord(durability::ByteReader& in);
  common::Status ApplyEvictRecord(durability::ByteReader& in);
  /// Appends `entry` (its id above every live one) with its embedding: the
  /// shared mutation of Insert, WAL replay and snapshot load. Requires
  /// shard.mu.
  void AddEntry(Shard& shard, Entry entry, embed::Vector embedding);
  /// Erases `entry` and its index row (the shared mutation of live eviction
  /// and WAL replay). Requires shard.mu.
  void EraseEntry(Shard& shard, std::deque<Entry>::iterator entry);
  void EvictIfNeeded(Shard& shard,
                     const durability::MutationGuard& guard);  // requires mu
  /// Stamps `shard` with a fresh index version (see Shard::index_version).
  /// Requires shard.mu once the shard is reachable from other threads.
  void BumpIndexVersion(Shard& shard);

  Options options_;
  embed::HashingEmbedder embedder_;
  /// Private registry when Options::registry is null (keeps stats()
  /// per-instance); registry_ always points at the one in use.
  std::unique_ptr<obs::Registry> owned_registry_;
  obs::Registry* registry_ = nullptr;
  std::vector<std::unique_ptr<Shard>> shards_;
  std::atomic<uint64_t> index_versions_{0};  // last version handed out
  durability::DurableStore* durable_ = nullptr;  // not owned; may be null
};

/// An LlmModel decorator that consults a SemanticCache before calling the
/// wrapped model: the drop-in "LLM cache" of Sec. III-C. Hits return the
/// cached completion at zero cost; misses call through and populate the
/// cache.
class CachedLlm : public llm::LlmModel {
 public:
  CachedLlm(std::shared_ptr<llm::LlmModel> inner, SemanticCache* cache)
      : inner_(std::move(inner)), cache_(cache) {}

  const llm::ModelSpec& spec() const override { return inner_->spec(); }
  common::Result<llm::Completion> Complete(const llm::Prompt& prompt) override;

  size_t cache_hits() const {
    return cache_hits_.load(std::memory_order_relaxed);
  }

 private:
  std::shared_ptr<llm::LlmModel> inner_;
  SemanticCache* cache_;
  std::atomic<size_t> cache_hits_{0};
};

/// Builds a ResilientLlm cache fallback that serves the nearest cached
/// response at `relaxed_threshold` when the live endpoint is exhausted —
/// the paper's semantic cache doubling as the last rung of graceful
/// degradation. Served completions are free, near-instant, and labelled
/// "<model>+stale-cache" so traces show which answers were stale.
/// `cache` must outlive the returned function.
llm::ResilientLlm::CacheFallback MakeStaleCacheFallback(
    const SemanticCache* cache, std::string model_name,
    double relaxed_threshold = 0.75);

}  // namespace llmdm::optimize

#endif  // LLMDM_CORE_OPTIMIZE_SEMANTIC_CACHE_H_
