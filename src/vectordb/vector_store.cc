#include "vectordb/vector_store.h"

#include <algorithm>
#include <cmath>

#include "vectordb/kernels.h"

namespace llmdm::vectordb {

size_t AdaptiveKPredictor::PredictFetchK(size_t want) const {
  double rate = std::max(pass_rate_, 0.01);
  double k = static_cast<double>(want) / rate * safety_;
  return static_cast<size_t>(std::ceil(k));
}

void AdaptiveKPredictor::Observe(size_t fetched, size_t passed) {
  if (fetched == 0) return;
  double observed = static_cast<double>(passed) / static_cast<double>(fetched);
  constexpr double kAlpha = 0.3;
  pass_rate_ = (1.0 - kAlpha) * pass_rate_ + kAlpha * observed;
  pass_rate_ = std::clamp(pass_rate_, 0.01, 1.0);
}

common::Status VectorStore::Insert(StoredItem item) {
  uint64_t id = item.id;
  LLMDM_RETURN_IF_ERROR(index_.Add(id, item.vector));
  items_[id] = std::move(item);
  return common::Status::Ok();
}

common::Status VectorStore::Remove(uint64_t id) {
  if (items_.erase(id) == 0) {
    return common::Status::NotFound("no item with id " + std::to_string(id));
  }
  return index_.Remove(id);
}

const StoredItem* VectorStore::Get(uint64_t id) const {
  auto it = items_.find(id);
  return it == items_.end() ? nullptr : &it->second;
}

std::vector<SearchResult> VectorStore::Search(const Vector& query,
                                              size_t k) const {
  return index_.Search(query, k);
}

double VectorStore::EstimateSelectivity(const AttributePredicate& predicate,
                                        size_t sample_size) const {
  if (items_.empty()) return 0.0;
  // A strided sample across the whole container: hash-map iteration order is
  // correlated with the key, so a prefix would be a badly biased sample
  // (e.g. all ids from one range); striding decorrelates it.
  size_t stride = std::max<size_t>(1, items_.size() / sample_size);
  size_t index = 0, sampled = 0, passed = 0;
  for (const auto& [id, item] : items_) {
    if (index++ % stride != 0) continue;
    ++sampled;
    if (predicate(item.attributes)) ++passed;
    if (sampled >= sample_size) break;
  }
  return sampled == 0
             ? 0.0
             : static_cast<double>(passed) / static_cast<double>(sampled);
}

std::vector<SearchResult> VectorStore::HybridSearch(
    const Vector& query, size_t k, const AttributePredicate& predicate,
    FilterStrategy strategy, HybridStats* stats) {
  HybridStats local;
  if (!IsFiniteVector(query)) {
    // It would score NaN against every item; as in the index's own search,
    // it finds nothing.
    if (stats != nullptr) *stats = local;
    return {};
  }
  if (strategy == FilterStrategy::kAdaptive) {
    double selectivity = EstimateSelectivity(predicate);
    local.estimated_selectivity = selectivity;
    // With few expected survivors, exact ranking over the filtered set is
    // cheaper than over-fetching k/selectivity candidates from the index.
    double expected_survivors = selectivity * static_cast<double>(items_.size());
    strategy = (expected_survivors <= 8.0 * static_cast<double>(k))
                   ? FilterStrategy::kPreFilter
                   : FilterStrategy::kPostFilter;
  }
  local.executed = strategy;

  std::vector<SearchResult> out;
  if (strategy == FilterStrategy::kPreFilter) {
    // Bounded selection: survivors stream through a top-k heap instead of
    // being materialized and partially sorted (same result order: score
    // desc, id asc).
    kernels::TopKSelector selected(k);
    for (const auto& [id, item] : items_) {
      if (!predicate(item.attributes)) continue;
      ++local.candidates_examined;
      selected.Offer(embed::CosineSimilarity(query, item.vector), id);
    }
    for (const kernels::ScoredId& r : selected.TakeSorted()) {
      out.push_back(SearchResult{r.id, r.score});
    }
  } else {
    // Post-filter: over-fetch, filter, grow on shortfall.
    size_t fetch_k = k_predictor_.PredictFetchK(k);
    for (int attempt = 0; attempt < 4; ++attempt) {
      fetch_k = std::min(fetch_k, items_.size());
      local.fetch_k = fetch_k;
      std::vector<SearchResult> candidates = index_.Search(query, fetch_k);
      local.candidates_examined = candidates.size();
      out.clear();
      for (const SearchResult& c : candidates) {
        const StoredItem* item = Get(c.id);
        if (item != nullptr && predicate(item->attributes)) {
          out.push_back(c);
          if (out.size() == k) break;
        }
      }
      k_predictor_.Observe(candidates.size(), out.size());
      if (out.size() >= k || fetch_k >= items_.size()) break;
      fetch_k *= 4;
    }
  }
  if (stats != nullptr) *stats = local;
  return out;
}

}  // namespace llmdm::vectordb
