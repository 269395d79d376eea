#ifndef LLMDM_VECTORDB_VECTOR_STORE_H_
#define LLMDM_VECTORDB_VECTOR_STORE_H_

#include <functional>
#include <map>
#include <string>
#include <unordered_map>

#include "common/result.h"
#include "data/value.h"
#include "vectordb/flat_index.h"

namespace llmdm::vectordb {

/// An item in the store: a vector plus the payload it represents and a bag of
/// scalar attributes for hybrid (filtered) search — the "attribute filtering"
/// setting of Sec. III-B.2.
struct StoredItem {
  uint64_t id = 0;
  Vector vector;
  std::string payload;
  std::map<std::string, data::Value> attributes;
};

/// Predicts how much to over-fetch in "vector search first" hybrid queries.
/// The paper notes that production systems hard-code a large k and proposes
/// learning it; this predictor tracks the realized filter pass-rate with an
/// exponential moving average and sizes the fetch as k / pass_rate plus
/// safety margin.
class AdaptiveKPredictor {
 public:
  explicit AdaptiveKPredictor(double initial_pass_rate = 0.5,
                              double safety_factor = 1.5)
      : pass_rate_(initial_pass_rate), safety_(safety_factor) {}

  /// The k to request from the vector index to end up with `want` survivors.
  size_t PredictFetchK(size_t want) const;

  /// Feeds back one query's outcome: `fetched` candidates, `passed` of them
  /// survived the attribute filter.
  void Observe(size_t fetched, size_t passed);

  double pass_rate() const { return pass_rate_; }

 private:
  double pass_rate_;
  double safety_;
};

/// Vector collection with attribute metadata and hybrid search. Owns a
/// FlatIndex for the vector side; the attribute side is an in-memory scan
/// (sufficient at library scale, and what the filter-ordering trade-off
/// actually compares against).
class VectorStore {
 public:
  enum class FilterStrategy { kPreFilter, kPostFilter, kAdaptive };

  using AttributePredicate =
      std::function<bool(const std::map<std::string, data::Value>&)>;

  /// Diagnostics from one hybrid query (which path ran, how much work).
  struct HybridStats {
    FilterStrategy executed = FilterStrategy::kPreFilter;
    size_t candidates_examined = 0;  // items whose similarity was computed
    size_t fetch_k = 0;              // k requested from the index (post-filter)
    double estimated_selectivity = 0.0;
  };

  /// InvalidArgument, storing nothing, when the index refuses the vector
  /// (another length, or not IsFiniteVector).
  common::Status Insert(StoredItem item);
  common::Status Remove(uint64_t id);
  const StoredItem* Get(uint64_t id) const;
  size_t Size() const { return items_.size(); }

  /// Pure vector top-k.
  std::vector<SearchResult> Search(const Vector& query, size_t k) const;

  /// Top-k among items satisfying `predicate`.
  ///
  /// kPreFilter scans attributes first and ranks survivors exactly — right
  /// when the filter is selective. kPostFilter asks the index for an
  /// over-fetched candidate list (sized by the adaptive-k predictor) and
  /// filters it — right when most items pass. kAdaptive estimates the
  /// selectivity from a sample and picks a side. A query that is not
  /// IsFiniteVector finds nothing.
  std::vector<SearchResult> HybridSearch(const Vector& query, size_t k,
                                         const AttributePredicate& predicate,
                                         FilterStrategy strategy,
                                         HybridStats* stats = nullptr);

  /// Fraction of (sampled) items passing the predicate.
  double EstimateSelectivity(const AttributePredicate& predicate,
                             size_t sample_size = 256) const;

  AdaptiveKPredictor& k_predictor() { return k_predictor_; }

 private:
  FlatIndex index_;
  std::unordered_map<uint64_t, StoredItem> items_;
  AdaptiveKPredictor k_predictor_;
};

}  // namespace llmdm::vectordb

#endif  // LLMDM_VECTORDB_VECTOR_STORE_H_
