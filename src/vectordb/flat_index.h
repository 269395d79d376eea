#ifndef LLMDM_VECTORDB_FLAT_INDEX_H_
#define LLMDM_VECTORDB_FLAT_INDEX_H_

#include <functional>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "vectordb/index.h"
#include "vectordb/kernels.h"

namespace llmdm::vectordb {

/// The library's vector index: exact brute force, O(n·d) per query. The
/// semantic cache shards, the prompt store and the data lake's VectorStore
/// each hold one by value. Vectors are keyed by caller-chosen 64-bit ids;
/// adding an existing id replaces it.
///
/// Vectors live in one contiguous row-major arena so a query is a single
/// kernels::DotBatch sweep plus a bounded top-k selection — no per-row
/// virtual calls, no scoring vector, no full sort. With Options::quantize
/// the arena additionally holds int8 codes (symmetric per-vector scale); the
/// sweep then runs over the codes and only the top k·kRescoreFactor + 8
/// candidates are rescored with exact float32, so returned scores are always
/// exact while the O(n·d) inner loop is 4-byte→1-byte.
class FlatIndex {
 public:
  struct Options {
    /// Scan int8 codes and rescore the short list in float32. Returned
    /// scores are exact; only *which* rows make the short list is
    /// approximate (recall gate: ≥0.99 on the Table III workload).
    bool quantize = false;
  };

  /// Quantized short-list size is k * kRescoreFactor + 8.
  static constexpr size_t kRescoreFactor = 3;

  FlatIndex() = default;
  explicit FlatIndex(const Options& options) : options_(options) {}

  common::Status Add(uint64_t id, Vector vector);
  common::Status Remove(uint64_t id);
  bool Contains(uint64_t id) const;
  size_t Size() const { return id_to_slot_.size(); }

  /// Top-k by cosine similarity, best first (score desc, id asc). May
  /// return fewer than k.
  std::vector<SearchResult> Search(const Vector& query, size_t k) const;

  /// Invokes `fn(id, vector)` once per live vector, in ascending id order,
  /// with the vector at its original length. The ordering is part of the
  /// contract: SemanticCache's stable compaction refills a fresh index from
  /// this iteration and relies on ids arriving in their old relative order.
  void ForEach(const std::function<void(uint64_t, const Vector&)>& fn) const;

 private:
  // Grows the row stride to `new_dim`, zero-padding existing rows in place
  // (zero padding never changes a dot product or a norm).
  void GrowDim(size_t new_dim);
  void PackRow(size_t slot, const Vector& v);

  Options options_;
  size_t dim_ = 0;  // row stride; set by the first Add, grows as needed

  // Parallel per-slot arrays. Dead slots stay in the arena (scanned but
  // filtered) until reused via free_slots_.
  std::vector<float> base_;     // slot-major rows, stride dim_
  std::vector<int8_t> codes_;   // int8 rows, stride dim_ (quantize only)
  std::vector<float> scales_;   // per-slot quantization scale
  std::vector<float> norms_;    // per-slot L2 norm of the original vector
  std::vector<uint32_t> lens_;  // original (pre-padding) vector length
  std::vector<uint64_t> ids_;
  std::vector<uint8_t> live_;

  std::unordered_map<uint64_t, size_t> id_to_slot_;
  std::vector<size_t> free_slots_;
};

}  // namespace llmdm::vectordb

#endif  // LLMDM_VECTORDB_FLAT_INDEX_H_
