#ifndef LLMDM_VECTORDB_FLAT_INDEX_H_
#define LLMDM_VECTORDB_FLAT_INDEX_H_

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "embed/embedder.h"
#include "vectordb/kernels.h"

namespace llmdm::vectordb {

using embed::Vector;

/// One nearest-neighbour hit. `score` is cosine similarity (higher = closer);
/// all library embeddings are unit-normalized so this equals the dot product.
struct SearchResult {
  uint64_t id = 0;
  float score = 0.0f;

  bool operator==(const SearchResult&) const = default;
};

/// The library's vector index: exact brute force, O(n·d) per query. The
/// semantic cache shards, the prompt store and the data lake's VectorStore
/// each hold one by value. Vectors are keyed by caller-chosen 64-bit ids;
/// adding an existing id replaces it. Every row has the length of the first
/// one added.
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

  /// InvalidArgument when `vector`'s length differs from the first row's.
  common::Status Add(uint64_t id, Vector vector);
  common::Status Remove(uint64_t id);
  bool Contains(uint64_t id) const;
  size_t Size() const { return id_to_slot_.size(); }

  /// Top-k by cosine similarity, best first (score desc, id asc). May
  /// return fewer than k; returns nothing for a query whose length differs
  /// from the rows'.
  std::vector<SearchResult> Search(const Vector& query, size_t k) const;

 private:
  Options options_;
  size_t dim_ = 0;  // row length; fixed by the first Add

  // Parallel per-slot arrays. Dead slots stay in the arena (scanned but
  // filtered) until reused via free_slots_.
  std::vector<float> base_;     // slot-major rows, stride dim_
  std::vector<int8_t> codes_;   // int8 rows, stride dim_ (quantize only)
  std::vector<float> scales_;   // per-slot quantization scale
  std::vector<float> norms_;    // per-slot L2 norm
  std::vector<uint64_t> ids_;
  std::vector<uint8_t> live_;

  std::unordered_map<uint64_t, size_t> id_to_slot_;
  std::vector<size_t> free_slots_;
};

}  // namespace llmdm::vectordb

#endif  // LLMDM_VECTORDB_FLAT_INDEX_H_
