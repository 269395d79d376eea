#ifndef LLMDM_VECTORDB_FLAT_INDEX_H_
#define LLMDM_VECTORDB_FLAT_INDEX_H_

#include <cstdint>
#include <memory>
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

/// True when every element of `v` and its squared L2 norm are finite: the
/// vectors a FlatIndex stores and the queries it answers. Any other vector
/// scores NaN against some row.
bool IsFiniteVector(const Vector& v);

/// The library's vector index: exact brute force, O(n·d) per query. The
/// semantic cache shards, the prompt store and the data lake's VectorStore
/// each hold one by value. Vectors are keyed by caller-chosen 64-bit ids;
/// adding an existing id replaces it. Every row has the length of the first
/// one added.
///
/// Each row is kept twice: in float32, and as int8 codes with a per-row
/// scale (kernels::QuantizeSymmetric). A search sweeps the codes with
/// kernels::DotBatchI8 — a quarter of the bytes a float32 sweep streams —
/// and bounds each row's exact score from its integer dot; it then rescores
/// in float32 only the rows whose bound can still reach the k-th best lower
/// bound. Results (ids, order and every score bit) equal a float32 sweep's.
/// The bound and why it is exact are in flat_index.cc.
///
/// Rows and codes live in fixed blocks of kBlockRows rows, so a growing
/// index allocates one more block instead of copying its arena.
class FlatIndex {
 public:
  static constexpr size_t kBlockRows = 256;
  /// Longest row Add accepts: an int8 dot of up to 2^17 codes of magnitude
  /// 127 fits int32.
  static constexpr size_t kMaxDim = size_t{1} << 17;

  /// InvalidArgument when `vector`'s length differs from the first row's,
  /// exceeds kMaxDim, or when IsFiniteVector(vector) is false.
  common::Status Add(uint64_t id, Vector vector);
  common::Status Remove(uint64_t id);
  bool Contains(uint64_t id) const;
  size_t Size() const { return id_to_slot_.size(); }

  /// Top-k by cosine similarity, best first (score desc, id asc). May
  /// return fewer than k; returns nothing for a query whose length differs
  /// from the rows' or that is not IsFiniteVector.
  std::vector<SearchResult> Search(const Vector& query, size_t k) const;

 private:
  /// kBlockRows slots: float32 rows and int8 codes (stride dim_), plus what
  /// a search reads per row.
  struct Block {
    std::unique_ptr<float[]> rows;
    std::unique_ptr<int8_t[]> codes;
    float norm[kBlockRows];  // L2 norm, as CosineSimilarity computes it
    float f[kBlockRows];     // scale / norm; 0 where the bound is not used
    float rho[kBlockRows];   // relative residual bound, see flat_index.cc
    uint64_t id[kBlockRows];
    bool live[kBlockRows];
  };

  /// The exact score of `slot` against `query` (norm `qnorm`), bit for bit
  /// what a float32 sweep computes.
  float ExactScore(const Vector& query, float qnorm, size_t slot) const;

  size_t dim_ = 0;    // row length; fixed by the first Add
  size_t slots_ = 0;  // slots handed out; dead ones are reused first
  std::vector<std::unique_ptr<Block>> blocks_;
  std::unordered_map<uint64_t, size_t> id_to_slot_;
  std::vector<size_t> free_slots_;
};

}  // namespace llmdm::vectordb

#endif  // LLMDM_VECTORDB_FLAT_INDEX_H_
