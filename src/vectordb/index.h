#ifndef LLMDM_VECTORDB_INDEX_H_
#define LLMDM_VECTORDB_INDEX_H_

#include <cstdint>

#include "embed/embedder.h"

namespace llmdm::vectordb {

using embed::Vector;

/// One nearest-neighbour hit. `score` is cosine similarity (higher = closer);
/// all library embeddings are unit-normalized so this equals the dot product.
struct SearchResult {
  uint64_t id = 0;
  float score = 0.0f;

  bool operator==(const SearchResult&) const = default;
};

}  // namespace llmdm::vectordb

#endif  // LLMDM_VECTORDB_INDEX_H_
