#ifndef LLMDM_CORE_EXPLORATION_DATALAKE_H_
#define LLMDM_CORE_EXPLORATION_DATALAKE_H_

#include <map>
#include <optional>
#include <string>
#include <vector>

#include "common/result.h"
#include "data/table.h"
#include "embed/embedder.h"
#include "vectordb/vector_store.h"

namespace llmdm::exploration {

/// Item modalities in the lake. Images are represented by their descriptor
/// text (captions/EXIF-like metadata) — the hardware-free stand-in for a
/// vision encoder, preserving the property that matters here: everything
/// lands in one embedding space (Sec. II-D.1).
enum class Modality { kText, kTable, kImage, kLog };

std::string_view ModalityName(Modality modality);

/// One object in the multi-modal data lake.
struct LakeItem {
  uint64_t id = 0;
  Modality modality = Modality::kText;
  std::string title;
  std::string content;
  /// Scalar attributes for hybrid filtering (e.g. entity_type, year) — the
  /// paper's fix for the "Prof. Michael Jordan" similar-but-irrelevant
  /// problem (Sec. III-B.2).
  std::map<std::string, data::Value> attributes;
};

/// Multi-modal data lake with unified-embedding semantic search and
/// attribute filtering. Tables are ingested row-wise (each row serialized to
/// a sentence) so that SQL-less semantic queries still reach tabular facts.
class MultiModalDataLake {
 public:
  common::Status Ingest(LakeItem item);

  /// Embedding granularity for table ingestion (Sec. III-B.2: "an embedding
  /// can represent a table or specific rows of the table ... varied
  /// granularities can influence query performance differently").
  enum class TableGranularity {
    kRow,    // one item per row: precise retrieval of specific facts
    kTable,  // one item per table: compact, good for whole-table queries
  };

  /// Serializes `table` into kTable items at the chosen granularity;
  /// `entity_type` becomes an attribute on every produced item.
  common::Status IngestTable(const data::Table& table,
                             const std::string& entity_type,
                             TableGranularity granularity = TableGranularity::kRow);

  struct Hit {
    uint64_t id = 0;
    float score = 0.0f;
    Modality modality = Modality::kText;
    std::string title;
    std::string snippet;
  };

  /// Semantic top-k over every modality.
  std::vector<Hit> Query(const std::string& nl_query, size_t k);

  /// Semantic top-k restricted by modality and/or attribute equality
  /// (adaptive pre/post filter ordering underneath).
  std::vector<Hit> QueryFiltered(
      const std::string& nl_query, size_t k,
      std::optional<Modality> modality,
      const std::map<std::string, data::Value>& attribute_equals);

  size_t Size() const { return store_.Size(); }
  const LakeItem* Get(uint64_t id) const;

 private:
  Hit MakeHit(const vectordb::SearchResult& r) const;

  embed::HashingEmbedder embedder_;
  vectordb::VectorStore store_;
  std::map<uint64_t, LakeItem> items_;
  uint64_t next_id_ = 1;
};

}  // namespace llmdm::exploration

#endif  // LLMDM_CORE_EXPLORATION_DATALAKE_H_
