#include "core/exploration/datalake.h"

namespace llmdm::exploration {

std::string_view ModalityName(Modality modality) {
  switch (modality) {
    case Modality::kText:
      return "text";
    case Modality::kTable:
      return "table";
    case Modality::kImage:
      return "image";
    case Modality::kLog:
      return "log";
  }
  return "?";
}

common::Status MultiModalDataLake::Ingest(LakeItem item) {
  if (item.id == 0) item.id = next_id_++;
  next_id_ = std::max(next_id_, item.id + 1);

  vectordb::StoredItem stored;
  stored.id = item.id;
  // Unified space: title and content share one embedding; the modality tag
  // is metadata, not a separate space.
  stored.vector = embedder_.Embed(item.title + " " + item.content);
  stored.payload = item.content;
  stored.attributes = item.attributes;
  stored.attributes["modality"] =
      data::Value::Text(std::string(ModalityName(item.modality)));
  LLMDM_RETURN_IF_ERROR(store_.Insert(std::move(stored)));
  items_[item.id] = std::move(item);
  return common::Status::Ok();
}

common::Status MultiModalDataLake::IngestTable(const data::Table& table,
                                               const std::string& entity_type,
                                               TableGranularity granularity) {
  auto base_item = [&]() {
    LakeItem item;
    item.modality = Modality::kTable;
    item.title = table.name();
    item.attributes["entity_type"] = data::Value::Text(entity_type);
    item.attributes["source_table"] = data::Value::Text(table.name());
    return item;
  };
  if (granularity == TableGranularity::kTable) {
    // One embedding for the whole table: schema plus a row sample. Compact
    // (one vector regardless of size) but any one row's details are diluted.
    LakeItem item = base_item();
    item.content = table.name() + " (" + table.schema().ToString() + "). ";
    for (size_t r = 0; r < std::min<size_t>(table.NumRows(), 16); ++r) {
      item.content += table.SerializeRowAsText(r) + ". ";
    }
    return Ingest(std::move(item));
  }
  for (size_t r = 0; r < table.NumRows(); ++r) {
    LakeItem item = base_item();
    item.content = table.SerializeRowAsText(r);
    LLMDM_RETURN_IF_ERROR(Ingest(std::move(item)));
  }
  return common::Status::Ok();
}

MultiModalDataLake::Hit MultiModalDataLake::MakeHit(
    const vectordb::SearchResult& r) const {
  Hit hit;
  hit.id = r.id;
  hit.score = r.score;
  auto it = items_.find(r.id);
  if (it != items_.end()) {
    hit.modality = it->second.modality;
    hit.title = it->second.title;
    hit.snippet = it->second.content.substr(0, 120);
  }
  return hit;
}

std::vector<MultiModalDataLake::Hit> MultiModalDataLake::Query(
    const std::string& nl_query, size_t k) {
  std::vector<Hit> out;
  for (const auto& r : store_.Search(embedder_.Embed(nl_query), k)) {
    out.push_back(MakeHit(r));
  }
  return out;
}

std::vector<MultiModalDataLake::Hit> MultiModalDataLake::QueryFiltered(
    const std::string& nl_query, size_t k, std::optional<Modality> modality,
    const std::map<std::string, data::Value>& attribute_equals) {
  auto predicate =
      [&](const std::map<std::string, data::Value>& attrs) -> bool {
    if (modality.has_value()) {
      auto it = attrs.find("modality");
      if (it == attrs.end() ||
          it->second.ToString() != ModalityName(*modality)) {
        return false;
      }
    }
    for (const auto& [key, want] : attribute_equals) {
      auto it = attrs.find(key);
      if (it == attrs.end() || !(it->second == want)) return false;
    }
    return true;
  };
  std::vector<Hit> out;
  for (const auto& r : store_.HybridSearch(
           embedder_.Embed(nl_query), k, predicate,
           vectordb::VectorStore::FilterStrategy::kAdaptive)) {
    out.push_back(MakeHit(r));
  }
  return out;
}

const LakeItem* MultiModalDataLake::Get(uint64_t id) const {
  auto it = items_.find(id);
  return it == items_.end() ? nullptr : &it->second;
}

}  // namespace llmdm::exploration
