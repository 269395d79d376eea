#include "vectordb/flat_index.h"

#include <algorithm>
#include <cmath>
#include <string>

namespace llmdm::vectordb {

common::Status FlatIndex::Add(uint64_t id, Vector vector) {
  if (ids_.empty()) {
    dim_ = vector.size();
  } else if (vector.size() != dim_) {
    return common::Status::InvalidArgument(
        "vector of length " + std::to_string(vector.size()) +
        " added to an index of length " + std::to_string(dim_));
  }
  size_t slot;
  auto it = id_to_slot_.find(id);
  if (it != id_to_slot_.end()) {
    slot = it->second;
  } else if (!free_slots_.empty()) {
    slot = free_slots_.back();
    free_slots_.pop_back();
    id_to_slot_[id] = slot;
  } else {
    slot = ids_.size();
    base_.resize((slot + 1) * dim_);
    if (options_.quantize) codes_.resize((slot + 1) * dim_);
    scales_.push_back(0.0f);
    norms_.push_back(0.0f);
    ids_.push_back(0);
    live_.push_back(0);
    id_to_slot_[id] = slot;
  }
  ids_[slot] = id;
  live_[slot] = 1;
  // Bit-matches the norm CosineSimilarity computes for this vector, so
  // arena scores equal the brute-force path.
  norms_[slot] = std::sqrt(kernels::Dot(vector.data(), vector.data(), dim_));
  float* row = base_.data() + slot * dim_;
  std::copy(vector.begin(), vector.end(), row);
  if (options_.quantize) {
    kernels::QuantizeSymmetric(row, dim_, codes_.data() + slot * dim_,
                               &scales_[slot]);
  }
  return common::Status::Ok();
}

common::Status FlatIndex::Remove(uint64_t id) {
  auto it = id_to_slot_.find(id);
  if (it == id_to_slot_.end()) {
    return common::Status::NotFound("no vector with id " + std::to_string(id));
  }
  live_[it->second] = 0;
  free_slots_.push_back(it->second);
  id_to_slot_.erase(it);
  return common::Status::Ok();
}

bool FlatIndex::Contains(uint64_t id) const {
  return id_to_slot_.count(id) > 0;
}

std::vector<SearchResult> FlatIndex::Search(const Vector& query,
                                            size_t k) const {
  if (id_to_slot_.empty() || k == 0 || query.size() != dim_) return {};
  const size_t slots = ids_.size();
  const float qnorm =
      std::sqrt(kernels::Dot(query.data(), query.data(), dim_));

  kernels::TopKSelector selected(k);
  if (!options_.quantize) {
    std::vector<float> dots(slots);
    kernels::DotBatch(query.data(), base_.data(), slots, dim_, dots.data());
    for (size_t s = 0; s < slots; ++s) {
      if (!live_[s]) continue;
      float score = (norms_[s] == 0.0f || qnorm == 0.0f)
                        ? 0.0f
                        : dots[s] / (qnorm * norms_[s]);
      selected.Offer(score, ids_[s]);
    }
  } else {
    // int8 sweep: exact integer dots against the quantized query, then exact
    // float32 rescoring of a bounded short list. The short list order is
    // deterministic (integer dots, id-ascending tie-break), so results are
    // reproducible across runs and dispatch levels.
    std::vector<int8_t> qcodes(dim_);
    float qscale = 0.0f;
    kernels::QuantizeSymmetric(query.data(), dim_, qcodes.data(), &qscale);
    std::vector<int32_t> idots(slots);
    kernels::DotBatchI8(qcodes.data(), codes_.data(), slots, dim_,
                        idots.data());
    kernels::TopKSelector shortlist(k * kRescoreFactor + 8);
    for (size_t s = 0; s < slots; ++s) {
      if (!live_[s]) continue;
      float approx = (norms_[s] == 0.0f || qnorm == 0.0f)
                         ? 0.0f
                         : static_cast<float>(idots[s]) *
                               (scales_[s] * qscale) / (qnorm * norms_[s]);
      shortlist.Offer(approx, ids_[s]);
    }
    for (const kernels::ScoredId& c : shortlist.TakeSorted()) {
      size_t s = id_to_slot_.at(c.id);
      float dot = kernels::Dot(query.data(), base_.data() + s * dim_, dim_);
      float score = (norms_[s] == 0.0f || qnorm == 0.0f)
                        ? 0.0f
                        : dot / (qnorm * norms_[s]);
      selected.Offer(score, c.id);
    }
  }

  std::vector<kernels::ScoredId> top = selected.TakeSorted();
  std::vector<SearchResult> out;
  out.reserve(top.size());
  for (const kernels::ScoredId& r : top) {
    out.push_back(SearchResult{r.id, r.score});
  }
  return out;
}

}  // namespace llmdm::vectordb
