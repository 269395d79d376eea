#include "vectordb/flat_index.h"

#include <algorithm>
#include <cmath>
#include <functional>
#include <limits>
#include <string>
#include <utility>

namespace llmdm::vectordb {

namespace {

// ---------------------------------------------------------------------------
// The rescore bound: why a search over int8 codes returns exact results.
//
// For a query q and a row r, let q^ = scale_q·qcodes and r^ = scale_r·codes
// be their int8 reconstructions, so q^·r^ = idot·scale_q·scale_r exactly
// (idot is the integer dot of the codes). Since
//   q·r − q^·r^ = (q − q^)·r + q^·(r − r^),
// Cauchy–Schwarz and division by ‖q‖‖r‖ give
//   |cos − idot·f·g| <= a + c·ρ,
// with per-row f = scale_r/‖r‖ and ρ = ‖r − r^‖/‖r‖, and per-query
// g = scale_q/‖q‖, a = ‖q − q^‖/‖q‖ and c = ‖q^‖/‖q‖. ρ, a and c are
// computed in double and rounded up to float.
//
// The two scores compared are float32 values, not exact ones (u = 2^-24,
// d = dim):
//  - the score a float32 sweep returns, Dot(q, r) / (qnorm·norm), is within
//    (2d+4)·u of cos: a d-term dot errs by at most d·u·Σ|q_i·r_i| <=
//    d·u·‖q‖‖r‖, and each float norm by (d/2+1)·u relative;
//  - the computed idot·f·g is within (d+7)·u of its exact value, relative
//    to that value's size, which is at most ‖q^‖‖r^‖/(‖q‖‖r‖) <= c·(1+ρ).
// With e = 8·(d+16)·u the bound used is
//   a + c·ρ + e·(1 + c·(1+ρ)/2) = A + C·ρ,  A = a + e·(1 + c/2),
//                                           C = c·(1 + e/2),
// which covers both errors with room left for the rounding of the bound's
// own float arithmetic (a few u on values of size about c·(1+ρ)).
//
// The error terms above assume no product that matters underflows. A
// vector whose squared norm is below kMinNormSq (2^-100) gets an infinite
// bound instead: such a row is rescored by every search, and such a query
// rescores every row. Above it, n underflowed products, each off by at
// most 2^-150, stay below 2^-33·‖q‖‖r‖ for n <= kMaxDim, inside the room.
//
// A search keeps the k largest lower bounds idot·f·g − (A + C·ρ) over the
// live rows. A row whose upper bound idot·f·g + (A + C·ρ) is below the
// k-th of them has k rows strictly above it, so it cannot be returned; every
// other row is rescored in float32 and offered to the top-k selection. The
// rescored rows include the k best, so ids, order and score bits equal a
// float32 sweep's.
// ---------------------------------------------------------------------------

constexpr double kMinNormSq = 0x1p-100;
constexpr float kInf = std::numeric_limits<float>::infinity();

/// The smallest float above `x` — an upper bound on a value computed as
/// `x` in double.
float RoundUp(double x) {
  return std::nextafter(static_cast<float>(x), kInf);
}

/// Squared norms of v, of v − v^ and of v^ (v^ = scale·codes), in double.
struct Residual {
  double norm_sq = 0.0;
  double err_sq = 0.0;
  double recon_sq = 0.0;
};

Residual MeasureResidual(const float* v, const int8_t* codes, float scale,
                         size_t n) {
  // Four partial sums per quantity keep the additions independent; the
  // order only moves the double result by a few ulps, which RoundUp covers.
  double norm_sq[4] = {0.0}, err_sq[4] = {0.0}, recon_sq[4] = {0.0};
  for (size_t i = 0; i < n; ++i) {
    const double x = v[i];
    const double recon = static_cast<double>(scale) * codes[i];
    norm_sq[i % 4] += x * x;
    err_sq[i % 4] += (x - recon) * (x - recon);
    recon_sq[i % 4] += recon * recon;
  }
  Residual out;
  for (size_t j = 0; j < 4; ++j) {
    out.norm_sq += norm_sq[j];
    out.err_sq += err_sq[j];
    out.recon_sq += recon_sq[j];
  }
  return out;
}

}  // namespace

bool IsFiniteVector(const Vector& v) {
  return std::isfinite(kernels::Dot(v.data(), v.data(), v.size()));
}

common::Status FlatIndex::Add(uint64_t id, Vector vector) {
  if (slots_ > 0 && vector.size() != dim_) {
    return common::Status::InvalidArgument(
        "vector of length " + std::to_string(vector.size()) +
        " added to an index of length " + std::to_string(dim_));
  }
  if (vector.size() > kMaxDim) {
    return common::Status::InvalidArgument(
        "vector of length " + std::to_string(vector.size()) +
        " is longer than " + std::to_string(kMaxDim));
  }
  // Bit-matches the norm CosineSimilarity computes for this vector, so
  // exact scores equal the brute-force path. Its square is finite exactly
  // when IsFiniteVector(vector) holds.
  const float norm =
      std::sqrt(kernels::Dot(vector.data(), vector.data(), vector.size()));
  if (!std::isfinite(norm)) {
    return common::Status::InvalidArgument(
        "vector with a non-finite element or norm");
  }
  if (slots_ == 0) dim_ = vector.size();
  size_t slot;
  auto it = id_to_slot_.find(id);
  if (it != id_to_slot_.end()) {
    slot = it->second;
  } else {
    if (!free_slots_.empty()) {
      slot = free_slots_.back();
      free_slots_.pop_back();
    } else {
      slot = slots_++;
      if (slot == blocks_.size() * kBlockRows) {
        auto block = std::make_unique<Block>();
        // Left uninitialized: a slot's row and codes are written before
        // any search reads them, and untouched pages stay unbacked.
        block->rows.reset(new float[kBlockRows * dim_]);
        block->codes.reset(new int8_t[kBlockRows * dim_]);
        blocks_.push_back(std::move(block));
      }
    }
    id_to_slot_[id] = slot;
  }
  Block& block = *blocks_[slot / kBlockRows];
  const size_t r = slot % kBlockRows;
  block.id[r] = id;
  block.live[r] = true;
  block.norm[r] = norm;
  float* row = block.rows.get() + r * dim_;
  std::copy(vector.begin(), vector.end(), row);
  int8_t* codes = block.codes.get() + r * dim_;
  float scale = 0.0f;
  kernels::QuantizeSymmetric(row, dim_, codes, &scale);
  const Residual residual = MeasureResidual(row, codes, scale, dim_);
  if (norm == 0.0f) {
    // Scores 0 against every query; so does idot·0·g.
    block.f[r] = 0.0f;
    block.rho[r] = 0.0f;
  } else if (residual.norm_sq < kMinNormSq) {
    block.f[r] = 0.0f;
    block.rho[r] = kInf;  // always rescored
  } else {
    block.f[r] = scale / norm;
    block.rho[r] = RoundUp(std::sqrt(residual.err_sq / residual.norm_sq));
  }
  return common::Status::Ok();
}

common::Status FlatIndex::Remove(uint64_t id) {
  auto it = id_to_slot_.find(id);
  if (it == id_to_slot_.end()) {
    return common::Status::NotFound("no vector with id " + std::to_string(id));
  }
  blocks_[it->second / kBlockRows]->live[it->second % kBlockRows] = false;
  free_slots_.push_back(it->second);
  id_to_slot_.erase(it);
  return common::Status::Ok();
}

bool FlatIndex::Contains(uint64_t id) const {
  return id_to_slot_.count(id) > 0;
}

float FlatIndex::ExactScore(const Vector& query, float qnorm,
                            size_t slot) const {
  const Block& block = *blocks_[slot / kBlockRows];
  const size_t r = slot % kBlockRows;
  const float norm = block.norm[r];
  if (norm == 0.0f || qnorm == 0.0f) return 0.0f;
  return kernels::Dot(query.data(), block.rows.get() + r * dim_, dim_) /
         (qnorm * norm);
}

std::vector<SearchResult> FlatIndex::Search(const Vector& query,
                                            size_t k) const {
  if (id_to_slot_.empty() || k == 0 || query.size() != dim_) return {};
  const float qnorm =
      std::sqrt(kernels::Dot(query.data(), query.data(), dim_));
  if (!std::isfinite(qnorm)) return {};
  k = std::min(k, id_to_slot_.size());

  // The query's codes and its terms of the bound (see the top of the file).
  std::vector<int8_t> qcodes(dim_);
  float qscale = 0.0f;
  kernels::QuantizeSymmetric(query.data(), dim_, qcodes.data(), &qscale);
  const Residual residual =
      MeasureResidual(query.data(), qcodes.data(), qscale, dim_);
  float g = 0.0f;
  float bound_a = kInf;  // a query too small to bound rescores every row
  float bound_c = 1.0f;
  if (residual.norm_sq >= kMinNormSq) {
    const double a = std::sqrt(residual.err_sq / residual.norm_sq);
    const double c = std::sqrt(residual.recon_sq / residual.norm_sq);
    const double e = 8.0 * static_cast<double>(dim_ + 16) * 0x1p-24;
    g = qscale / qnorm;
    bound_a = RoundUp(a + e * (1.0 + c / 2.0));
    bound_c = RoundUp(c * (1.0 + e / 2.0));
  }

  // The int8 sweep. `lowers` is a min-heap of the k largest lower bounds
  // seen so far; a row joins `candidates` unless its upper bound is already
  // below the k-th of them.
  std::vector<float> lowers;
  lowers.reserve(k);
  std::vector<std::pair<float, size_t>> candidates;  // (upper bound, slot)
  int32_t idots[kBlockRows];
  for (size_t b = 0; b < blocks_.size(); ++b) {
    const Block& block = *blocks_[b];
    const size_t rows = std::min(kBlockRows, slots_ - b * kBlockRows);
    kernels::DotBatchI8(qcodes.data(), block.codes.get(), rows, dim_, idots);
    for (size_t r = 0; r < rows; ++r) {
      if (!block.live[r]) continue;
      const float approx = static_cast<float>(idots[r]) * block.f[r] * g;
      const float bound = bound_a + bound_c * block.rho[r];
      const float lower = approx - bound;
      const float upper = approx + bound;
      if (lowers.size() < k) {
        lowers.push_back(lower);
        std::push_heap(lowers.begin(), lowers.end(), std::greater<float>());
      } else if (lower > lowers.front()) {
        std::pop_heap(lowers.begin(), lowers.end(), std::greater<float>());
        lowers.back() = lower;
        std::push_heap(lowers.begin(), lowers.end(), std::greater<float>());
      }
      if (lowers.size() < k || upper >= lowers.front()) {
        candidates.emplace_back(upper, b * kBlockRows + r);
      }
    }
  }

  // Every live row was offered and k <= live rows, so the heap holds k.
  const float kth_lower = lowers.front();
  kernels::TopKSelector selected(k);
  for (const auto& [upper, slot] : candidates) {
    if (upper < kth_lower) continue;
    selected.Offer(ExactScore(query, qnorm, slot),
                   blocks_[slot / kBlockRows]->id[slot % kBlockRows]);
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
