// Kernel-layer contract tests: bit-exact parity between the portable scalar
// path and whatever SIMD path dispatch selected on this machine, the int8
// quantization error model, and the recall gate for quantized search on the
// Table III workload. verify.sh runs these suites (Kernels*/QuantizedRecall*)
// as its kernel-parity stage.
#include <cmath>
#include <cstring>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "data/nl2sql_workload.h"
#include "embed/embedder.h"
#include "vectordb/flat_index.h"
#include "vectordb/kernels.h"

namespace llmdm::vectordb::kernels {
namespace {

// Bitwise float equality: the parity contract is "same bits", not "close".
bool SameBits(float a, float b) {
  return std::memcmp(&a, &b, sizeof(float)) == 0;
}

std::vector<float> RandomVec(common::Rng& rng, size_t n) {
  std::vector<float> v(n);
  for (float& x : v) x = float(rng.Normal());
  return v;
}

/// Runs `fn` once pinned to scalar and once pinned to the machine's active
/// level, returning both results. When dispatch already resolves to scalar
/// (no SIMD on this machine, or -DLLMDM_FORCE_SCALAR) the two runs are the
/// same path and the comparison is trivially true — still worth running, it
/// covers the pin/unpin plumbing.
template <typename Fn>
auto ScalarVsActive(const Fn& fn) {
  PinDispatchForTesting(DispatchLevel::kScalar);
  auto scalar = fn();
  UnpinDispatchForTesting();
  auto active = fn();
  return std::make_pair(scalar, active);
}

TEST(Kernels, DotParityAcrossLengthsAndOffsets) {
  common::Rng rng(1234);
  // A shared pool longer than any tested length, so unaligned views slice
  // into the middle of a heap buffer (alignof(float), not 32).
  std::vector<float> pool_a = RandomVec(rng, 512 + 8);
  std::vector<float> pool_b = RandomVec(rng, 512 + 8);
  for (size_t len : {0, 1, 2, 3, 7, 8, 15, 16, 17, 31, 32, 33, 63, 64, 65,
                     127, 128, 129, 255, 256, 257}) {
    for (size_t offset = 0; offset < 8; ++offset) {
      const float* a = pool_a.data() + offset;
      const float* b = pool_b.data() + offset;
      auto [scalar, active] =
          ScalarVsActive([&] { return Dot(a, b, len); });
      EXPECT_TRUE(SameBits(scalar, active))
          << "Dot len=" << len << " offset=" << offset << " scalar=" << scalar
          << " active=" << active;
    }
  }
}

TEST(Kernels, DotParityOnZeroAndDenormalVectors) {
  for (size_t len : {5, 16, 37, 128}) {
    std::vector<float> zero(len, 0.0f);
    std::vector<float> denorm(len, 1e-40f);  // subnormal: flushes differently
                                             // only if a path cheats
    std::vector<float> mixed(len);
    for (size_t i = 0; i < len; ++i) {
      mixed[i] = (i % 3 == 0) ? 0.0f : (i % 3 == 1 ? 1e-40f : -2.5f);
    }
    for (const auto* v : {&zero, &denorm, &mixed}) {
      auto [s, a] = ScalarVsActive(
          [&] { return Dot(v->data(), mixed.data(), len); });
      EXPECT_TRUE(SameBits(s, a)) << "len=" << len;
    }
  }
}

TEST(Kernels, DotBatchMatchesPerRowCalls) {
  // Dims around the 16-float block (empty block loop, pure tail, ragged
  // tail), row counts around the AVX2 four-row pass (no full pass, leftover
  // rows 1..3), and unaligned bases.
  const size_t kMaxDim = 257, kMaxRows = 33, kMaxOffset = 3;
  const float kSentinel = -12345.0f;
  common::Rng rng(77);
  std::vector<float> pool = RandomVec(rng, kMaxOffset + kMaxRows * kMaxDim);
  std::vector<float> query = RandomVec(rng, kMaxDim);
  for (size_t dim : {1, 7, 15, 16, 17, 33, 96, 100, 255, 256, 257}) {
    for (size_t rows : {0, 1, 2, 3, 4, 5, 7, 8, 9, 33}) {
      for (size_t offset = 0; offset <= kMaxOffset; ++offset) {
        const float* base = pool.data() + offset;
        // Batched scores (plus one sentinel slot past the last row, which
        // DotBatch must leave alone) and per-row Dot calls, on one level.
        auto run = [&] {
          std::vector<float> batched(rows + 1, kSentinel);
          DotBatch(query.data(), base, rows, dim, batched.data());
          std::vector<float> per_row(rows);
          for (size_t r = 0; r < rows; ++r) {
            per_row[r] = Dot(query.data(), base + r * dim, dim);
          }
          return std::make_pair(batched, per_row);
        };
        auto [scalar, active] = ScalarVsActive(run);
        for (const auto* level : {&scalar, &active}) {
          for (size_t r = 0; r < rows; ++r) {
            EXPECT_TRUE(SameBits(level->first[r], level->second[r]))
                << (level == &scalar ? "scalar" : "active") << " dim=" << dim
                << " rows=" << rows << " offset=" << offset << " row=" << r;
          }
          EXPECT_TRUE(SameBits(level->first[rows], kSentinel))
              << "wrote past the last row: dim=" << dim << " rows=" << rows;
        }
        for (size_t r = 0; r < rows; ++r) {
          EXPECT_TRUE(SameBits(scalar.first[r], active.first[r]))
              << "dim=" << dim << " rows=" << rows << " offset=" << offset
              << " row=" << r;
        }
      }
    }
  }
}

TEST(Kernels, Int8DotIsExactAcrossDispatch) {
  common::Rng rng(9);
  for (size_t len : {0, 1, 15, 16, 17, 48, 100, 256, 301}) {
    std::vector<int8_t> a(len), b(len);
    for (size_t i = 0; i < len; ++i) {
      a[i] = int8_t(int64_t(rng.NextBelow(255)) - 127);
      b[i] = int8_t(int64_t(rng.NextBelow(255)) - 127);
    }
    // Integer ground truth: the kernel must be exact, not approximately
    // equal — quantized scores are then identical on every ISA.
    int32_t want = 0;
    for (size_t i = 0; i < len; ++i) {
      want += int32_t(a[i]) * int32_t(b[i]);
    }
    auto [s, act] =
        ScalarVsActive([&] { return DotI8(a.data(), b.data(), len); });
    EXPECT_EQ(s, want) << "len=" << len;
    EXPECT_EQ(act, want) << "len=" << len;
  }
}

TEST(Kernels, QuantizeReconstructionErrorWithinHalfScale) {
  common::Rng rng(5150);
  for (size_t len : {1, 7, 64, 256}) {
    std::vector<float> v = RandomVec(rng, len);
    std::vector<int8_t> codes(len);
    float scale = 0.0f;
    QuantizeSymmetric(v.data(), len, codes.data(), &scale);
    ASSERT_GT(scale, 0.0f);
    for (size_t i = 0; i < len; ++i) {
      EXPECT_GE(codes[i], -127);
      EXPECT_LE(codes[i], 127);
      // Round-to-nearest of v/scale: reconstruction error <= scale/2 (plus
      // one float ulp of slack for the scale multiply itself).
      EXPECT_LE(std::fabs(v[i] - float(codes[i]) * scale),
                scale * 0.5f + scale * 1e-5f)
          << "len=" << len << " i=" << i;
    }
  }
}

TEST(Kernels, QuantizeZeroVectorYieldsZeroScaleAndCodes) {
  std::vector<float> zero(19, 0.0f);
  std::vector<int8_t> codes(19, 42);
  float scale = 1.0f;
  QuantizeSymmetric(zero.data(), zero.size(), codes.data(), &scale);
  EXPECT_EQ(scale, 0.0f);
  for (int8_t c : codes) EXPECT_EQ(c, 0);
}

TEST(Kernels, TopKSelectorMatchesPartialSortIncludingTies) {
  common::Rng rng(31337);
  std::vector<ScoredId> items;
  for (uint64_t id = 0; id < 500; ++id) {
    // Coarse buckets force score ties so the id-ascending tie-break is
    // actually exercised.
    float score = float(rng.NextBelow(20)) / 10.0f;
    items.push_back(ScoredId{score, id});
  }
  for (size_t k : {1, 3, 10, 499, 500, 600}) {
    TopKSelector sel(k);
    for (const ScoredId& it : items) sel.Offer(it.score, it.id);
    std::vector<ScoredId> got = sel.TakeSorted();

    std::vector<ScoredId> want = items;
    std::sort(want.begin(), want.end(), [](const ScoredId& a, const ScoredId& b) {
      if (a.score != b.score) return a.score > b.score;
      return a.id < b.id;
    });
    want.resize(std::min(k, want.size()));
    ASSERT_EQ(got.size(), want.size()) << "k=" << k;
    for (size_t i = 0; i < got.size(); ++i) {
      EXPECT_EQ(got[i].id, want[i].id) << "k=" << k << " i=" << i;
      EXPECT_TRUE(SameBits(got[i].score, want[i].score));
    }
  }
}

TEST(Kernels, PinIgnoresUnsupportedLevels) {
#if defined(__x86_64__)
  PinDispatchForTesting(DispatchLevel::kNeon);  // not this ISA: must be a no-op
  EXPECT_NE(ActiveDispatch(), DispatchLevel::kNeon);
#endif
  UnpinDispatchForTesting();
  EXPECT_TRUE(SupportsDispatch(DispatchLevel::kScalar));
  EXPECT_STREQ(DispatchName(DispatchLevel::kScalar), "scalar");
}

// ---- Quantized recall on the Table III workload -----------------------------

std::vector<embed::Vector> TableIIIEmbeddings() {
  common::Rng rng(20240706);
  data::Nl2SqlWorkloadOptions wopts;
  wopts.num_queries = 200;  // same distribution as the Table III cache bench,
                            // more queries for a meaningful recall denominator
  wopts.condition_pool = 6;
  wopts.compound_rate = 0.8;
  auto workload = data::GenerateNl2SqlWorkload(wopts, rng);
  std::set<std::string> seen;
  embed::HashingEmbedder embedder;
  std::vector<embed::Vector> out;
  for (const auto& q : workload) {
    std::string text = q.ToNaturalLanguage();
    if (!seen.insert(text).second) continue;  // duplicate text = identical
                                              // vector; ground truth would be
                                              // ambiguous under ties
    out.push_back(embedder.Embed(text));
  }
  return out;
}

double RecallAt10(const std::vector<embed::Vector>& data,
                  const FlatIndex& exact, const FlatIndex& approx) {
  size_t hits = 0, total = 0;
  for (const embed::Vector& q : data) {
    auto truth = exact.Search(q, 10);
    std::set<uint64_t> truth_ids;
    for (const auto& r : truth) truth_ids.insert(r.id);
    for (const auto& r : approx.Search(q, 10)) hits += truth_ids.count(r.id);
    total += truth.size();
  }
  return total > 0 ? double(hits) / double(total) : 0.0;
}

void FillIndex(const std::vector<embed::Vector>& data, FlatIndex* index) {
  for (size_t i = 0; i < data.size(); ++i) {
    ASSERT_TRUE(index->Add(i, data[i]).ok());
  }
}

TEST(QuantizedRecall, FlatInt8RescoreOnTableIIIWorkload) {
  auto data = TableIIIEmbeddings();
  FlatIndex exact;
  FillIndex(data, &exact);
  FlatIndex::Options qopts;
  qopts.quantize = true;
  FlatIndex quantized(qopts);
  FillIndex(data, &quantized);
  EXPECT_GE(RecallAt10(data, exact, quantized), 0.99);
}

}  // namespace
}  // namespace llmdm::vectordb::kernels
