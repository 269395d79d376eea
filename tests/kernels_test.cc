// Kernel-layer contract tests: bit-exact parity between the portable scalar
// path and whatever SIMD path dispatch selected on this machine, the int8
// quantization model, and the gate that FlatIndex's int8 sweep with
// bound-pruned float32 rescoring returns exactly what a float32 sweep
// returns. verify.sh runs these suites (Kernels*/ExactInt8Search*) as its
// kernel-parity stage.
#include <algorithm>
#include <cmath>
#include <cstring>
#include <iterator>
#include <limits>
#include <map>
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

TEST(Kernels, DotBatchI8MatchesPerRowCalls) {
  // Each row at each dispatch level must equal a wide in-test dot exactly.
  // Dims around the 32-code AVX2 step (empty rows, empty step loop, pure
  // tail, ragged tail), row counts around the four-row pass, unaligned
  // bases, and two pools: random codes, and codes at ±127 only, where every
  // pair sum is ±2·127² and a saturating or int16-accumulating kernel would
  // show.
  const size_t kMaxDim = 301, kMaxRows = 33, kMaxOffset = 3;
  const int32_t kSentinel = -12345;
  common::Rng rng(78);
  std::vector<int8_t> random_pool(kMaxOffset + kMaxRows * kMaxDim);
  std::vector<int8_t> extreme_pool(random_pool.size());
  for (size_t i = 0; i < random_pool.size(); ++i) {
    random_pool[i] = int8_t(int64_t(rng.NextBelow(255)) - 127);
    extreme_pool[i] = rng.NextBelow(2) == 0 ? 127 : -127;
  }
  std::vector<int8_t> random_query(kMaxDim), extreme_query(kMaxDim);
  for (size_t i = 0; i < kMaxDim; ++i) {
    random_query[i] = int8_t(int64_t(rng.NextBelow(255)) - 127);
    extreme_query[i] = rng.NextBelow(2) == 0 ? 127 : -127;
  }
  for (const auto* pools : {&random_pool, &extreme_pool}) {
    const std::vector<int8_t>& query =
        pools == &random_pool ? random_query : extreme_query;
    for (size_t dim : {0, 1, 7, 15, 16, 17, 31, 32, 33, 48, 63, 64, 65, 96,
                       100, 255, 256, 257, 301}) {
      for (size_t rows : {0, 1, 2, 3, 4, 5, 7, 8, 9, 33}) {
        for (size_t offset = 0; offset <= kMaxOffset; ++offset) {
          const int8_t* base = pools->data() + offset;
          auto run = [&] {
            std::vector<int32_t> batched(rows + 1, kSentinel);
            DotBatchI8(query.data(), base, rows, dim, batched.data());
            return batched;
          };
          auto [scalar, active] = ScalarVsActive(run);
          for (size_t r = 0; r < rows; ++r) {
            int64_t want = 0;  // wide ground truth
            for (size_t i = 0; i < dim; ++i) {
              want += int64_t(query[i]) * int64_t(base[r * dim + i]);
            }
            EXPECT_EQ(scalar[r], want)
                << "scalar dim=" << dim << " rows=" << rows
                << " offset=" << offset << " row=" << r;
            EXPECT_EQ(active[r], want)
                << "active dim=" << dim << " rows=" << rows
                << " offset=" << offset << " row=" << r;
          }
          EXPECT_EQ(scalar[rows], kSentinel);
          EXPECT_EQ(active[rows], kSentinel)
              << "wrote past the last row: dim=" << dim << " rows=" << rows;
        }
      }
    }
  }
}

TEST(Kernels, QuantizeMatchesLrintfReference) {
  // The reference: lrintf under the default rounding mode (round half to
  // even) and a clamp, as the quantizer read before it rounded by adding
  // and subtracting 1.5·2^23.
  auto reference = [](const std::vector<float>& v, std::vector<int8_t>* codes,
                      float* scale) {
    float max_abs = 0.0f;
    for (float x : v) max_abs = std::max(max_abs, std::fabs(x));
    codes->assign(v.size(), 0);
    *scale = max_abs / 127.0f;
    const float inv = 127.0f / max_abs;
    for (size_t i = 0; i < v.size(); ++i) {
      (*codes)[i] = int8_t(std::clamp(std::lrintf(v[i] * inv), -127L, 127L));
    }
  };
  auto check = [&](const std::vector<float>& v, const std::string& what) {
    std::vector<int8_t> want, got(v.size());
    float want_scale = 0.0f, got_scale = -1.0f;
    reference(v, &want, &want_scale);
    QuantizeSymmetric(v.data(), v.size(), got.data(), &got_scale);
    EXPECT_TRUE(SameBits(got_scale, want_scale)) << what;
    EXPECT_EQ(got, want) << what;
  };
  common::Rng rng(4242);
  for (size_t len : {1, 2, 7, 16, 33, 64, 256, 1000}) {
    for (int round = 0; round < 20; ++round) {
      std::vector<float> v = RandomVec(rng, len);
      const float stretch = float(std::exp(rng.Uniform(-30.0, 30.0)));
      for (float& x : v) x *= stretch;
      check(v, "random len=" + std::to_string(len));
    }
  }
  // max |v| = 127 makes the multiplier exactly 1, so x.5 values are exact
  // ties: each must round to the even neighbour, as lrintf does.
  std::vector<float> ties = {127.0f, 0.5f,   -0.5f, 1.5f,  -1.5f, 2.5f,
                             -2.5f,  125.5f, -126.5f, 126.5f, 3.49f, -0.0f};
  check(ties, "ties");
  std::vector<int8_t> codes(ties.size());
  float scale = 0.0f;
  QuantizeSymmetric(ties.data(), ties.size(), codes.data(), &scale);
  EXPECT_EQ(codes[1], 0);
  EXPECT_EQ(codes[3], 2);
  EXPECT_EQ(codes[5], 2);
  EXPECT_EQ(codes[6], -2);
  EXPECT_EQ(codes[7], 126);
  EXPECT_EQ(codes[8], -126);
  EXPECT_EQ(codes[9], 126);
}

TEST(Kernels, QuantizeUnrepresentableVectorGetsZeroCodes) {
  // 127 / max|v| overflows for a vector this small: the codes are defined
  // (all zero, scale 0) rather than a float-to-int conversion of infinity.
  for (float tiny : {1e-39f, -2e-38f, std::numeric_limits<float>::denorm_min()}) {
    std::vector<float> v = {tiny, tiny / 2, 0.0f, -tiny};
    std::vector<int8_t> codes(v.size(), 42);
    float scale = 1.0f;
    QuantizeSymmetric(v.data(), v.size(), codes.data(), &scale);
    EXPECT_EQ(scale, 0.0f) << tiny;
    for (int8_t c : codes) EXPECT_EQ(c, 0) << tiny;
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

// ---- Exact int8 search ----------------------------------------------------
//
// FlatIndex::Search must return what the float32 sweep it replaced returns:
// the same ids, in the same order, with the same score bits. The reference
// below is that sweep written out: a Dot per row, the index's score formula,
// and a full sort under the library's order (score desc, id asc).

std::vector<SearchResult> ReferenceSearch(
    const std::map<uint64_t, embed::Vector>& rows, const embed::Vector& q,
    size_t k) {
  const float qnorm = std::sqrt(Dot(q.data(), q.data(), q.size()));
  std::vector<SearchResult> all;
  for (const auto& [id, r] : rows) {
    const float norm = std::sqrt(Dot(r.data(), r.data(), r.size()));
    const float score = (norm == 0.0f || qnorm == 0.0f)
                            ? 0.0f
                            : Dot(q.data(), r.data(), r.size()) / (qnorm * norm);
    all.push_back(SearchResult{id, score});
  }
  std::sort(all.begin(), all.end(),
            [](const SearchResult& a, const SearchResult& b) {
              if (a.score != b.score) return a.score > b.score;
              return a.id < b.id;
            });
  all.resize(std::min(k, all.size()));
  return all;
}

/// Searches `index` and the reference for every query at k = 1, 4, 10 and
/// Size(); returns how many searches differed in any id, order or score bit.
size_t CountMismatches(const FlatIndex& index,
                       const std::map<uint64_t, embed::Vector>& rows,
                       const std::vector<embed::Vector>& queries,
                       const std::string& what, size_t* searches) {
  size_t mismatches = 0;
  for (size_t qi = 0; qi < queries.size(); ++qi) {
    for (size_t k : {size_t{1}, size_t{4}, size_t{10}, index.Size()}) {
      ++*searches;
      const std::vector<SearchResult> got = index.Search(queries[qi], k);
      const std::vector<SearchResult> want =
          ReferenceSearch(rows, queries[qi], k);
      bool same = got.size() == want.size();
      for (size_t i = 0; same && i < got.size(); ++i) {
        same = got[i].id == want[i].id &&
               SameBits(got[i].score, want[i].score);
      }
      if (!same) {
        ++mismatches;
        ADD_FAILURE() << what << ": query " << qi << " k=" << k << " got "
                      << (got.empty() ? -1.0f : got[0].score) << " for id "
                      << (got.empty() ? 0 : got[0].id) << ", want "
                      << (want.empty() ? -1.0f : want[0].score) << " for id "
                      << (want.empty() ? 0 : want[0].id);
      }
    }
  }
  return mismatches;
}

/// The gate for one family: `rows` (more than one block of them, so a
/// search crosses a block boundary) in an index keyed by scattered ids,
/// searched with `queries` at both dispatch levels — as built, after every
/// third row is removed, and after the removed rows come back under new
/// ids into the freed slots.
void ExpectExactSearch(const std::vector<embed::Vector>& rows,
                       const std::vector<embed::Vector>& queries,
                       const std::string& family) {
  ASSERT_GT(rows.size(), FlatIndex::kBlockRows) << family;
  FlatIndex index;
  std::map<uint64_t, embed::Vector> live;
  auto id_of = [](size_t i) { return uint64_t(i) * 7 + 3; };
  for (size_t i = 0; i < rows.size(); ++i) {
    ASSERT_TRUE(index.Add(id_of(i), rows[i]).ok());
    live[id_of(i)] = rows[i];
  }
  size_t searches = 0, mismatches = 0;
  auto check_both_levels = [&](const std::string& phase) {
    for (bool scalar : {true, false}) {
      if (scalar) PinDispatchForTesting(DispatchLevel::kScalar);
      mismatches += CountMismatches(
          index, live, queries,
          family + " " + phase + (scalar ? " scalar" : " active"), &searches);
      UnpinDispatchForTesting();
    }
  };
  check_both_levels("built");
  for (size_t i = 0; i < rows.size(); i += 3) {
    ASSERT_TRUE(index.Remove(id_of(i)).ok());
    live.erase(id_of(i));
  }
  check_both_levels("after removes");
  for (size_t i = 0; i < rows.size(); i += 3) {
    const uint64_t id = id_of(rows.size() + i);
    ASSERT_TRUE(index.Add(id, rows[i]).ok());
    live[id] = rows[i];
  }
  check_both_levels("after slot reuse");
  EXPECT_EQ(mismatches, 0u) << family << ": " << mismatches << " of "
                            << searches << " searches differ";
}

/// The Table III family: NL2SQL questions that differ by a token or two and
/// embed within 0.93-0.975 of each other, the hardest case for a bound. The
/// Table III cache bench's generator, with more years and conditions so the
/// family fills more than one block.
std::vector<embed::Vector> TableIIIEmbeddings() {
  common::Rng rng(20240706);
  data::Nl2SqlWorkloadOptions wopts;
  wopts.num_queries = 1200;
  wopts.condition_pool = 16;
  wopts.compound_rate = 0.8;
  wopts.years = {2012, 2013, 2014, 2015, 2016, 2017};
  auto workload = data::GenerateNl2SqlWorkload(wopts, rng);
  std::set<std::string> seen;
  embed::HashingEmbedder embedder;
  std::vector<embed::Vector> out;
  for (const auto& q : workload) {
    std::string text = q.ToNaturalLanguage();
    if (seen.insert(text).second) out.push_back(embedder.Embed(text));
  }
  return out;
}

std::string RandomSentence(common::Rng& rng) {
  static const char* const kWords[] = {
      "show",     "the",      "names",    "of",        "stadiums", "that",
      "had",      "concerts", "in",       "year",      "list",     "all",
      "patients", "with",     "insulin",  "dosage",    "above",    "average",
      "which",    "singers",  "from",     "france",    "released", "albums",
      "count",    "orders",   "shipped",  "before",    "march",    "total",
      "revenue",  "per",      "region",   "find",      "students", "enrolled",
      "courses",  "taught",   "by",       "professor", "capacity", "greater"};
  const size_t words = 4 + rng.NextBelow(11);
  std::string s;
  for (size_t i = 0; i < words; ++i) {
    if (i > 0) s += ' ';
    s += kWords[rng.NextBelow(std::size(kWords))];
  }
  return s;
}

TEST(ExactInt8Search, TableIIIFamily) {
  std::vector<embed::Vector> rows = TableIIIEmbeddings();
  // Every row is a query: its own best match at 1.0, its near-paraphrases
  // right behind.
  ExpectExactSearch(rows, rows, "table3");
}

TEST(ExactInt8Search, RandomSentences) {
  common::Rng rng(515);
  embed::HashingEmbedder embedder;
  std::vector<embed::Vector> rows, queries;
  for (size_t i = 0; i < 600; ++i) {
    rows.push_back(embedder.Embed(RandomSentence(rng)));
  }
  for (size_t i = 0; i < 60; ++i) {
    queries.push_back(embedder.Embed(RandomSentence(rng)));
    queries.push_back(rows[i * 7]);  // an exact repeat
  }
  ExpectExactSearch(rows, queries, "sentences");
}

TEST(ExactInt8Search, GaussianRows) {
  common::Rng rng(2718);
  for (size_t dim : {3, 16, 100, 257}) {
    std::vector<embed::Vector> rows, queries;
    for (size_t i = 0; i < 300; ++i) rows.push_back(RandomVec(rng, dim));
    rows[17] = rows[5];  // a duplicate: equal scores, ordered by id
    for (size_t i = 0; i < 40; ++i) queries.push_back(RandomVec(rng, dim));
    queries.push_back(rows[5]);
    ExpectExactSearch(rows, queries, "gaussian dim=" + std::to_string(dim));
  }
}

TEST(ExactInt8Search, ZeroAndTinyRowsAndQueries) {
  // Rows the bound cannot cover or that score 0 by definition: the zero
  // vector, one whose squared norm underflows to 0 in float32 (norm 0),
  // one whose squared norm is subnormal (below 2^-100, always rescored),
  // and one too small to quantize (all-zero codes). The same four also
  // serve as queries.
  common::Rng rng(99);
  const size_t dim = 64;
  std::vector<embed::Vector> rows;
  for (size_t i = 0; i < 300; ++i) rows.push_back(RandomVec(rng, dim));
  std::vector<embed::Vector> odd = {embed::Vector(dim, 0.0f),
                                    embed::Vector(dim, 1e-30f),
                                    embed::Vector(dim, 1e-21f),
                                    embed::Vector(dim, 1e-39f)};
  odd[2][5] = -3e-21f;
  for (size_t i = 0; i < odd.size(); ++i) rows[40 * i + 1] = odd[i];
  std::vector<embed::Vector> queries = odd;
  for (size_t i = 0; i < 10; ++i) queries.push_back(RandomVec(rng, dim));
  ExpectExactSearch(rows, queries, "zero and tiny");
}

}  // namespace
}  // namespace llmdm::vectordb::kernels
