#include <limits>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "vectordb/flat_index.h"
#include "vectordb/kernels.h"
#include "vectordb/vector_store.h"

namespace llmdm::vectordb {
namespace {

Vector RandomUnitVector(common::Rng& rng, size_t dim) {
  Vector v(dim);
  for (float& x : v) x = static_cast<float>(rng.Normal());
  embed::L2Normalize(&v);
  return v;
}

// Creates `n` random vectors keyed 0..n-1.
std::vector<Vector> MakeDataset(size_t n, size_t dim, uint64_t seed) {
  common::Rng rng(seed);
  std::vector<Vector> out;
  for (size_t i = 0; i < n; ++i) out.push_back(RandomUnitVector(rng, dim));
  return out;
}

// ---- conformance suite ------------------------------------------------------

// One index type is left, with one search path: the int8 sweep with exact
// float32 rescoring. The suite runs it at the machine's active kernel level
// ("Flat") and pinned to the scalar int8 kernels ("FlatInt8", a name kept
// from when it selected the int8 sweep, so test names stay stable).
enum class IndexKind { kFlat, kFlatInt8 };

class IndexConformanceTest : public ::testing::TestWithParam<IndexKind> {
 protected:
  void SetUp() override {
    if (GetParam() == IndexKind::kFlatInt8) {
      kernels::PinDispatchForTesting(kernels::DispatchLevel::kScalar);
    }
  }
  void TearDown() override { kernels::UnpinDispatchForTesting(); }
};

TEST_P(IndexConformanceTest, AddSearchRemove) {
  FlatIndex index;
  auto data = MakeDataset(50, 32, 1);
  for (size_t i = 0; i < data.size(); ++i) {
    ASSERT_TRUE(index.Add(i, data[i]).ok());
  }
  EXPECT_EQ(index.Size(), 50u);
  EXPECT_TRUE(index.Contains(7));
  EXPECT_FALSE(index.Contains(999));

  // The exact vector must be its own nearest neighbour.
  auto results = index.Search(data[7], 1);
  ASSERT_EQ(results.size(), 1u);
  EXPECT_EQ(results[0].id, 7u);
  EXPECT_NEAR(results[0].score, 1.0f, 1e-4f);

  ASSERT_TRUE(index.Remove(7).ok());
  EXPECT_FALSE(index.Contains(7));
  EXPECT_EQ(index.Size(), 49u);
  results = index.Search(data[7], 1);
  ASSERT_EQ(results.size(), 1u);
  EXPECT_NE(results[0].id, 7u);

  EXPECT_FALSE(index.Remove(7).ok());  // already gone
}

TEST_P(IndexConformanceTest, EmptyIndexReturnsNothing) {
  FlatIndex index;
  EXPECT_TRUE(index.Search(Vector{1.0f, 0.0f}, 5).empty());
}

TEST_P(IndexConformanceTest, KLargerThanSize) {
  FlatIndex index;
  auto data = MakeDataset(5, 16, 2);
  for (size_t i = 0; i < data.size(); ++i) {
    ASSERT_TRUE(index.Add(i, data[i]).ok());
  }
  auto results = index.Search(data[0], 50);
  EXPECT_EQ(results.size(), 5u);
}

TEST_P(IndexConformanceTest, ResultsSortedByScore) {
  FlatIndex index;
  auto data = MakeDataset(100, 32, 3);
  for (size_t i = 0; i < data.size(); ++i) {
    ASSERT_TRUE(index.Add(i, data[i]).ok());
  }
  auto results = index.Search(data[0], 10);
  for (size_t i = 1; i < results.size(); ++i) {
    EXPECT_GE(results[i - 1].score, results[i].score);
  }
}

TEST_P(IndexConformanceTest, ReplaceExistingId) {
  FlatIndex index;
  Vector a{1.0f, 0.0f};
  Vector b{0.0f, 1.0f};
  ASSERT_TRUE(index.Add(1, a).ok());
  ASSERT_TRUE(index.Add(1, b).ok());  // replace
  EXPECT_EQ(index.Size(), 1u);
  auto res = index.Search(b, 1);
  ASSERT_EQ(res.size(), 1u);
  EXPECT_NEAR(res[0].score, 1.0f, 1e-5f);
}

TEST_P(IndexConformanceTest, RowsAndQueriesOfAnotherLengthAreRefused) {
  FlatIndex index;
  ASSERT_TRUE(index.Add(1, Vector{1.0f, 0.0f, 0.0f}).ok());
  // The first row fixed the length at 3. A shorter or longer row is
  // refused, as a new id or as a replacement, and the index is unchanged.
  EXPECT_EQ(index.Add(2, Vector{0.0f, 1.0f}).code(),
            common::StatusCode::kInvalidArgument);
  EXPECT_EQ(index.Add(3, Vector{0.0f, 1.0f, 0.0f, 0.0f}).code(),
            common::StatusCode::kInvalidArgument);
  EXPECT_EQ(index.Add(1, Vector{0.0f, 1.0f}).code(),
            common::StatusCode::kInvalidArgument);
  EXPECT_EQ(index.Size(), 1u);
  EXPECT_FALSE(index.Contains(2));
  // A query of another length has no neighbours.
  EXPECT_TRUE(index.Search(Vector{1.0f, 0.0f}, 5).empty());
  EXPECT_TRUE(index.Search(Vector{1.0f, 0.0f, 0.0f, 0.0f}, 5).empty());
  auto results = index.Search(Vector{1.0f, 0.0f, 0.0f}, 5);
  ASSERT_EQ(results.size(), 1u);
  EXPECT_EQ(results[0].id, 1u);
  EXPECT_NEAR(results[0].score, 1.0f, 1e-5f);
}

INSTANTIATE_TEST_SUITE_P(AllIndexes, IndexConformanceTest,
                         ::testing::Values(IndexKind::kFlat,
                                           IndexKind::kFlatInt8),
                         [](const auto& info) {
                           return info.param == IndexKind::kFlat ? "Flat"
                                                                 : "FlatInt8";
                         });

// ---- non-finite input -------------------------------------------------------

const float kNan = std::numeric_limits<float>::quiet_NaN();
const float kInf = std::numeric_limits<float>::infinity();

// Vectors whose score against a row would be NaN: a NaN or infinite
// element, or finite elements whose squared norm overflows.
std::vector<Vector> NonFiniteVectors(size_t dim) {
  std::vector<Vector> out(3, Vector(dim, 0.1f));
  out[0][dim / 2] = kNan;
  out[1][0] = -kInf;
  out[2][1] = 1e30f;
  return out;
}

TEST(FlatIndexInput, NonFiniteVectorsAreRefusedAndFindNothing) {
  FlatIndex index;
  auto data = MakeDataset(8, 16, 11);
  for (size_t i = 0; i < data.size(); ++i) {
    ASSERT_TRUE(index.Add(i, data[i]).ok());
  }
  // A stored NaN row would score NaN against every query and take the top
  // slot from the true neighbour.
  for (const Vector& bad : NonFiniteVectors(16)) {
    EXPECT_EQ(index.Add(100, bad).code(),
              common::StatusCode::kInvalidArgument);
    EXPECT_EQ(index.Add(3, bad).code(),  // as a replacement too
              common::StatusCode::kInvalidArgument);
    EXPECT_TRUE(index.Search(bad, 4).empty());
  }
  EXPECT_EQ(index.Size(), 8u);
  EXPECT_FALSE(index.Contains(100));
  auto results = index.Search(data[0], 1);
  ASSERT_EQ(results.size(), 1u);
  EXPECT_EQ(results[0].id, 0u);
  EXPECT_NEAR(results[0].score, 1.0f, 1e-6f);
  results = index.Search(data[3], 1);
  ASSERT_EQ(results.size(), 1u);
  EXPECT_EQ(results[0].id, 3u);  // the refused replacement left row 3 alone
}

TEST(FlatIndexInput, FirstRefusedRowDoesNotFixTheLength) {
  FlatIndex index;
  EXPECT_EQ(index.Add(1, NonFiniteVectors(4)[0]).code(),
            common::StatusCode::kInvalidArgument);
  // Longer than an int32 int8 dot can hold.
  EXPECT_EQ(index.Add(1, Vector(FlatIndex::kMaxDim + 1, 0.5f)).code(),
            common::StatusCode::kInvalidArgument);
  ASSERT_TRUE(index.Add(2, Vector{1.0f, 0.0f}).ok());
  EXPECT_EQ(index.Size(), 1u);
}

// ---- hybrid store ----------------------------------------------------------

class VectorStoreTest : public ::testing::Test {
 protected:
  VectorStoreTest() {
    common::Rng rng(5);
    for (uint64_t i = 0; i < 200; ++i) {
      StoredItem item;
      item.id = i;
      item.vector = RandomUnitVector(rng, 32);
      item.payload = "item " + std::to_string(i);
      item.attributes["category"] =
          data::Value::Text(i % 4 == 0 ? "table" : "text");
      item.attributes["year"] = data::Value::Int(2014 + int64_t(i % 3));
      EXPECT_TRUE(store_.Insert(std::move(item)).ok());
    }
  }

  VectorStore store_;
};

TEST_F(VectorStoreTest, GetAndRemove) {
  ASSERT_NE(store_.Get(5), nullptr);
  EXPECT_EQ(store_.Get(5)->payload, "item 5");
  EXPECT_TRUE(store_.Remove(5).ok());
  EXPECT_EQ(store_.Get(5), nullptr);
  EXPECT_FALSE(store_.Remove(5).ok());
}

TEST_F(VectorStoreTest, InsertOfAnotherLengthStoresNothing) {
  StoredItem item;
  item.id = 1000;
  item.vector = Vector(16, 0.25f);  // the store's rows have 32 elements
  EXPECT_EQ(store_.Insert(std::move(item)).code(),
            common::StatusCode::kInvalidArgument);
  EXPECT_EQ(store_.Get(1000), nullptr);
  EXPECT_EQ(store_.Size(), 200u);
}

TEST_F(VectorStoreTest, NonFiniteVectorsAreRefusedAndFindNothing) {
  auto always = [](const std::map<std::string, data::Value>&) { return true; };
  auto tables = [](const std::map<std::string, data::Value>& attrs) {
    return attrs.at("category").AsText() == "table";
  };
  for (const Vector& bad : NonFiniteVectors(32)) {
    StoredItem item;
    item.id = 1000;
    item.vector = bad;
    EXPECT_EQ(store_.Insert(std::move(item)).code(),
              common::StatusCode::kInvalidArgument);
    EXPECT_EQ(store_.Get(1000), nullptr);
    EXPECT_TRUE(store_.Search(bad, 5).empty());
    for (auto strategy : {VectorStore::FilterStrategy::kPreFilter,
                          VectorStore::FilterStrategy::kPostFilter,
                          VectorStore::FilterStrategy::kAdaptive}) {
      EXPECT_TRUE(store_.HybridSearch(bad, 5, always, strategy).empty());
      EXPECT_TRUE(store_.HybridSearch(bad, 5, tables, strategy).empty());
    }
  }
  EXPECT_EQ(store_.Size(), 200u);
}

TEST_F(VectorStoreTest, HybridStrategiesAgreeOnResults) {
  common::Rng rng(77);
  auto predicate = [](const std::map<std::string, data::Value>& attrs) {
    return attrs.at("category").AsText() == "table";
  };
  for (int trial = 0; trial < 5; ++trial) {
    Vector q = RandomUnitVector(rng, 32);
    auto pre = store_.HybridSearch(q, 5, predicate,
                                   VectorStore::FilterStrategy::kPreFilter);
    auto post = store_.HybridSearch(q, 5, predicate,
                                    VectorStore::FilterStrategy::kPostFilter);
    ASSERT_EQ(pre.size(), post.size());
    for (size_t i = 0; i < pre.size(); ++i) {
      EXPECT_EQ(pre[i].id, post[i].id);
    }
    for (const auto& r : pre) {
      EXPECT_EQ(store_.Get(r.id)->attributes.at("category").AsText(), "table");
    }
  }
}

TEST_F(VectorStoreTest, AdaptiveChoosesPreFilterWhenSelective) {
  common::Rng rng(78);
  Vector q = RandomUnitVector(rng, 32);
  // Very selective predicate: only one id passes.
  auto predicate = [](const std::map<std::string, data::Value>& attrs) {
    return attrs.at("year").AsInt() == 2014 &&
           attrs.at("category").AsText() == "table";
  };
  VectorStore::HybridStats stats;
  auto res = store_.HybridSearch(q, 3, predicate,
                                 VectorStore::FilterStrategy::kAdaptive,
                                 &stats);
  EXPECT_EQ(stats.executed, VectorStore::FilterStrategy::kPreFilter);
  for (const auto& r : res) {
    EXPECT_TRUE(predicate(store_.Get(r.id)->attributes));
  }
}

TEST_F(VectorStoreTest, AdaptiveChoosesPostFilterWhenPermissive) {
  common::Rng rng(79);
  Vector q = RandomUnitVector(rng, 32);
  auto predicate = [](const std::map<std::string, data::Value>&) {
    return true;
  };
  VectorStore::HybridStats stats;
  store_.HybridSearch(q, 3, predicate,
                      VectorStore::FilterStrategy::kAdaptive, &stats);
  EXPECT_EQ(stats.executed, VectorStore::FilterStrategy::kPostFilter);
}

TEST(AdaptiveKPredictor, LearnsPassRate) {
  AdaptiveKPredictor pred(0.5, 1.5);
  // Observe a consistent 10% pass rate.
  for (int i = 0; i < 50; ++i) pred.Observe(100, 10);
  EXPECT_NEAR(pred.pass_rate(), 0.1, 0.02);
  // To get 10 survivors it should fetch ~10/0.1*1.5 = ~150.
  size_t k = pred.PredictFetchK(10);
  EXPECT_GE(k, 100u);
  EXPECT_LE(k, 250u);
}

TEST(AdaptiveKPredictor, PostFilterShortfallGrows) {
  // A store where only ~2% pass: post-filter must still find them.
  VectorStore store;
  common::Rng rng(6);
  for (uint64_t i = 0; i < 500; ++i) {
    StoredItem item;
    item.id = i;
    item.vector = RandomUnitVector(rng, 16);
    item.attributes["rare"] = data::Value::Bool(i % 50 == 0);
    ASSERT_TRUE(store.Insert(std::move(item)).ok());
  }
  auto predicate = [](const std::map<std::string, data::Value>& attrs) {
    return attrs.at("rare").AsBool();
  };
  Vector q = RandomUnitVector(rng, 16);
  auto res = store.HybridSearch(q, 5, predicate,
                                VectorStore::FilterStrategy::kPostFilter);
  EXPECT_EQ(res.size(), 5u);  // grew fetch_k until it found them
}

}  // namespace
}  // namespace llmdm::vectordb
