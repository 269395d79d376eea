#include <gtest/gtest.h>

#include "common/rng.h"
#include "vectordb/flat_index.h"
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

// ---- conformance suite over both FlatIndex modes --------------------------

enum class IndexKind { kFlat, kFlatInt8 };

FlatIndex MakeIndex(IndexKind kind) {
  FlatIndex::Options o;
  o.quantize = kind == IndexKind::kFlatInt8;  // int8 scan + float32 rescore
  return FlatIndex(o);
}

class IndexConformanceTest : public ::testing::TestWithParam<IndexKind> {};

TEST_P(IndexConformanceTest, AddSearchRemove) {
  FlatIndex index = MakeIndex(GetParam());
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
  FlatIndex index = MakeIndex(GetParam());
  EXPECT_TRUE(index.Search(Vector{1.0f, 0.0f}, 5).empty());
}

TEST_P(IndexConformanceTest, KLargerThanSize) {
  FlatIndex index = MakeIndex(GetParam());
  auto data = MakeDataset(5, 16, 2);
  for (size_t i = 0; i < data.size(); ++i) {
    ASSERT_TRUE(index.Add(i, data[i]).ok());
  }
  auto results = index.Search(data[0], 50);
  EXPECT_EQ(results.size(), 5u);
}

TEST_P(IndexConformanceTest, ResultsSortedByScore) {
  FlatIndex index = MakeIndex(GetParam());
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
  FlatIndex index = MakeIndex(GetParam());
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
  FlatIndex index = MakeIndex(GetParam());
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
