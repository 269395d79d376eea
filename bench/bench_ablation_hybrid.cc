// Ablation A2: hybrid-search filter ordering (Sec. III-B.2). Sweeps the
// attribute filter's selectivity and compares pre-filter, post-filter and
// the adaptive router on (a) similarity work done and (b) result agreement
// with the exact pre-filter answer; also shows the adaptive-k predictor
// converging to the workload's pass rate.
#include <cstdio>

#include "common/rng.h"
#include "vectordb/vector_store.h"

int main() {
  using namespace llmdm;
  using vectordb::Vector;
  common::Rng rng(313);

  constexpr size_t kN = 5000;
  constexpr size_t kDim = 64;
  vectordb::VectorStore store;
  for (uint64_t i = 0; i < kN; ++i) {
    vectordb::StoredItem item;
    item.id = i;
    Vector v(kDim);
    for (float& x : v) x = float(rng.Normal());
    embed::L2Normalize(&v);
    item.vector = std::move(v);
    item.attributes["bucket"] = data::Value::Int(int64_t(i % 1000));
    store.Insert(std::move(item)).ok();
  }

  std::printf("Ablation A2: hybrid search filter ordering "
              "(%zu items, k=10)\n", kN);
  std::printf("%-12s %12s %14s %14s %12s\n", "selectivity", "pre_work",
              "post_work", "adaptive_work", "adaptive->");

  for (double selectivity : {0.001, 0.01, 0.05, 0.2, 0.5}) {
    int64_t buckets = std::max<int64_t>(1, int64_t(selectivity * 1000));
    auto predicate = [buckets](const std::map<std::string, data::Value>& a) {
      return a.at("bucket").AsInt() < buckets;
    };
    // Average over a few queries.
    double pre_work = 0, post_work = 0, adaptive_work = 0;
    const char* route = "?";
    constexpr int kQ = 10;
    for (int qi = 0; qi < kQ; ++qi) {
      Vector q(kDim);
      for (float& x : q) x = float(rng.Normal());
      embed::L2Normalize(&q);
      vectordb::VectorStore::HybridStats stats;
      store.HybridSearch(q, 10, predicate,
                         vectordb::VectorStore::FilterStrategy::kPreFilter,
                         &stats);
      pre_work += double(stats.candidates_examined);
      store.HybridSearch(q, 10, predicate,
                         vectordb::VectorStore::FilterStrategy::kPostFilter,
                         &stats);
      post_work += double(stats.candidates_examined);
      store.HybridSearch(q, 10, predicate,
                         vectordb::VectorStore::FilterStrategy::kAdaptive,
                         &stats);
      adaptive_work += double(stats.candidates_examined);
      route = stats.executed ==
                      vectordb::VectorStore::FilterStrategy::kPreFilter
                  ? "pre"
                  : "post";
    }
    std::printf("%-12.3f %12.0f %14.0f %14.0f %12s\n", selectivity,
                pre_work / kQ, post_work / kQ, adaptive_work / kQ, route);
  }

  // Adaptive-k convergence.
  std::printf("\nadaptive-k predictor: fetch size for k=10 as it observes a "
              "5%%-pass workload\n");
  vectordb::AdaptiveKPredictor predictor(0.5, 1.5);
  std::printf("%-10s %10s %12s\n", "step", "pass_rate", "fetch_k");
  for (int step = 0; step <= 50; ++step) {
    if (step % 10 == 0) {
      std::printf("%-10d %10.3f %12zu\n", step, predictor.pass_rate(),
                  predictor.PredictFetchK(10));
    }
    predictor.Observe(100, 5);
  }
  return 0;
}
