// Ablation A1: the vector index trade-off, FlatIndex float32 vs int8 scan +
// exact float32 rescore.
// The vector database is the substrate the paper leans on for prompt
// selection, caching and multi-modal exploration (Secs. I, III-A/B/C). Two
// halves, timed with google-benchmark:
//  - clustered synthetic vectors (8k, d=128, k=10): recall@10 of each mode
//    vs the exact float32 scan, and per-query latency;
//  - a size sweep over HashingEmbedder text (the semantic cache's own
//    vector shape, d=256, k=4 = the cache's probe width) at 1k/4k/16k/64k
//    entries: where int8+rescore overtakes the float32 scan.
// `--benchmark-smoke` shrinks both halves to ctest scale; unrecognised flags
// pass through to benchmark::Initialize (--benchmark_filter etc.).
#include <benchmark/benchmark.h>

#include <cstdio>
#include <iterator>
#include <set>
#include <string>
#include <vector>

#include "bench_args.h"
#include "common/rng.h"
#include "embed/embedder.h"
#include "vectordb/flat_index.h"

namespace {

using namespace llmdm;
using vectordb::Vector;

constexpr size_t kDim = 128;
constexpr size_t kClusters = 64;

// Sized at startup from --benchmark-smoke, before any lazy dataset build.
size_t g_n = 8000;
size_t g_queries = 40;

// Clustered data (mixture of Gaussians around unit-sphere centroids): real
// embedding collections are clustered, and nearest-neighbour recall is only
// meaningful when neighbourhoods exist.
Vector RandomPoint(common::Rng& rng, const std::vector<Vector>& centers) {
  const Vector& center = centers[rng.NextBelow(centers.size())];
  Vector v(kDim);
  for (size_t d = 0; d < kDim; ++d) {
    v[d] = center[d] + 0.25f * float(rng.Normal());
  }
  embed::L2Normalize(&v);
  return v;
}

std::vector<Vector>& Centers() {
  static auto& centers = *new std::vector<Vector>([] {
    common::Rng rng(5);
    std::vector<Vector> out;
    for (size_t c = 0; c < kClusters; ++c) {
      Vector v(kDim);
      for (float& x : v) x = float(rng.Normal());
      embed::L2Normalize(&v);
      out.push_back(std::move(v));
    }
    return out;
  }());
  return centers;
}

std::vector<Vector>& Dataset() {
  static auto& data = *new std::vector<Vector>([] {
    common::Rng rng(20240704);
    std::vector<Vector> out;
    out.reserve(g_n);
    for (size_t i = 0; i < g_n; ++i) out.push_back(RandomPoint(rng, Centers()));
    return out;
  }());
  return data;
}

std::vector<Vector>& Queries() {
  static auto& queries = *new std::vector<Vector>([] {
    common::Rng rng(99);
    std::vector<Vector> out;
    for (size_t i = 0; i < g_queries; ++i) {
      out.push_back(RandomPoint(rng, Centers()));
    }
    return out;
  }());
  return queries;
}

/// The clustered dataset in one index per mode, built once.
vectordb::FlatIndex& BuiltIndex(bool quantize) {
  static auto& indexes = *new std::vector<vectordb::FlatIndex>([] {
    std::vector<vectordb::FlatIndex> out;
    for (bool q : {false, true}) {
      vectordb::FlatIndex idx({.quantize = q});
      for (size_t i = 0; i < Dataset().size(); ++i) {
        idx.Add(i, Dataset()[i]).ok();
      }
      out.push_back(std::move(idx));
    }
    return out;
  }());
  return indexes[quantize ? 1 : 0];
}

/// Fraction of the exact top-k that `index` also returns.
double RecallAtK(const vectordb::FlatIndex& exact,
                 const vectordb::FlatIndex& index,
                 const std::vector<Vector>& queries, size_t k) {
  size_t hits = 0, total = 0;
  for (const Vector& q : queries) {
    auto truth = exact.Search(q, k);
    std::set<uint64_t> truth_ids;
    for (const auto& r : truth) truth_ids.insert(r.id);
    for (const auto& r : index.Search(q, k)) hits += truth_ids.count(r.id);
    total += truth.size();
  }
  return double(hits) / double(total);
}

void BM_FlatSearch(benchmark::State& state) {
  auto& index = BuiltIndex(/*quantize=*/false);
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(index.Search(Queries()[i++ % g_queries], 10));
  }
}
BENCHMARK(BM_FlatSearch);

void BM_FlatSearchInt8(benchmark::State& state) {
  auto& index = BuiltIndex(/*quantize=*/true);
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(index.Search(Queries()[i++ % g_queries], 10));
  }
  state.counters["recall@10"] =
      RecallAtK(BuiltIndex(false), index, Queries(), 10);
}
BENCHMARK(BM_FlatSearchInt8);

// ---- size sweep over cache-shaped text -------------------------------------

constexpr size_t kSweepK = 4;  // SemanticCache's probe width
constexpr size_t kSweepQueries = 64;

/// A random 8-14 word sentence over a fixed vocabulary: the shape of the
/// natural-language queries the semantic cache embeds.
std::string RandomSentence(common::Rng& rng) {
  static const char* const kWords[] = {
      "show",     "the",      "names",   "of",       "stadiums", "that",
      "had",      "concerts", "in",      "year",     "list",     "all",
      "patients", "with",     "insulin", "dosage",   "above",    "average",
      "which",    "singers",  "from",    "france",   "released", "albums",
      "count",    "orders",   "shipped", "before",   "march",    "total",
      "revenue",  "per",      "region",  "find",     "students", "enrolled",
      "courses",  "taught",   "by",      "professor", "capacity", "greater",
      "than",     "and",      "or",      "not",      "where",    "between"};
  const size_t words = 8 + rng.NextBelow(7);
  std::string s;
  for (size_t i = 0; i < words; ++i) {
    if (i > 0) s += ' ';
    s += kWords[rng.NextBelow(std::size(kWords))];
  }
  return s;
}

/// Both modes over the first `n` sentences of one fixed stream (each size
/// is a prefix of the next), plus a disjoint query set. One size is
/// resident at a time: the sweep benchmarks run in registration order.
struct SweepSet {
  size_t n = 0;
  vectordb::FlatIndex flat;
  vectordb::FlatIndex int8{{.quantize = true}};
  std::vector<Vector> queries;
};

SweepSet& SweepAt(size_t n) {
  static auto& set = *new SweepSet;
  if (set.n == n) return set;
  set = SweepSet{};
  set.n = n;
  embed::HashingEmbedder embedder;
  common::Rng rng(20240705);
  for (size_t i = 0; i < n; ++i) {
    Vector v = embedder.Embed(RandomSentence(rng));
    set.flat.Add(i, v).ok();
    set.int8.Add(i, std::move(v)).ok();
  }
  common::Rng query_rng(77);
  for (size_t i = 0; i < kSweepQueries; ++i) {
    set.queries.push_back(embedder.Embed(RandomSentence(query_rng)));
  }
  return set;
}

void SweepSearch(benchmark::State& state, size_t n, bool quantize) {
  SweepSet& set = SweepAt(n);
  const vectordb::FlatIndex& index = quantize ? set.int8 : set.flat;
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        index.Search(set.queries[i++ % set.queries.size()], kSweepK));
  }
  if (quantize) {
    state.counters["recall@4"] =
        RecallAtK(set.flat, index, set.queries, kSweepK);
  }
}

}  // namespace

int main(int argc, char** argv) {
  llmdm::bench::BenchArgSpec spec;
  spec.passthrough_unknown = true;
  llmdm::bench::BenchArgs args;
  if (!llmdm::bench::ParseBenchArgs(argc, argv, spec, &args)) return 2;
  std::vector<size_t> sweep = {1024, 4096, 16384, 65536};
  if (args.smoke) {
    g_n = 1500;
    g_queries = 12;
    sweep = {256, 1024};
  }

  std::printf("Ablation A1: flat index, float32 vs int8+rescore "
              "(%zu vectors, d=%zu, recall vs float32 scan)\n",
              g_n, kDim);
  std::printf("Flat int8+rescore      recall@10 = %.3f\n",
              RecallAtK(BuiltIndex(false), BuiltIndex(true), Queries(), 10));
  for (size_t n : sweep) {
    for (bool quantize : {false, true}) {
      const std::string name = std::string("BM_TextSweep/") +
                               (quantize ? "int8/" : "flat/") +
                               std::to_string(n);
      benchmark::RegisterBenchmark(name.c_str(), SweepSearch, n, quantize);
    }
  }
  int bench_argc = static_cast<int>(args.passthrough.size());
  benchmark::Initialize(&bench_argc, args.passthrough.data());
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
