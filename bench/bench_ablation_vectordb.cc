// Ablation A1: what the vector index's int8 sweep with exact float32
// rescoring buys over the float32 sweep it replaced (kernels::DotBatch over
// a contiguous arena plus a top-k selection), which returns the same ids
// and score bits.
// The vector database is the substrate the paper leans on for prompt
// selection, caching and multi-modal exploration (Secs. I, III-A/B/C). Two
// halves, timed with google-benchmark:
//  - clustered synthetic vectors (8k, d=128, k=10): per-query latency of
//    each, and how many of the index's results equal the sweep's;
//  - a size sweep over HashingEmbedder text (the semantic cache's own
//    vector shape, d=256, k=1 = the cache's probe width) at 1k/4k/16k/64k
//    entries.
// `--benchmark-smoke` shrinks both halves to ctest scale; unrecognised flags
// pass through to benchmark::Initialize (--benchmark_filter etc.).
#include <benchmark/benchmark.h>

#include <cmath>
#include <cstdio>
#include <iterator>
#include <string>
#include <vector>

#include "bench_args.h"
#include "common/rng.h"
#include "embed/embedder.h"
#include "vectordb/flat_index.h"
#include "vectordb/kernels.h"

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

/// The float32 sweep the index replaced: one DotBatch over a contiguous
/// arena and a top-k selection, scored as FlatIndex scores.
struct Float32Sweep {
  size_t dim = 0;
  std::vector<float> arena;
  std::vector<float> norms;

  void Add(const Vector& v) {
    dim = v.size();
    arena.insert(arena.end(), v.begin(), v.end());
    norms.push_back(
        std::sqrt(vectordb::kernels::Dot(v.data(), v.data(), dim)));
  }

  std::vector<vectordb::SearchResult> Search(const Vector& q,
                                             size_t k) const {
    const size_t rows = norms.size();
    const float qnorm =
        std::sqrt(vectordb::kernels::Dot(q.data(), q.data(), dim));
    std::vector<float> dots(rows);
    vectordb::kernels::DotBatch(q.data(), arena.data(), rows, dim,
                                dots.data());
    vectordb::kernels::TopKSelector top(k);
    for (size_t r = 0; r < rows; ++r) {
      top.Offer(norms[r] == 0.0f || qnorm == 0.0f
                    ? 0.0f
                    : dots[r] / (qnorm * norms[r]),
                r);
    }
    std::vector<vectordb::SearchResult> out;
    for (const auto& c : top.TakeSorted()) out.push_back({c.id, c.score});
    return out;
  }
};

/// The clustered dataset in the index and in the sweep, built once.
struct ClusteredSet {
  vectordb::FlatIndex index;
  Float32Sweep sweep;
};

ClusteredSet& Clustered() {
  static auto& set = *new ClusteredSet([] {
    ClusteredSet out;
    for (size_t i = 0; i < Dataset().size(); ++i) {
      out.index.Add(i, Dataset()[i]).ok();
      out.sweep.Add(Dataset()[i]);
    }
    return out;
  }());
  return set;
}

/// Queries on which the index returns exactly the sweep's results.
size_t ExactMatches(const vectordb::FlatIndex& index, const Float32Sweep& sweep,
                    const std::vector<Vector>& queries, size_t k) {
  size_t same = 0;
  for (const Vector& q : queries) {
    same += index.Search(q, k) == sweep.Search(q, k);
  }
  return same;
}

void BM_FlatIndexSearch(benchmark::State& state) {
  const auto& index = Clustered().index;
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(index.Search(Queries()[i++ % g_queries], 10));
  }
}
BENCHMARK(BM_FlatIndexSearch);

void BM_Float32Sweep(benchmark::State& state) {
  const auto& sweep = Clustered().sweep;
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(sweep.Search(Queries()[i++ % g_queries], 10));
  }
}
BENCHMARK(BM_Float32Sweep);

// ---- size sweep over cache-shaped text -------------------------------------

constexpr size_t kSweepK = 1;  // SemanticCache's probe width
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

/// The index and the sweep over the first `n` sentences of one fixed
/// stream (each size is a prefix of the next), plus a disjoint query set.
/// One size is resident at a time: the sweep benchmarks run in
/// registration order.
struct SweepSet {
  size_t n = 0;
  vectordb::FlatIndex index;
  Float32Sweep sweep;
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
    set.sweep.Add(v);
    set.index.Add(i, std::move(v)).ok();
  }
  common::Rng query_rng(77);
  for (size_t i = 0; i < kSweepQueries; ++i) {
    set.queries.push_back(embedder.Embed(RandomSentence(query_rng)));
  }
  return set;
}

void SweepSearch(benchmark::State& state, size_t n, bool index) {
  SweepSet& set = SweepAt(n);
  size_t i = 0;
  for (auto _ : state) {
    const Vector& q = set.queries[i++ % set.queries.size()];
    if (index) {
      benchmark::DoNotOptimize(set.index.Search(q, kSweepK));
    } else {
      benchmark::DoNotOptimize(set.sweep.Search(q, kSweepK));
    }
  }
  if (index) {
    state.counters["exact"] = static_cast<double>(
        ExactMatches(set.index, set.sweep, set.queries, kSweepK));
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

  std::printf("Ablation A1: flat index (int8 sweep + exact float32 rescore) "
              "vs float32 sweep (%zu vectors, d=%zu, k=10)\n",
              g_n, kDim);
  std::printf("index results equal to the sweep's: %zu of %zu queries\n",
              ExactMatches(Clustered().index, Clustered().sweep, Queries(), 10),
              Queries().size());
  for (size_t n : sweep) {
    for (bool index : {false, true}) {
      const std::string name = std::string("BM_TextSweep/") +
                               (index ? "index/" : "float32/") +
                               std::to_string(n);
      benchmark::RegisterBenchmark(name.c_str(), SweepSearch, n, index);
    }
  }
  int bench_argc = static_cast<int>(args.passthrough.size());
  benchmark::Initialize(&bench_argc, args.passthrough.data());
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
