// Wall-clock hot-path harness (not a paper table): measures the serving
// fast path this repo actually executes per request — semantic-cache lookup
// and insert across thread/shard counts, embedder throughput with and
// without the allocation-free path, and the flat lookup at cache sizes where
// the scan is the bottleneck. End-to-end serving is perfbench's job
// (perfbench/run.py).
//
// Emits machine-readable JSON (default ./BENCH_perf.json, override with
// --out=PATH): {"meta": {...}, "results": [{name, threads, shards, ops,
// ops_per_sec, p50_us, p99_us, ...}]}. `--benchmark-smoke` shrinks every
// workload so the whole binary finishes in a couple of seconds — that mode
// is what the `perf`-labelled ctest entry runs; absolute numbers are only
// meaningful from a full run of a -DCMAKE_BUILD_TYPE=Release build.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench_args.h"
#include "common/money.h"
#include "common/rng.h"
#include "common/string_util.h"
#include "core/optimize/semantic_cache.h"
#include "embed/embedder.h"
#include "obs/metrics.h"
#include "vectordb/kernels.h"

namespace {

using namespace llmdm;
using Clock = std::chrono::steady_clock;

struct BenchResult {
  std::string name;
  size_t threads = 1;
  size_t shards = 1;
  size_t ops = 0;
  double ops_per_sec = 0.0;
  double p50_us = 0.0;
  double p99_us = 0.0;
  // Scenario-specific extras rendered verbatim into the JSON object
  // (e.g. ", \"coalesced\": 30"). May be empty.
  std::string extra_json;
};

double Percentile(std::vector<double>& sorted_us, double p) {
  if (sorted_us.empty()) return 0.0;
  double rank = p * static_cast<double>(sorted_us.size() - 1);
  size_t lo = static_cast<size_t>(rank);
  size_t hi = std::min(lo + 1, sorted_us.size() - 1);
  double frac = rank - static_cast<double>(lo);
  return sorted_us[lo] + (sorted_us[hi] - sorted_us[lo]) * frac;
}

/// Summarizes the per-op durations of a scenario whose ops took `seconds`
/// in all.
BenchResult Summarize(const std::string& name, size_t threads, size_t shards,
                      std::vector<double> all_us, double seconds) {
  std::sort(all_us.begin(), all_us.end());
  BenchResult r;
  r.name = name;
  r.threads = threads;
  r.shards = shards;
  r.ops = all_us.size();
  r.ops_per_sec = seconds > 0.0 ? static_cast<double>(r.ops) / seconds : 0.0;
  r.p50_us = Percentile(all_us, 0.50);
  r.p99_us = Percentile(all_us, 0.99);
  return r;
}

/// Runs `op(thread_id, i)` ops_per_thread times on each of `threads`
/// threads (all released together), timing every call.
template <typename Op>
BenchResult RunThreaded(const std::string& name, size_t threads,
                        size_t shards, size_t ops_per_thread, const Op& op) {
  std::vector<std::vector<double>> durations_us(threads);
  std::atomic<bool> go{false};
  std::vector<std::thread> pool;
  pool.reserve(threads);
  for (size_t t = 0; t < threads; ++t) {
    durations_us[t].reserve(ops_per_thread);
    pool.emplace_back([&, t] {
      while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
      for (size_t i = 0; i < ops_per_thread; ++i) {
        auto start = Clock::now();
        op(t, i);
        durations_us[t].push_back(
            std::chrono::duration<double, std::micro>(Clock::now() - start)
                .count());
      }
    });
  }
  auto wall_start = Clock::now();
  go.store(true, std::memory_order_release);
  for (auto& th : pool) th.join();
  double wall_sec =
      std::chrono::duration<double>(Clock::now() - wall_start).count();

  std::vector<double> all_us;
  for (auto& v : durations_us) {
    all_us.insert(all_us.end(), v.begin(), v.end());
  }
  return Summarize(name, threads, shards, std::move(all_us), wall_sec);
}

std::string Query(size_t i) {
  return common::StrFormat(
      "perf query %zu select stadiums where capacity > %zu and year = %zu", i,
      1000 + i % 17, 2000 + i % 31);
}

optimize::SemanticCache::Options CacheOptions(size_t shards,
                                              size_t capacity) {
  optimize::SemanticCache::Options options;
  options.similarity_threshold = 0.9;
  options.capacity = capacity;
  options.num_shards = shards;
  return options;
}

// ---- Scenarios --------------------------------------------------------------

// The hand-written reference the kernels replaced: one accumulator, strict
// source order — exactly what the compiler emits for the old
// embed::CosineSimilarity inner loop without -ffast-math. This is the
// baseline the ≥4x dispatch-speedup claim is measured against.
float NaiveDot(const float* a, const float* b, size_t n) {
  float acc = 0.0f;
  for (size_t i = 0; i < n; ++i) acc += a[i] * b[i];
  return acc;
}

/// Kernel microbench: each timed op scores one query against a contiguous
/// arena of `rows` vectors (the FlatIndex scan shape). Variants:
/// "naive" = sequential scalar reference, "dispatch" = DotBatch on the
/// runtime-selected kernel, "int8" = DotBatchI8 over the quantized arena
/// (the sweep every FlatIndex search runs).
BenchResult KernelDot(const std::string& variant, size_t rows, size_t dim,
                      size_t ops) {
  common::Rng rng(42);
  std::vector<float> base(rows * dim), query(dim), out(rows);
  for (float& x : base) x = float(rng.Normal());
  for (float& x : query) x = float(rng.Normal());

  std::vector<int8_t> codes(rows * dim), qcodes(dim);
  std::vector<float> scales(rows);
  std::vector<int32_t> iout(rows);
  float qscale = 0.0f;
  if (variant == "int8") {
    for (size_t r = 0; r < rows; ++r) {
      vectordb::kernels::QuantizeSymmetric(base.data() + r * dim, dim,
                                           codes.data() + r * dim, &scales[r]);
    }
    vectordb::kernels::QuantizeSymmetric(query.data(), dim, qcodes.data(),
                                         &qscale);
  }

  BenchResult r = RunThreaded(
      "kernel_dot_" + variant, 1, 1, ops, [&](size_t, size_t) {
        if (variant == "naive") {
          for (size_t row = 0; row < rows; ++row) {
            out[row] = NaiveDot(query.data(), base.data() + row * dim, dim);
          }
        } else if (variant == "int8") {
          vectordb::kernels::DotBatchI8(qcodes.data(), codes.data(), rows, dim,
                                        iout.data());
        } else {
          vectordb::kernels::DotBatch(query.data(), base.data(), rows, dim,
                                      out.data());
        }
      });
  // ops are whole-arena passes; report the per-distance rate too so rows
  // across machines/dims compare directly.
  double mdist_per_sec = r.ops_per_sec * static_cast<double>(rows) / 1e6;
  r.extra_json = common::StrFormat(
      ", \"dim\": %zu, \"rows_per_op\": %zu, \"mdist_per_sec\": %.1f", dim,
      rows, mdist_per_sec);
  return r;
}

/// Hit lookups that each embed and scan: every query is cached, and every
/// lookup of the row has a text of its own, so none repeats a text on the
/// unchanged cache (the probe memo's case, timed by CacheLookupRepeat).
/// The row makes at most `entries` lookups.
BenchResult CacheLookup(size_t threads, size_t shards, size_t entries,
                        size_t ops_per_thread) {
  optimize::SemanticCache cache(CacheOptions(shards, entries));
  for (size_t i = 0; i < entries; ++i) {
    cache.Insert(Query(i), "answer", common::Money::FromDollars(0.001));
  }
  ops_per_thread = std::min(ops_per_thread, entries / threads);
  return RunThreaded("cache_lookup", threads, shards, ops_per_thread,
                     [&](size_t t, size_t i) {
                       cache.Lookup(Query(t * ops_per_thread + i));
                     });
}

/// One thread looks up the cache's own texts a second time on the
/// unchanged cache: each timed lookup repeats the untimed one just before
/// it, so the shard's probe memo answers it, with no embedding and no
/// scan. ops_per_sec counts the timed lookups' time only.
BenchResult CacheLookupRepeat(size_t entries, size_t ops) {
  optimize::SemanticCache cache(CacheOptions(1, entries));
  for (size_t i = 0; i < entries; ++i) {
    cache.Insert(Query(i), "answer", common::Money::FromDollars(0.001));
  }
  std::vector<double> durations_us;
  durations_us.reserve(ops);
  double timed_us = 0.0;
  for (size_t i = 0; i < ops; ++i) {
    cache.Lookup(Query(i % entries));
    auto start = Clock::now();
    cache.Lookup(Query(i % entries));
    durations_us.push_back(
        std::chrono::duration<double, std::micro>(Clock::now() - start)
            .count());
    timed_us += durations_us.back();
  }
  return Summarize("cache_lookup_repeat", 1, 1, std::move(durations_us),
                   timed_us / 1e6);
}

BenchResult CacheInsert(size_t threads, size_t shards, size_t capacity,
                        size_t ops_per_thread) {
  optimize::SemanticCache cache(CacheOptions(shards, capacity));
  // Pre-fill to capacity so every measured insert runs the eviction scan —
  // the worst case a serving thread can hit.
  for (size_t i = 0; i < capacity; ++i) {
    cache.Insert(Query(1000000 + i), "warm", common::Money::FromDollars(0.001));
  }
  return RunThreaded(
      "cache_insert", threads, shards, ops_per_thread,
      [&](size_t t, size_t i) {
        cache.Insert(Query(2000000 + t * ops_per_thread + i), "fresh",
                     common::Money::FromDollars(0.001));
      });
}

BenchResult EmbedThroughput(bool into, size_t ops) {
  embed::HashingEmbedder embedder;
  embed::Vector reuse;
  std::vector<std::string> corpus;
  for (size_t i = 0; i < 64; ++i) corpus.push_back(Query(i));
  return RunThreaded(into ? "embed_into" : "embed_alloc", 1, 1, ops,
                     [&](size_t, size_t i) {
                       const std::string& text = corpus[i % corpus.size()];
                       if (into) {
                         embedder.EmbedInto(text, &reuse);
                       } else {
                         embed::Vector v = embedder.Embed(text);
                         (void)v;
                       }
                     });
}

/// Single-thread hit lookups in a cache of `entries` split over `shards`:
/// each probe scans one shard's int8 codes and rescores what its bound
/// keeps.
BenchResult AnnLookup(size_t entries, size_t ops, size_t shards) {
  optimize::SemanticCache cache(CacheOptions(shards, entries));
  for (size_t i = 0; i < entries; ++i) {
    cache.Insert(Query(i), "answer", common::Money::FromDollars(0.001));
  }
  BenchResult r = RunThreaded("ann_lookup", 1, shards, ops,
                              [&](size_t, size_t i) {
                                cache.Lookup(Query((i * 13) % entries));
                              });
  r.extra_json = common::StrFormat(", \"entries\": %zu", entries);
  return r;
}

// ---- Driver -----------------------------------------------------------------

void AppendJson(std::string* out, const BenchResult& r) {
  *out += common::StrFormat(
      "    {\"name\": \"%s\", \"threads\": %zu, \"shards\": %zu, "
      "\"ops\": %zu, \"ops_per_sec\": %.1f, \"p50_us\": %.2f, "
      "\"p99_us\": %.2f%s}",
      r.name.c_str(), r.threads, r.shards, r.ops, r.ops_per_sec, r.p50_us,
      r.p99_us, r.extra_json.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  llmdm::bench::BenchArgSpec spec;
  spec.accepts_out = true;
  spec.default_out = "BENCH_perf.json";
  llmdm::bench::BenchArgs args;
  if (!llmdm::bench::ParseBenchArgs(argc, argv, spec, &args)) return 2;
  const bool smoke = args.smoke;
  const std::string out_path = args.out_path;
  const std::string metrics_out = args.metrics_out;

  // Smoke mode trades statistical weight for a ctest-friendly runtime; the
  // scenario set and the JSON shape are identical to the full run.
  const size_t kEntries = smoke ? 256 : 2048;
  const size_t kLookupOps = smoke ? 40 : 400;
  const size_t kInsertCap = smoke ? 256 : 1024;
  const size_t kInsertOps = smoke ? 40 : 300;
  const size_t kEmbedOps = smoke ? 2000 : 20000;
  const size_t kAnnEntries = smoke ? 512 : 4096;
  const size_t kAnnOps = smoke ? 50 : 400;
  // The kernel arena stays L2-resident (1024 x 256 floats = 1 MB) in both
  // modes: the row measures distance-kernel throughput, not DRAM bandwidth —
  // at larger arenas every variant converges on the memory wall and the
  // dispatch-vs-naive ratio stops describing the kernels.
  const size_t kKernelRows = 1024;
  const size_t kKernelDim = 256;
  const size_t kKernelOps = smoke ? 20 : 400;
  // The second lookup row runs at 64k entries in 8 shards (each probe
  // scans an ~8k-row shard) in full mode only.
  const size_t kLargeEntries = smoke ? 1024 : 65536;
  const size_t kLargeShards = 8;
  const size_t kLargeOps = smoke ? 50 : 2000;

  std::vector<BenchResult> results;
  results.push_back(KernelDot("naive", kKernelRows, kKernelDim, kKernelOps));
  results.push_back(KernelDot("dispatch", kKernelRows, kKernelDim, kKernelOps));
  results.push_back(KernelDot("int8", kKernelRows, kKernelDim, kKernelOps));
  struct { size_t threads, shards; } sweep[] = {{1, 1}, {8, 1}, {8, 8}};
  for (const auto& cfg : sweep) {
    results.push_back(
        CacheLookup(cfg.threads, cfg.shards, kEntries, kLookupOps));
  }
  results.push_back(CacheLookupRepeat(kEntries, kLookupOps));
  for (const auto& cfg : sweep) {
    results.push_back(
        CacheInsert(cfg.threads, cfg.shards, kInsertCap, kInsertOps));
  }
  results.push_back(EmbedThroughput(/*into=*/false, kEmbedOps));
  results.push_back(EmbedThroughput(/*into=*/true, kEmbedOps));
  results.push_back(AnnLookup(kAnnEntries, kAnnOps, /*shards=*/1));
  results.push_back(AnnLookup(kLargeEntries, kLargeOps, kLargeShards));
  std::string metrics_text;
  if (!metrics_out.empty()) {
    // Which kernel this machine actually ran: the dispatch gauge makes perf
    // trajectories across machines interpretable next to the numbers.
    obs::Registry dispatch_registry;
    vectordb::kernels::ExportDispatchMetrics(&dispatch_registry);
    metrics_text += "# cell: kernel_dispatch\n";
    metrics_text += dispatch_registry.PrometheusText();
  }

  std::printf("%-26s %7s %6s %10s %12s %10s %10s\n", "scenario", "threads",
              "shards", "ops", "ops/sec", "p50_us", "p99_us");
  for (const auto& r : results) {
    std::printf("%-26s %7zu %6zu %10zu %12.1f %10.2f %10.2f\n",
                r.name.c_str(), r.threads, r.shards, r.ops, r.ops_per_sec,
                r.p50_us, r.p99_us);
  }

  // The headline claim: sharding must pay off on the contended lookup path.
  double lookup_8t_1s = 0.0, lookup_8t_8s = 0.0;
  for (const auto& r : results) {
    if (r.name == "cache_lookup" && r.threads == 8) {
      (r.shards == 8 ? lookup_8t_8s : lookup_8t_1s) = r.ops_per_sec;
    }
  }
  double speedup = lookup_8t_1s > 0.0 ? lookup_8t_8s / lookup_8t_1s : 0.0;
  std::printf("cache_lookup speedup 8t/8s vs 8t/1s: %.2fx\n", speedup);

  // The tentpole claim: the dispatched kernel vs. the naive sequential
  // reference, single thread, same arena.
  double dot_naive = 0.0, dot_dispatch = 0.0;
  for (const auto& r : results) {
    if (r.name == "kernel_dot_naive") dot_naive = r.ops_per_sec;
    if (r.name == "kernel_dot_dispatch") dot_dispatch = r.ops_per_sec;
  }
  double kernel_speedup = dot_naive > 0.0 ? dot_dispatch / dot_naive : 0.0;
  const char* dispatch_name = llmdm::vectordb::kernels::DispatchName(
      llmdm::vectordb::kernels::ActiveDispatch());
  std::printf("kernel_dot speedup dispatch(%s) vs naive: %.2fx\n",
              dispatch_name, kernel_speedup);

  std::string json = "{\n  \"meta\": {";
  json += common::StrFormat(
      "\"bench\": \"perf_hotpath\", \"smoke\": %s, "
      "\"hardware_threads\": %u, "
      "\"kernel_dispatch\": \"%s\", \"search\": \"int8_exact_rescore\", "
      "\"kernel_dot_speedup_vs_naive\": %.2f, "
      "\"lookup_speedup_8t_8s_vs_8t_1s\": %.2f},\n  \"results\": [\n",
      smoke ? "true" : "false", std::thread::hardware_concurrency(),
      dispatch_name, kernel_speedup, speedup);
  for (size_t i = 0; i < results.size(); ++i) {
    AppendJson(&json, results[i]);
    json += (i + 1 < results.size()) ? ",\n" : "\n";
  }
  json += "  ]\n}\n";

  std::FILE* f = std::fopen(out_path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
    return 1;
  }
  std::fwrite(json.data(), 1, json.size(), f);
  std::fclose(f);
  std::printf("wrote %s\n", out_path.c_str());

  if (!metrics_out.empty()) {
    std::FILE* mf = std::fopen(metrics_out.c_str(), "w");
    if (mf == nullptr) {
      std::fprintf(stderr, "cannot write %s\n", metrics_out.c_str());
      return 1;
    }
    std::fwrite(metrics_text.data(), 1, metrics_text.size(), mf);
    std::fclose(mf);
    std::printf("wrote %s\n", metrics_out.c_str());
  }
  return 0;
}
