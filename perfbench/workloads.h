// The three perfbench workloads. Each builds its stack from the library's
// public constructors and Options only (every option not set here keeps its
// default), drives it from this process, checks the outputs, and reports
// every end-to-end metric — plus the per-layer metrics when `trace` is on.
#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common.h"
#include "serve/server.h"

namespace perfbench {

struct RunConfig {
  uint64_t seed = 1;
  /// Sizes the request stream: each workload offers a fixed number of
  /// requests per second of this, so one seed always sends the same stream.
  double seconds = 10.0;
  /// Wrap the layers in timing decorators and report per-layer metrics.
  bool trace = false;
  /// Scratch directory inside the checkout; wire_unique keeps its durable
  /// store in `workdir/store` and removes it afterwards.
  std::string workdir = ".bench_build/work";
};

/// Closed loop, 2 connections, every prompt unique: the cache/WAL write path.
Report RunWireUnique(const RunConfig& config);
/// Open loop over one connection, Zipf repeats of a pre-warmed cache.
Report RunWireZipfCache(const RunConfig& config);
/// In-process SubmitBatch with batching, single-flight and the batch probe.
Report RunBatchPrefix(const RunConfig& config);

/// The simulated endpoint's own seed. Fixed: --seed varies only the inputs.
inline constexpr uint64_t kModelSeed = 2024;

/// Answers `requests` with a direct Submit() on a cache-less, unbatched
/// server (2 workers, no shedding) over `model`, a fresh copy of the
/// workload's endpoint: the reference every answer the benchmark receives is
/// checked against. `sink` sees each response on a worker thread.
void SubmitToTwin(const std::shared_ptr<llmdm::llm::LlmModel>& model,
                  const std::vector<llmdm::serve::Request>& requests,
                  const std::function<void(const llmdm::serve::Response&)>& sink);

/// One (id, text, model, cost) outcome, text and model as common::Fnv1a
/// hashes, for an order-independent sum over a run's answers.
uint64_t MixOutcome(uint64_t id, uint64_t text_hash, uint64_t model_hash,
                    int64_t cost_micros);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
