// Shared plumbing for the perfbench workloads: wall clock, sample summaries,
// the metric report, and the timing decorator the traced runs wrap around
// llm::LlmModel. Everything here calls the library through its public
// headers only; nothing under src/ is instrumented.
#ifndef PERFBENCH_COMMON_H_
#define PERFBENCH_COMMON_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "llm/model.h"
#include "net/wire.h"
#include "text/tokenizer.h"

namespace perfbench {

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Nearest-rank percentile (p in [0,1]) of `values`; sorts in place.
double Percentile(std::vector<double>* values, double p);
double Mean(const std::vector<double>& values);
double Median(std::vector<double> values);
/// Mean of the middle half (interquartile mean): robust like the median,
/// but averages more of the data.
double MiddleMean(std::vector<double> values);

/// Returns freed heap to the system, resets the process's peak resident set
/// size to its current one (/proc/self/clear_refs), and returns that size
/// in MiB. A workload calls it after generating its inputs and before
/// building its stack, and reports PeakRssMb() minus this: the stack's own
/// peak, not the benchmark's buffers or an earlier repetition's.
double ResetPeakRss();
/// Peak resident set size in MiB since the last ResetPeakRss (VmHWM).
double PeakRssMb();

/// Stacks whose build times make up one repetition's setup_s.
inline constexpr int kSetUps = 3;

/// A repetition's set-up time: the median of `first_s` (the build the run
/// used) and kSetUps - 1 more calls of `build`, each stack destroyed at once,
/// so one slow build on a shared host does not decide setup_s. Call it after
/// the run has read rss_mb and dropped its stack, so the run sees one stack.
template <typename Build>
double MedianSetUpS(double first_s, const Build& build) {
  std::vector<double> seconds = {first_s};
  for (int k = 1; k < kSetUps; ++k) {
    const int64_t t0 = NowNs();
    auto stack = build();
    seconds.push_back((NowNs() - t0) / 1e9);
  }
  return Median(seconds);
}

/// One answered request on the wall clock.
struct Sample {
  int64_t done_ns = 0;  // when the answer arrived
  double latency_us = 0.0;
};

/// Throughput and latency of a run, each the interquartile mean over equal
/// wall-clock windows (by completion time), so a stall that hits one window
/// moves that window's numbers and not the run's.
struct WallStats {
  double rps = 0.0;
  double p50_us = 0.0;
  double p90_us = 0.0;
};
WallStats SegmentedWallStats(const std::vector<Sample>& samples,
                             int64_t start_ns, int64_t end_ns);

/// What one workload run hands back to main(): request counts, gate
/// failures, and every metric by name.
struct Report {
  struct Metric {
    double value = 0.0;
    std::string unit;
  };
  uint64_t attempted = 0;
  /// Requests behind p50_us / p90_us.
  uint64_t latency_samples = 0;
  /// Errors + sheds + requests that failed a correctness gate, plus one per
  /// failed run-level gate (drain, recovery, conservation).
  uint64_t failed = 0;
  std::vector<std::string> failure_notes;  // first few, for stderr
  std::map<std::string, Metric> metrics;
  /// Committed spend from the server's integer-micros meter.
  int64_t spend_micros = 0;
  /// Order-independent digest of every (id, text, model, cost) answered.
  uint64_t answers_digest = 0;

  void Set(const std::string& name, double value, const std::string& unit) {
    metrics[name] = Metric{value, unit};
  }
  void Fail(const std::string& note);
};

/// Wall-clock accumulator shared by a TimingLlm and whoever reads it after
/// the run. Lock-free: serve workers record concurrently.
struct CallTimes {
  std::atomic<uint64_t> calls{0};
  std::atomic<uint64_t> ns{0};
  /// Calls whose completion came from a semantic cache (model "+cache").
  std::atomic<uint64_t> hit_calls{0};
  std::atomic<uint64_t> hit_ns{0};
  std::atomic<uint64_t> batch_calls{0};  // CompleteBatch invocations
};

/// LlmModel decorator that times every call into `inner` and otherwise
/// changes nothing: each entry point forwards to the same entry point of the
/// inner model. CompleteBatch in particular must reach the inner
/// CompleteBatch, or an endpoint's shared-prefix billing would silently fall
/// back to the base per-call loop.
class TimingLlm : public llmdm::llm::LlmModel {
 public:
  TimingLlm(std::shared_ptr<llmdm::llm::LlmModel> inner, CallTimes* times)
      : inner_(std::move(inner)), times_(times) {}

  const llmdm::llm::ModelSpec& spec() const override { return inner_->spec(); }
  llmdm::common::Result<llmdm::llm::Completion> Complete(
      const llmdm::llm::Prompt& prompt) override;
  llmdm::common::Result<llmdm::llm::Completion> CompleteMetered(
      const llmdm::llm::Prompt& prompt,
      llmdm::llm::UsageMeter* meter) override;
  std::vector<llmdm::common::Result<llmdm::llm::Completion>> CompleteBatch(
      const std::vector<llmdm::llm::Prompt>& prompts) override;

 private:
  void Record(int64_t t0,
              const llmdm::common::Result<llmdm::llm::Completion>& result);

  std::shared_ptr<llmdm::llm::LlmModel> inner_;
  CallTimes* times_;
};

bool EndsWith(const std::string& s, const std::string& suffix);

/// Hit ratio of the tokenizer's count cache since `before` was taken.
double TokenCacheHitRatio(const llmdm::text::TokenCountCacheStats& before);

// ---- Offline replays (traced runs only) ----
// Each replays a sample of the workload's own inputs through one layer's
// public functions, repeating the sample until at least `kReplayNs` of work
// has been timed, and returns the mean cost of one item.

/// EncodeRequestFrame + FrameDecoder::Feed/Next + DecodeRequest, ns/frame.
double CodecNsPerFrame(const std::vector<llmdm::net::WireRequest>& requests);
/// HashingEmbedder::EmbedInto, µs/text.
double EmbedUs(const std::vector<std::string>& texts);
/// kernels::DotBatch over an arena of `rows` embeddings of `arena_texts`
/// (cycled) plus a top-4 selection (the cache's probe width), µs/scan.
double ScanUs(const std::vector<std::string>& arena_texts, size_t rows,
              const std::vector<std::string>& queries);

}  // namespace perfbench

#endif  // PERFBENCH_COMMON_H_
