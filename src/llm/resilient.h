#ifndef LLMDM_LLM_RESILIENT_H_
#define LLMDM_LLM_RESILIENT_H_

#include <atomic>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <vector>

#include "llm/model.h"
#include "obs/metrics.h"

namespace llmdm::llm {

/// Closed -> open -> half-open breaker over a rolling window of the last 16
/// outcomes. Once the window holds min_samples outcomes, a failure rate of
/// at least 0.5 opens it; 2,000 ms after opening it lets probes through
/// (half-open), and two successful probes close it again. Time is the
/// caller's *simulated* clock (accumulated completion latency and backoff
/// waits), so breaker behaviour is exactly reproducible.
///
/// Thread-safe: one breaker instance guards one endpoint for every thread in
/// the serving layer — a breaker that only some threads observed open would
/// not shed anything. All methods take the internal mutex.
class CircuitBreaker {
 public:
  struct Options {
    size_t min_samples = 8;  // don't judge before this many outcomes
  };

  enum class State { kClosed, kOpen, kHalfOpen };

  explicit CircuitBreaker(const Options& options) : options_(options) {}

  /// False while open (and still cooling down). Transitions open->half-open
  /// once the cooldown has elapsed on the simulated clock.
  bool Allow(double now_ms);
  void RecordSuccess(double now_ms);
  void RecordFailure(double now_ms);

  State state() const {
    std::lock_guard<std::mutex> lock(mu_);
    return state_;
  }
  size_t times_opened() const {
    std::lock_guard<std::mutex> lock(mu_);
    return times_opened_;
  }

 private:
  void Open(double now_ms);          // requires mu_
  double FailureRate() const;        // requires mu_

  Options options_;
  mutable std::mutex mu_;
  State state_ = State::kClosed;
  std::deque<bool> outcomes_;  // true = failure
  double opened_at_ms_ = 0.0;
  size_t half_open_successes_ = 0;
  size_t times_opened_ = 0;
};

/// LlmModel decorator that makes a flaky endpoint dependable:
///  - retries transient errors (and detectable truncation) with exponential
///    backoff, doubling from RetryPolicy::initial_backoff_ms up to 4,000 ms
///    and stretched by up to 25% with deterministic jitter hashed from
///    (seed, prompt, attempt);
///  - enforces a per-call deadline budget of 20,000 ms against the
///    *simulated* latency (ModelSpec::latency_ms_per_1k_tokens accumulated
///    into Completion::latency_ms, plus backoff waits and 1,000 ms for each
///    endpoint timeout, the socket timeout a real client waits out),
///    surfacing kTimeout; when the prompt carries a request-wide
///    llm::Deadline, the tighter of the two budgets wins and the request
///    budget is charged for waits;
///  - trips a per-model CircuitBreaker so a hard-down endpoint stops eating
///    retry budget;
///  - degrades gracefully through a FallbackChain: cheaper model rungs
///    first, then an optional stale-cache lookup, before giving up.
/// Every attempt's token spend — including discarded retries and fallback
/// calls — is metered into the caller's UsageMeter, with RetryStats
/// itemizing what the resilience machinery cost.
///
/// Thread-safe: many serving threads share one ResilientLlm. Per-call state
/// (elapsed time, attempt counts) lives on the stack; the shared breaker and
/// lifetime stats are internally locked. Jitter is a pure hash of
/// (seed, prompt, attempt) rather than a shared RNG stream, so the backoff
/// schedule of a given call does not depend on which other calls are in
/// flight — the property that keeps threaded runs reproducible.
class ResilientLlm : public LlmModel {
 public:
  struct RetryPolicy {
    size_t max_attempts = 4;
    double initial_backoff_ms = 100.0;
  };

  struct Options {
    RetryPolicy retry;
    CircuitBreaker::Options breaker;
    uint64_t seed = 0;
    /// Metrics registry for the decorator's instruments (labelled
    /// model=<inner model name>). Null gives this instance a private
    /// registry, keeping stats() per-instance; inject one to aggregate a
    /// stack (two ResilientLlm over the same model name would then share
    /// series).
    obs::Registry* registry = nullptr;
  };

  /// Last-resort lookup (e.g. a stale SemanticCache hit); returns a
  /// completion served without touching any endpoint.
  using CacheFallback = std::function<std::optional<Completion>(const Prompt&)>;

  ResilientLlm(std::shared_ptr<LlmModel> inner, const Options& options)
      : inner_(std::move(inner)), options_(options), breaker_(options.breaker) {
    if (options_.registry != nullptr) {
      registry_ = options_.registry;
    } else {
      owned_registry_ = std::make_unique<obs::Registry>();
      registry_ = owned_registry_.get();
    }
    const obs::Labels labels{{"model", inner_->spec().name}};
    metrics_.attempts =
        registry_->GetCounter("llmdm_llm_attempts_total", labels);
    metrics_.retries = registry_->GetCounter("llmdm_llm_retries_total", labels);
    metrics_.transient_errors =
        registry_->GetCounter("llmdm_llm_transient_errors_total", labels);
    metrics_.fallbacks =
        registry_->GetCounter("llmdm_llm_fallbacks_total", labels);
    metrics_.stale_serves =
        registry_->GetCounter("llmdm_llm_stale_serves_total", labels);
    metrics_.circuit_opens =
        registry_->GetCounter("llmdm_llm_circuit_opens_total", labels);
    metrics_.circuit_rejections =
        registry_->GetCounter("llmdm_llm_circuit_rejections_total", labels);
    metrics_.deadline_exceeded =
        registry_->GetCounter("llmdm_llm_deadline_exceeded_total", labels);
    metrics_.breaker_state =
        registry_->GetGauge("llmdm_llm_breaker_state", labels);
  }

  const ModelSpec& spec() const override { return inner_->spec(); }

  /// Appends a cheaper rung to the fallback chain (tried in insertion
  /// order once the primary's retries are exhausted or its circuit is open).
  /// Not thread-safe: configure the chain before serving traffic.
  void AddFallbackModel(std::shared_ptr<LlmModel> model) {
    fallbacks_.push_back(std::move(model));
  }
  void set_cache_fallback(CacheFallback fallback) {
    cache_fallback_ = std::move(fallback);
  }

  common::Result<Completion> Complete(const Prompt& prompt) override {
    return CompleteMetered(prompt, nullptr);
  }
  common::Result<Completion> CompleteMetered(const Prompt& prompt,
                                             UsageMeter* meter) override;

  /// Lifetime retry accounting across all calls through this decorator — a
  /// view over the registry counters, so the legacy struct and a registry
  /// export always agree.
  UsageMeter::RetryStats stats() const {
    UsageMeter::RetryStats s;
    s.attempts = metrics_.attempts->value();
    s.retries = metrics_.retries->value();
    s.transient_errors = metrics_.transient_errors->value();
    s.fallbacks = metrics_.fallbacks->value();
    s.stale_serves = metrics_.stale_serves->value();
    s.circuit_opens = metrics_.circuit_opens->value();
    s.circuit_rejections = metrics_.circuit_rejections->value();
    s.deadline_exceeded = metrics_.deadline_exceeded->value();
    return s;
  }
  /// The registry holding this decorator's instruments.
  obs::Registry* registry() const { return registry_; }
  const CircuitBreaker& breaker() const { return breaker_; }
  /// Simulated milliseconds elapsed across all calls (latency + waits).
  /// Under concurrency this is total busy time, not a wall clock: calls in
  /// flight at once each contribute their full elapsed time.
  double clock_ms() const {
    std::lock_guard<std::mutex> lock(mu_);
    return clock_ms_;
  }

 private:
  struct Metrics {
    obs::Counter* attempts = nullptr;
    obs::Counter* retries = nullptr;
    obs::Counter* transient_errors = nullptr;
    obs::Counter* fallbacks = nullptr;
    obs::Counter* stale_serves = nullptr;
    obs::Counter* circuit_opens = nullptr;
    obs::Counter* circuit_rejections = nullptr;
    obs::Counter* deadline_exceeded = nullptr;
    /// 0 = closed, 1 = half-open, 2 = open (sampled after each call).
    obs::Gauge* breaker_state = nullptr;
  };

  /// Deterministic jitter draw in [0,1) for (this call's prompt, attempt#).
  double JitterUnit(const Prompt& prompt, size_t attempt) const;

  std::shared_ptr<LlmModel> inner_;
  Options options_;
  CircuitBreaker breaker_;
  std::vector<std::shared_ptr<LlmModel>> fallbacks_;
  CacheFallback cache_fallback_;
  std::unique_ptr<obs::Registry> owned_registry_;
  obs::Registry* registry_ = nullptr;
  Metrics metrics_;
  mutable std::mutex mu_;  // guards clock_ms_
  double clock_ms_ = 0.0;
};

}  // namespace llmdm::llm

#endif  // LLMDM_LLM_RESILIENT_H_
