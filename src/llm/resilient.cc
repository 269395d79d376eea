#include "llm/resilient.h"

#include <algorithm>

#include "common/hash.h"
#include "common/string_util.h"
#include "llm/deadline.h"
#include "llm/prompt.h"
#include "obs/trace.h"

namespace llmdm::llm {

namespace {
// Circuit breaker: rolling outcomes considered, the failure rate that opens
// it, how long it stays open, and the probes needed to close it again.
constexpr size_t kWindow = 16;
constexpr double kFailureThreshold = 0.5;
constexpr double kOpenCooldownMs = 2000.0;
constexpr size_t kHalfOpenSuccesses = 2;
// Each retry's backoff is twice the last one's, up to this cap, then
// stretched by up to kJitter, a fraction drawn from the seed.
constexpr double kMaxBackoffMs = 4000.0;
constexpr double kJitter = 0.25;
// Per-logical-call budget over simulated latency + backoff.
constexpr double kCallDeadlineMs = 20000.0;
// Simulated wall time burned when the endpoint times out (a real client
// waits out its socket timeout before retrying).
constexpr double kTimeoutWaitMs = 1000.0;
}  // namespace

double CircuitBreaker::FailureRate() const {
  if (outcomes_.empty()) return 0.0;
  size_t failures = 0;
  for (bool failed : outcomes_) failures += failed ? 1 : 0;
  return static_cast<double>(failures) /
         static_cast<double>(outcomes_.size());
}

void CircuitBreaker::Open(double now_ms) {
  state_ = State::kOpen;
  opened_at_ms_ = now_ms;
  half_open_successes_ = 0;
  ++times_opened_;
}

bool CircuitBreaker::Allow(double now_ms) {
  std::lock_guard<std::mutex> lock(mu_);
  if (state_ == State::kOpen) {
    if (now_ms - opened_at_ms_ >= kOpenCooldownMs) {
      state_ = State::kHalfOpen;
      half_open_successes_ = 0;
      return true;
    }
    return false;
  }
  return true;
}

void CircuitBreaker::RecordSuccess(double) {
  std::lock_guard<std::mutex> lock(mu_);
  if (state_ == State::kHalfOpen) {
    if (++half_open_successes_ >= kHalfOpenSuccesses) {
      state_ = State::kClosed;
      outcomes_.clear();
    }
    return;
  }
  outcomes_.push_back(false);
  if (outcomes_.size() > kWindow) outcomes_.pop_front();
}

void CircuitBreaker::RecordFailure(double now_ms) {
  std::lock_guard<std::mutex> lock(mu_);
  if (state_ == State::kHalfOpen) {
    // The probe failed: the endpoint is still down.
    Open(now_ms);
    return;
  }
  outcomes_.push_back(true);
  if (outcomes_.size() > kWindow) outcomes_.pop_front();
  if (state_ == State::kClosed && outcomes_.size() >= options_.min_samples &&
      FailureRate() >= kFailureThreshold) {
    Open(now_ms);
  }
}

double ResilientLlm::JitterUnit(const Prompt& prompt, size_t attempt) const {
  uint64_t h = common::Fnv1a(prompt.input, options_.seed ^ 0x5E11EBCull);
  h = common::HashCombine(h, prompt.sample_salt);
  h = common::HashCombine(h, attempt);
  return common::HashToUnit(h);
}

common::Result<Completion> ResilientLlm::CompleteMetered(const Prompt& prompt,
                                                         UsageMeter* meter) {
  UsageMeter::RetryStats call;
  const size_t opens_before = breaker_.times_opened();
  // All time accounting for this call is local; the shared clock only sees
  // one merged update at the end. Breaker timestamps are anchored at the
  // shared clock's value when the call started — approximate under
  // concurrency, but the breaker only needs "roughly now" for cooldowns.
  const double clock_base = clock_ms();
  double elapsed_ms = 0.0;
  // The tighter of the per-call budget and the request-wide deadline (if the
  // prompt carries one) governs this call.
  double deadline_ms = kCallDeadlineMs;
  if (prompt.deadline != nullptr) {
    deadline_ms = std::min(deadline_ms, prompt.deadline->remaining_ms());
  }
  common::Status last_error =
      common::Status::Unavailable("no attempt made for " + name());
  std::optional<Completion> degraded;  // truncated answer kept as last resort

  // Span accounting: the call's spans are anchored at the parent span's
  // start, and child offsets follow this call's local elapsed clock, so
  // the tree is exactly as deterministic as the virtual-time workload.
  obs::TraceContext* trace = prompt.trace.get();
  obs::Span* call_span = nullptr;
  double span_base = 0.0;
  if (trace != nullptr) {
    span_base = trace->SpanStart(prompt.trace_parent);
    call_span =
        trace->StartSpan("resilient:" + name(), span_base, prompt.trace_parent);
  }
  const char* outcome = "error";

  auto finalize = [&]() {
    call.circuit_opens = breaker_.times_opened() - opens_before;
    metrics_.attempts->Add(call.attempts);
    metrics_.retries->Add(call.retries);
    metrics_.transient_errors->Add(call.transient_errors);
    metrics_.fallbacks->Add(call.fallbacks);
    metrics_.stale_serves->Add(call.stale_serves);
    metrics_.circuit_opens->Add(call.circuit_opens);
    metrics_.circuit_rejections->Add(call.circuit_rejections);
    metrics_.deadline_exceeded->Add(call.deadline_exceeded);
    metrics_.breaker_state->Set(static_cast<int64_t>(breaker_.state()));
    if (call_span != nullptr) {
      trace->SetAttr(call_span, "attempts", std::to_string(call.attempts));
      trace->SetAttr(call_span, "retries", std::to_string(call.retries));
      trace->SetAttr(call_span, "outcome", outcome);
      trace->EndSpan(call_span, span_base + elapsed_ms);
    }
    {
      std::lock_guard<std::mutex> lock(mu_);
      clock_ms_ += elapsed_ms;
    }
    if (meter != nullptr) meter->RecordRetry(name(), call);
  };

  const RetryPolicy& retry = options_.retry;
  for (size_t attempt = 0; attempt < retry.max_attempts; ++attempt) {
    if (attempt > 0) {
      double backoff = retry.initial_backoff_ms;
      for (size_t i = 1; i < attempt; ++i) backoff *= 2.0;
      backoff = std::min(backoff, kMaxBackoffMs);
      backoff *= 1.0 + kJitter * JitterUnit(prompt, attempt);
      if (call_span != nullptr) {
        obs::Span* b = trace->StartSpan("backoff", span_base + elapsed_ms,
                                        call_span);
        trace->EndSpan(b, span_base + elapsed_ms + backoff);
      }
      elapsed_ms += backoff;
      if (prompt.deadline != nullptr) prompt.deadline->Charge(backoff);
      if (elapsed_ms > deadline_ms) {
        ++call.deadline_exceeded;
        last_error = common::Status::Timeout(common::StrFormat(
            "deadline %.0fms exhausted backing off for %s", deadline_ms,
            name().c_str()));
        break;
      }
      ++call.retries;
    }
    if (!breaker_.Allow(clock_base + elapsed_ms)) {
      ++call.circuit_rejections;
      outcome = "circuit_open";
      last_error = common::Status::Unavailable(
          "circuit open for " + name());
      break;
    }
    ++call.attempts;
    obs::Span* attempt_span = nullptr;
    if (call_span != nullptr) {
      attempt_span = trace->StartSpan("attempt", span_base + elapsed_ms,
                                      call_span);
    }
    auto end_attempt = [&](std::string result_attr) {
      if (attempt_span != nullptr) {
        trace->SetAttr(attempt_span, "result", std::move(result_attr));
        trace->EndSpan(attempt_span, span_base + elapsed_ms);
      }
    };
    auto result = inner_->CompleteMetered(prompt, meter);
    if (result.ok()) {
      elapsed_ms += result->latency_ms;
      if (elapsed_ms > deadline_ms) {
        // The model answered, but slower than the caller's budget — the
        // ModelSpec latency bound is enforced here. Retrying the same model
        // cannot get faster, so go straight to the fallback chain.
        breaker_.RecordFailure(clock_base + elapsed_ms);
        ++call.transient_errors;
        ++call.deadline_exceeded;
        end_attempt("deadline_exceeded");
        last_error = common::Status::Timeout(common::StrFormat(
            "%s took %.0fms against a %.0fms deadline", name().c_str(),
            elapsed_ms, deadline_ms));
        break;
      }
      if (result->truncated) {
        breaker_.RecordFailure(clock_base + elapsed_ms);
        ++call.transient_errors;
        end_attempt("truncated");
        degraded = *result;  // better a clipped answer than none
        last_error = common::Status::Unavailable(
            "completion truncated by " + name());
        continue;
      }
      breaker_.RecordSuccess(clock_base + elapsed_ms);
      end_attempt("ok");
      outcome = "ok";
      finalize();
      return result;
    }
    last_error = result.status();
    breaker_.RecordFailure(clock_base + elapsed_ms);
    ++call.transient_errors;
    if (last_error.code() == common::StatusCode::kTimeout) {
      // A timed-out request burned real wall time before failing.
      elapsed_ms += kTimeoutWaitMs;
      if (prompt.deadline != nullptr) prompt.deadline->Charge(kTimeoutWaitMs);
    }
    end_attempt(std::string(common::StatusCodeName(last_error.code())));
    if (!common::IsTransientError(last_error.code())) break;  // permanent
  }

  // Retries exhausted (or circuit open / deadline blown): degrade through
  // the fallback chain rather than failing the whole query.
  for (const auto& fallback : fallbacks_) {
    obs::Span* fb_span = nullptr;
    if (call_span != nullptr) {
      fb_span = trace->StartSpan("fallback:" + fallback->name(),
                                 span_base + elapsed_ms, call_span);
    }
    auto result = fallback->CompleteMetered(prompt, meter);
    if (result.ok()) {
      elapsed_ms += result->latency_ms;
      ++call.fallbacks;
      if (fb_span != nullptr) {
        trace->SetAttr(fb_span, "result", "ok");
        trace->EndSpan(fb_span, span_base + elapsed_ms);
      }
      outcome = "fallback";
      finalize();
      return result;
    }
    last_error = result.status();
    if (fb_span != nullptr) {
      trace->SetAttr(fb_span, "result", "error");
      trace->EndSpan(fb_span, span_base + elapsed_ms);
    }
  }
  if (cache_fallback_) {
    if (std::optional<Completion> hit = cache_fallback_(prompt)) {
      ++call.stale_serves;
      if (call_span != nullptr) {
        obs::Span* stale = trace->StartSpan("stale_serve",
                                            span_base + elapsed_ms, call_span);
        trace->EndSpan(stale, span_base + elapsed_ms);
      }
      outcome = "stale";
      finalize();
      return *hit;
    }
  }
  if (degraded.has_value()) {
    outcome = "degraded";
    finalize();
    return *degraded;
  }
  finalize();
  return last_error;
}

}  // namespace llmdm::llm
