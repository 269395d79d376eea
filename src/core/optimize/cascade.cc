#include "core/optimize/cascade.h"

#include <algorithm>
#include <map>

#include "common/string_util.h"
#include "llm/deadline.h"
#include "llm/prompt.h"
#include "obs/trace.h"

namespace llmdm::optimize {
namespace {

// Completions drawn per rung below the top one.
constexpr size_t kConsistencySamples = 3;
// Weight of majority agreement against mean reported confidence in a
// rung's decision score.
constexpr double kAgreementWeight = 0.7;

}  // namespace

common::Result<CascadeResult> LlmCascade::Run(const llm::Prompt& prompt,
                                              llm::UsageMeter* meter) const {
  if (ladder_.empty()) {
    return common::Status::FailedPrecondition("cascade has no models");
  }
  metrics_.queries->Add(1);
  // Rung spans are anchored at the enclosing span's start and advanced by
  // the samples' simulated latencies, mirroring how ResilientLlm keeps its
  // local span clock.
  obs::TraceContext* trace = prompt.trace.get();
  double span_base = 0.0;
  double elapsed_ms = 0.0;
  if (trace != nullptr) span_base = trace->SpanStart(prompt.trace_parent);
  CascadeResult result;
  // Best sub-threshold answer seen so far, kept for graceful degradation
  // when the rungs that would normally accept are down.
  double best_fallback_score = -1.0;
  std::string best_fallback_answer, best_fallback_model;
  common::Status last_error =
      common::Status::Unavailable("cascade made no calls");
  for (size_t rung = 0; rung < ladder_.size(); ++rung) {
    if (rung > 0 && prompt.deadline != nullptr && prompt.deadline->Exhausted()) {
      // The request-wide budget ran out mid-ladder. Escalating further would
      // only make the answer later; settle for the best candidate so far.
      result.deadline_stopped = true;
      metrics_.deadline_stops->Add(1);
      last_error = common::Status::Timeout(
          "request deadline exhausted before cascade rung " +
          std::to_string(rung));
      break;
    }
    llm::LlmModel& model = *ladder_[rung];
    metrics_.rungs[rung].visits->Add(1);
    obs::Span* rung_span = nullptr;
    if (trace != nullptr) {
      rung_span = trace->StartSpan("cascade_rung:" + model.name(),
                                   span_base + elapsed_ms, prompt.trace_parent);
    }
    // Self-consistency: independent draws via distinct sample salts. The
    // final rung accepts unconditionally, so it takes a single sample —
    // paying 3x the most expensive model would erase the cascade's saving.
    const size_t samples =
        (rung + 1 == ladder_.size()) ? 1 : kConsistencySamples;
    std::map<std::string, size_t> votes;
    double confidence_sum = 0.0;
    std::string first_completion;
    size_t samples_ok = 0;
    CascadeStep step;
    step.model = model.name();
    for (size_t s = 0; s < samples; ++s) {
      llm::Prompt sampled = prompt;
      sampled.sample_salt = prompt.sample_salt * 101 + s;
      sampled.trace_parent = rung_span;
      auto c = model.CompleteMetered(sampled, meter);
      if (!c.ok()) {
        // The spend of the samples that did succeed is already counted;
        // the surviving votes still participate below.
        ++step.samples_failed;
        last_error = c.status();
        step.error = c.status().ToString();
        continue;
      }
      result.cost += c->cost;
      ++result.total_calls;
      metrics_.rungs[rung].calls->Add(1);
      elapsed_ms += c->latency_ms;
      ++votes[c->text];
      confidence_sum += c->confidence;
      if (samples_ok == 0) first_completion = c->text;
      ++samples_ok;
    }
    if (samples_ok == 0) {
      // Every sample failed: skip the rung and escalate past it.
      step.failed = true;
      ++result.rungs_failed;
      metrics_.rungs[rung].failures->Add(1);
      if (rung_span != nullptr) {
        trace->SetAttr(rung_span, "result", "failed");
        trace->EndSpan(rung_span, span_base + elapsed_ms);
      }
      result.trace.push_back(std::move(step));
      continue;
    }
    // Majority answer (ties break toward the first sample: temperature-0
    // behaviour). Agreement is judged over the *requested* sample count, so
    // a rung that lost votes to failures needs the survivors to be
    // unanimous-and-then-some to clear the same bar.
    std::string majority = first_completion;
    size_t best = votes[first_completion];
    for (const auto& [answer, n] : votes) {
      if (n > best) {
        best = n;
        majority = answer;
      }
    }
    double agreement = static_cast<double>(best) /
                       static_cast<double>(samples);
    double mean_confidence =
        confidence_sum / static_cast<double>(samples_ok);
    double score = kAgreementWeight * agreement +
                   (1.0 - kAgreementWeight) * mean_confidence;

    step.answer = majority;
    step.agreement = agreement;
    step.confidence = score;
    step.accepted =
        (score >= options_.accept_threshold) || (rung + 1 == ladder_.size());
    if (rung_span != nullptr) {
      trace->SetAttr(rung_span, "result",
                     step.accepted ? "accepted" : "escalated");
      trace->SetAttr(rung_span, "score", common::StrFormat("%.3f", score));
      trace->EndSpan(rung_span, span_base + elapsed_ms);
    }
    result.trace.push_back(step);
    if (step.accepted) {
      result.answer = majority;
      result.model = model.name();
      metrics_.rungs[rung].accepts->Add(1);
      return result;
    }
    if (score > best_fallback_score) {
      best_fallback_score = score;
      best_fallback_answer = majority;
      best_fallback_model = model.name();
    }
  }
  if (best_fallback_score >= 0.0) {
    // No rung accepted (the unconditional-accept top rung must have
    // failed): answer anyway with the best rejected candidate.
    result.answer = best_fallback_answer;
    result.model = best_fallback_model;
    result.degraded = true;
    metrics_.degraded->Add(1);
    return result;
  }
  return last_error;
}

double CalibrateAcceptThreshold(const std::vector<CalibrationSample>& samples,
                                double escalation_accuracy,
                                double escalation_cost_ratio) {
  if (samples.empty()) return 0.7;
  // Candidate thresholds: every observed score (plus the extremes). For each
  // candidate, accepted answers keep their own correctness; rejected ones pay
  // the escalation cost and get the bigger model's accuracy.
  std::vector<double> candidates{0.0, 1.01};
  for (const CalibrationSample& s : samples) candidates.push_back(s.score);
  std::sort(candidates.begin(), candidates.end());

  double best_threshold = 0.7;
  double best_utility = -1e18;
  for (double t : candidates) {
    double accuracy = 0.0;
    double cost = 0.0;
    for (const CalibrationSample& s : samples) {
      if (s.score >= t) {
        accuracy += s.correct ? 1.0 : 0.0;
        cost += 1.0;
      } else {
        accuracy += escalation_accuracy;
        cost += 1.0 + escalation_cost_ratio;
      }
    }
    accuracy /= static_cast<double>(samples.size());
    cost /= static_cast<double>(samples.size()) * (1.0 + escalation_cost_ratio);
    // Utility trades accuracy against normalized cost; the 0.25 weight keeps
    // accuracy primary, matching how Table I reads the result.
    double utility = accuracy - 0.25 * cost;
    if (utility > best_utility) {
      best_utility = utility;
      best_threshold = t;
    }
  }
  return best_threshold;
}

}  // namespace llmdm::optimize
