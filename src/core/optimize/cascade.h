#ifndef LLMDM_CORE_OPTIMIZE_CASCADE_H_
#define LLMDM_CORE_OPTIMIZE_CASCADE_H_

#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "llm/model.h"
#include "obs/metrics.h"

namespace llmdm::optimize {

/// Decision record for one rung of the cascade.
struct CascadeStep {
  std::string model;
  std::string answer;        // majority answer at this rung
  double agreement = 0.0;    // self-consistency agreement in [0,1]
  double confidence = 0.0;   // blended decision score
  bool accepted = false;
  /// The rung's endpoint failed on every sample; the cascade skipped it and
  /// moved on (`error` holds the last status). A partially-failed rung is
  /// not marked failed: the surviving samples still vote.
  bool failed = false;
  std::string error;
  size_t samples_failed = 0;
};

/// Final outcome of a cascaded query.
struct CascadeResult {
  std::string answer;
  std::string model;  // the rung that was accepted
  common::Money cost; // across all rungs and samples
  size_t total_calls = 0;
  std::vector<CascadeStep> trace;
  size_t rungs_failed = 0;
  /// No rung cleared the acceptance bar (the top rung was down), so the
  /// best-scoring surviving answer was returned instead of an error.
  bool degraded = false;
  /// The prompt's request-wide deadline ran out mid-cascade, so escalation
  /// stopped early (the best answer so far was returned, degraded).
  bool deadline_stopped = false;
};

/// The LLM cascade of Fig. 6 / Table I: a query visits models from cheap to
/// expensive; a decision model accepts a rung's answer or escalates.
///
/// The decision model is self-consistency based: each rung draws three
/// independent completions (distinct sample salts) and scores its answer as
/// 0.7 * majority agreement + 0.3 * the model's mean reported confidence;
/// the answer is accepted when the score clears `accept_threshold`. The last
/// rung always accepts (there is nothing bigger to escalate to).
class LlmCascade {
 public:
  struct Options {
    double accept_threshold = 0.7;
    /// Metrics registry for the cascade's per-rung instruments (labelled
    /// rung=<index>, model=<name>). Null gives this instance a private
    /// registry.
    obs::Registry* registry = nullptr;
  };

  /// `ladder` must be ordered from cheapest/smallest to priciest/largest.
  LlmCascade(std::vector<std::shared_ptr<llm::LlmModel>> ladder,
             const Options& options)
      : ladder_(std::move(ladder)), options_(options) {
    if (options_.registry != nullptr) {
      registry_ = options_.registry;
    } else {
      owned_registry_ = std::make_unique<obs::Registry>();
      registry_ = owned_registry_.get();
    }
    metrics_.queries = registry_->GetCounter("llmdm_cascade_queries_total");
    metrics_.degraded = registry_->GetCounter("llmdm_cascade_degraded_total");
    metrics_.deadline_stops =
        registry_->GetCounter("llmdm_cascade_deadline_stops_total");
    metrics_.rungs.reserve(ladder_.size());
    for (size_t i = 0; i < ladder_.size(); ++i) {
      const obs::Labels labels{{"rung", std::to_string(i)},
                               {"model", ladder_[i]->name()}};
      RungMetrics rung;
      rung.visits =
          registry_->GetCounter("llmdm_cascade_rung_visits_total", labels);
      rung.accepts =
          registry_->GetCounter("llmdm_cascade_rung_accepts_total", labels);
      rung.failures =
          registry_->GetCounter("llmdm_cascade_rung_failures_total", labels);
      rung.calls =
          registry_->GetCounter("llmdm_cascade_rung_calls_total", labels);
      metrics_.rungs.push_back(rung);
    }
  }

  /// Runs the cascade on one prompt. Usage (including the rejected rungs'
  /// spend — escalation is not free) is recorded into `meter` if non-null.
  /// A rung whose endpoint fails is skipped (recorded in the trace), not
  /// fatal; Run only errors when every rung fails to produce any answer.
  /// If the prompt carries an llm::Deadline, the cascade stops escalating
  /// once the budget is exhausted: the best sub-threshold answer seen so far
  /// is returned (degraded, deadline_stopped), or Timeout if there is none.
  common::Result<CascadeResult> Run(const llm::Prompt& prompt,
                                    llm::UsageMeter* meter = nullptr) const;

  const Options& options() const { return options_; }
  void set_accept_threshold(double t) { options_.accept_threshold = t; }
  /// The registry holding the cascade's instruments.
  obs::Registry* registry() const { return registry_; }

 private:
  struct RungMetrics {
    obs::Counter* visits = nullptr;    // rung attempted
    obs::Counter* accepts = nullptr;   // rung's answer accepted
    obs::Counter* failures = nullptr;  // every sample failed, rung skipped
    obs::Counter* calls = nullptr;     // successful samples
  };
  struct Metrics {
    obs::Counter* queries = nullptr;
    obs::Counter* degraded = nullptr;
    obs::Counter* deadline_stops = nullptr;
    std::vector<RungMetrics> rungs;  // parallel to ladder_
  };

  std::vector<std::shared_ptr<llm::LlmModel>> ladder_;
  Options options_;
  std::unique_ptr<obs::Registry> owned_registry_;
  obs::Registry* registry_ = nullptr;
  Metrics metrics_;
};

/// Picks the acceptance threshold that maximizes `accuracy - cost_weight *
/// normalized_cost` over a labelled calibration set of (decision_score,
/// was_correct, escalation_cost_ratio) samples. This is the "decision model
/// can be trained" knob of Sec. III-B.1, reduced to its essential form:
/// choosing the operating point on the accept/escalate curve.
struct CalibrationSample {
  double score = 0.0;
  bool correct = false;
};

double CalibrateAcceptThreshold(const std::vector<CalibrationSample>& samples,
                                double escalation_accuracy,
                                double escalation_cost_ratio);

}  // namespace llmdm::optimize

#endif  // LLMDM_CORE_OPTIMIZE_CASCADE_H_
