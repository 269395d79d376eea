#ifndef LLMDM_CORE_TRANSFORM_PIPELINE_REC_H_
#define LLMDM_CORE_TRANSFORM_PIPELINE_REC_H_

#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "data/table.h"
#include "llm/model.h"
#include "ml/logistic.h"

namespace llmdm::transform {

/// Data-preparation operators (Sec. II-B.4). Each transforms a feature table
/// ahead of training a downstream classifier.
enum class PrepOp {
  kImputeMean,       // NULL numeric cells -> column mean
  kStandardize,      // zero mean / unit variance
  kClipOutliers,     // winsorize at mean +/- 3 sigma
  kDropLowVariance,  // remove near-constant feature columns
  kAddInteractions,  // pairwise products of the top-2 variance features
};

/// Applies one operator to a copy of `table` (label column untouched).
common::Result<data::Table> ApplyPrepOp(const data::Table& table,
                                        const std::string& label_column,
                                        PrepOp op);

/// One candidate pipeline and its measured downstream quality.
struct PipelineCandidate {
  std::vector<PrepOp> ops;
  double holdout_accuracy = 0.0;
};

/// Recommends a data-preparation pipeline by beam search over operator
/// sequences, scoring each candidate by the holdout accuracy of a logistic
/// model trained on the transformed table. An LLM (optional) prunes the
/// operator set up front from a profile of the data — the paper's "LLMs
/// recommend candidate pipelines to shrink the search space".
class PipelineRecommender {
 public:
  struct Options {
    size_t beam_width = 3;
    size_t max_depth = 3;
    double holdout_fraction = 0.3;
    uint64_t seed = 99;
    /// When set, an LLM call is made with the data profile; its metered cost
    /// models the recommendation step (the simulated model returns a
    /// deterministic acknowledgement; pruning itself is profile-driven).
    std::shared_ptr<llm::LlmModel> advisor;
  };

  explicit PipelineRecommender(const Options& options) : options_(options) {}

  /// Returns candidates sorted best-first; front() is the recommendation.
  common::Result<std::vector<PipelineCandidate>> Recommend(
      const data::Table& table, const std::string& label_column,
      llm::UsageMeter* meter = nullptr) const;

 private:
  double Evaluate(const data::Table& table, const std::string& label_column)
      const;

  Options options_;
};

}  // namespace llmdm::transform

#endif  // LLMDM_CORE_TRANSFORM_PIPELINE_REC_H_
