#ifndef LLMDM_CORE_INTEGRATION_ENTITY_RESOLUTION_H_
#define LLMDM_CORE_INTEGRATION_ENTITY_RESOLUTION_H_

#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "data/tabular_gen.h"
#include "llm/model.h"

namespace llmdm::integration {

/// Classification quality of a matcher run.
struct MatchMetrics {
  size_t true_positives = 0;
  size_t false_positives = 0;
  size_t true_negatives = 0;
  size_t false_negatives = 0;

  double Precision() const;
  double Recall() const;
  double F1() const;
  double Accuracy() const;
};

/// LLM-prompted entity resolution (Sec. II-C.1): the paper's "are the
/// following entity descriptions the same real-world entity?" prompt, with
/// token-based blocking in front so obvious non-pairs never reach the model
/// (the standard cost-control in deep ER systems).
class EntityResolver {
 public:
  explicit EntityResolver(std::shared_ptr<llm::LlmModel> model)
      : model_(std::move(model)) {}

  /// Classifies one pair.
  common::Result<bool> Match(const std::string& left, const std::string& right,
                             const std::vector<data::ErPair>& examples,
                             llm::UsageMeter* meter = nullptr) const;

  /// Runs the full workload and scores against the gold labels.
  common::Result<MatchMetrics> Evaluate(
      const std::vector<data::ErPair>& workload,
      const std::vector<data::ErPair>& examples,
      llm::UsageMeter* meter = nullptr) const;

 private:
  std::shared_ptr<llm::LlmModel> model_;
};

/// One proposed column correspondence between two schemas.
struct SchemaMatch {
  std::string left_column;
  std::string right_column;
  double score = 0.0;
};

/// Schema matching (Sec. II-C.1): candidate pairs are pre-filtered by type
/// compatibility and ranked by an LLM match prompt over
/// "name: values sample" serializations; a greedy 1:1 assignment keeps the
/// best-scoring consistent mapping.
class SchemaMatcher {
 public:
  explicit SchemaMatcher(std::shared_ptr<llm::LlmModel> model)
      : model_(std::move(model)) {}

  common::Result<std::vector<SchemaMatch>> MatchSchemas(
      const data::Table& left, const data::Table& right,
      llm::UsageMeter* meter = nullptr) const;

 private:
  std::shared_ptr<llm::LlmModel> model_;
};

}  // namespace llmdm::integration

#endif  // LLMDM_CORE_INTEGRATION_ENTITY_RESOLUTION_H_
