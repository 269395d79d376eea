#include "core/integration/entity_resolution.h"

#include <algorithm>
#include <set>

#include "common/string_util.h"

namespace llmdm::integration {
namespace {

// Few-shot examples shown per pair (labelled match/non-match pairs).
constexpr size_t kNumExamples = 4;

}  // namespace

double MatchMetrics::Precision() const {
  size_t denom = true_positives + false_positives;
  return denom == 0 ? 0.0
                    : static_cast<double>(true_positives) /
                          static_cast<double>(denom);
}

double MatchMetrics::Recall() const {
  size_t denom = true_positives + false_negatives;
  return denom == 0 ? 0.0
                    : static_cast<double>(true_positives) /
                          static_cast<double>(denom);
}

double MatchMetrics::F1() const {
  double p = Precision();
  double r = Recall();
  return (p + r) == 0.0 ? 0.0 : 2.0 * p * r / (p + r);
}

double MatchMetrics::Accuracy() const {
  size_t total = true_positives + false_positives + true_negatives +
                 false_negatives;
  return total == 0 ? 0.0
                    : static_cast<double>(true_positives + true_negatives) /
                          static_cast<double>(total);
}

common::Result<bool> EntityResolver::Match(
    const std::string& left, const std::string& right,
    const std::vector<data::ErPair>& examples, llm::UsageMeter* meter) const {
  // Blocking: no shared token (case-folded) => cannot be a match; skip the
  // model entirely (the cost-saving step).
  if (common::TokenJaccard(left, right) == 0.0) return false;
  llm::Prompt p;
  p.task_tag = "match";
  p.instructions =
      "Are the following entity descriptions the same real-world entity? "
      "Answer yes or no.";
  for (size_t i = 0; i < std::min(kNumExamples, examples.size()); ++i) {
    p.examples.push_back({examples[i].left + " ||| " + examples[i].right,
                          examples[i].is_match ? "yes" : "no"});
  }
  p.input = left + " ||| " + right;
  LLMDM_ASSIGN_OR_RETURN(llm::Completion c, model_->CompleteMetered(p, meter));
  return c.text == "yes";
}

common::Result<MatchMetrics> EntityResolver::Evaluate(
    const std::vector<data::ErPair>& workload,
    const std::vector<data::ErPair>& examples, llm::UsageMeter* meter) const {
  MatchMetrics metrics;
  for (const data::ErPair& pair : workload) {
    LLMDM_ASSIGN_OR_RETURN(bool predicted,
                           Match(pair.left, pair.right, examples, meter));
    if (predicted && pair.is_match) ++metrics.true_positives;
    else if (predicted && !pair.is_match) ++metrics.false_positives;
    else if (!predicted && !pair.is_match) ++metrics.true_negatives;
    else ++metrics.false_negatives;
  }
  return metrics;
}

common::Result<std::vector<SchemaMatch>> SchemaMatcher::MatchSchemas(
    const data::Table& left, const data::Table& right,
    llm::UsageMeter* meter) const {
  // Serialize a column as "name: v1, v2, v3" (sample of distinct values).
  auto describe = [](const data::Table& t, size_t col) {
    std::string out = t.schema().column(col).name + ":";
    std::set<std::string> seen;
    for (size_t r = 0; r < t.NumRows() && seen.size() < 3; ++r) {
      const data::Value& v = t.at(r, col);
      if (v.is_null()) continue;
      if (seen.insert(v.ToString()).second) out += " " + v.ToString();
    }
    return out;
  };

  std::vector<SchemaMatch> candidates;
  for (size_t lc = 0; lc < left.NumColumns(); ++lc) {
    for (size_t rc = 0; rc < right.NumColumns(); ++rc) {
      // Type-compatibility pre-filter: numeric matches numeric, text text.
      auto type_class = [](data::ColumnType t) {
        switch (t) {
          case data::ColumnType::kInt64:
          case data::ColumnType::kDouble:
            return 0;
          case data::ColumnType::kText:
            return 1;
          case data::ColumnType::kBool:
            return 2;
          case data::ColumnType::kDate:
            return 3;
          default:
            return 4;
        }
      };
      if (type_class(left.schema().column(lc).type) !=
          type_class(right.schema().column(rc).type)) {
        continue;
      }
      llm::Prompt p;
      p.task_tag = "match";
      p.instructions =
          "Do these two columns describe the same attribute? yes or no.";
      p.input = describe(left, lc) + " ||| " + describe(right, rc);
      LLMDM_ASSIGN_OR_RETURN(llm::Completion c,
                             model_->CompleteMetered(p, meter));
      if (c.text == "yes") {
        candidates.push_back(SchemaMatch{left.schema().column(lc).name,
                                         right.schema().column(rc).name,
                                         c.confidence});
      }
    }
  }
  // Greedy 1:1 assignment by confidence.
  std::sort(candidates.begin(), candidates.end(),
            [](const SchemaMatch& a, const SchemaMatch& b) {
              return a.score > b.score;
            });
  std::set<std::string> used_left, used_right;
  std::vector<SchemaMatch> out;
  for (SchemaMatch& m : candidates) {
    if (used_left.count(m.left_column) || used_right.count(m.right_column)) {
      continue;
    }
    used_left.insert(m.left_column);
    used_right.insert(m.right_column);
    out.push_back(std::move(m));
  }
  return out;
}

}  // namespace llmdm::integration
