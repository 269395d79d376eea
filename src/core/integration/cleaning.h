#ifndef LLMDM_CORE_INTEGRATION_CLEANING_H_
#define LLMDM_CORE_INTEGRATION_CLEANING_H_

#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "core/transform/column_pattern.h"
#include "data/table.h"
#include "llm/model.h"

namespace llmdm::integration {

/// One detected data-quality issue.
struct QualityIssue {
  enum class Kind { kNull, kPatternMismatch, kNumericOutlier };
  Kind kind;
  size_t row = 0;
  std::string column;
  std::string value;  // offending value ("" for NULL)
};

/// Pattern/statistics-driven data cleaning (Sec. II-C.1): detects NULLs,
/// values breaking the column's mined format pattern, and 3-sigma numeric
/// outliers; repairs reformat pattern violations with a synthesized column
/// transform and fill NULLs via LLM ICL (the annotator's mechanism).
class DataCleaner {
 public:
  explicit DataCleaner(std::shared_ptr<llm::LlmModel> model)
      : model_(std::move(model)) {}

  /// Detection only: all issues found in `table`.
  std::vector<QualityIssue> Detect(const data::Table& table) const;

  struct RepairReport {
    size_t issues_found = 0;
    size_t nulls_filled = 0;
    size_t values_reformatted = 0;
    size_t unresolved = 0;
  };

  /// Detect + repair in place.
  common::Result<RepairReport> Repair(data::Table* table,
                                      llm::UsageMeter* meter = nullptr) const;

 private:
  std::shared_ptr<llm::LlmModel> model_;
};

}  // namespace llmdm::integration

#endif  // LLMDM_CORE_INTEGRATION_CLEANING_H_
