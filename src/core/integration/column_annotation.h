#ifndef LLMDM_CORE_INTEGRATION_COLUMN_ANNOTATION_H_
#define LLMDM_CORE_INTEGRATION_COLUMN_ANNOTATION_H_

#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "data/tabular_gen.h"
#include "llm/model.h"

namespace llmdm::integration {

/// Column type annotation via few-shot prompting (Sec. II-C.1). The prompt
/// is the paper's own pattern: "Given the following column types: ... (1)
/// USA||UK||France, this column type is country. ... Basketball||Badminton,
/// this column type is __".
class ColumnTypeAnnotator {
 public:
  explicit ColumnTypeAnnotator(std::shared_ptr<llm::LlmModel> model)
      : model_(std::move(model)) {}

  /// Predicts the type label for a column's values.
  common::Result<std::string> Annotate(
      const std::vector<std::string>& values,
      const std::vector<data::CtaExample>& examples,
      llm::UsageMeter* meter = nullptr) const;

  /// Accuracy over a labelled workload.
  common::Result<double> Evaluate(
      const std::vector<data::CtaExample>& workload,
      const std::vector<data::CtaExample>& examples,
      llm::UsageMeter* meter = nullptr) const;

 private:
  std::shared_ptr<llm::LlmModel> model_;
};

}  // namespace llmdm::integration

#endif  // LLMDM_CORE_INTEGRATION_COLUMN_ANNOTATION_H_
