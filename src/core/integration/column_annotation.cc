#include "core/integration/column_annotation.h"

#include "common/string_util.h"

namespace llmdm::integration {
namespace {

// Labelled example columns shown per prompt.
constexpr size_t kNumExamples = 4;

}  // namespace

common::Result<std::string> ColumnTypeAnnotator::Annotate(
    const std::vector<std::string>& values,
    const std::vector<data::CtaExample>& examples,
    llm::UsageMeter* meter) const {
  llm::Prompt p;
  p.task_tag = "cta";
  std::string labels = common::Join(data::CtaLabels(), ", ");
  p.instructions = "Given the following column types: " + labels +
                   ". Predict the column type from the column values.";
  for (size_t i = 0; i < std::min(kNumExamples, examples.size()); ++i) {
    p.examples.push_back(
        {common::Join(examples[i].values, "||"), examples[i].label});
  }
  p.input = common::Join(values, "||");
  LLMDM_ASSIGN_OR_RETURN(llm::Completion c, model_->CompleteMetered(p, meter));
  return c.text;
}

common::Result<double> ColumnTypeAnnotator::Evaluate(
    const std::vector<data::CtaExample>& workload,
    const std::vector<data::CtaExample>& examples,
    llm::UsageMeter* meter) const {
  if (workload.empty()) return 0.0;
  size_t correct = 0;
  for (const data::CtaExample& item : workload) {
    LLMDM_ASSIGN_OR_RETURN(std::string predicted,
                           Annotate(item.values, examples, meter));
    if (predicted == item.label) ++correct;
  }
  return static_cast<double>(correct) / static_cast<double>(workload.size());
}

}  // namespace llmdm::integration
