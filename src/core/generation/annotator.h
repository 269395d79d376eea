#ifndef LLMDM_CORE_GENERATION_ANNOTATOR_H_
#define LLMDM_CORE_GENERATION_ANNOTATOR_H_

#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "data/table.h"
#include "llm/model.h"

namespace llmdm::generation {

/// Fills missing fields in tabular data via few-shot ICL (Sec. II-A.2):
/// complete rows are serialized as natural language examples, incomplete
/// rows are completed by the model, and predictions are parsed back into
/// typed cells.
class MissingFieldAnnotator {
 public:
  explicit MissingFieldAnnotator(std::shared_ptr<llm::LlmModel> model)
      : model_(std::move(model)) {}

  struct Report {
    size_t missing = 0;
    size_t filled = 0;
    size_t unparseable = 0;  // model output didn't fit the column type
  };

  /// Fills NULLs in `column` of `table` in place.
  common::Result<Report> Annotate(data::Table* table,
                                  const std::string& column,
                                  llm::UsageMeter* meter = nullptr);

 private:
  std::shared_ptr<llm::LlmModel> model_;
};

/// Generates a synthetic table mimicking `real`'s marginal distributions via
/// the model's tabular_generate skill (Sec. II-A.2, footnote 1: synthetic
/// data as a privacy-safe replacement training set).
class TabularSynthesizer {
 public:
  explicit TabularSynthesizer(std::shared_ptr<llm::LlmModel> model)
      : model_(std::move(model)) {}

  common::Result<data::Table> Synthesize(const data::Table& real,
                                         size_t num_rows,
                                         llm::UsageMeter* meter = nullptr);

 private:
  std::shared_ptr<llm::LlmModel> model_;
};

}  // namespace llmdm::generation

#endif  // LLMDM_CORE_GENERATION_ANNOTATOR_H_
