#ifndef LLMDM_CORE_TRANSFORM_NL2SQL_H_
#define LLMDM_CORE_TRANSFORM_NL2SQL_H_

#include <memory>
#include <string>

#include "common/result.h"
#include "core/optimize/prompt_store.h"
#include "llm/model.h"
#include "sql/database.h"

namespace llmdm::transform {

/// Outcome of one NL->SQL translation.
struct Nl2SqlResult {
  std::string sql;
  bool used_decomposition = false;
  bool parse_valid = false;    // predicted SQL parses
  bool executed = false;       // predicted SQL executed without error
  data::Table result;          // execution output when executed
};

/// Schema-aware NL2SQL engine (Sec. II-B.1): prompt = schema description +
/// similarity-selected historical examples + question; chain-of-thought
/// fallback decomposes a compound question into atomic sub-questions,
/// translates each, and recombines with set algebra when the direct attempt
/// produces invalid SQL.
class Nl2SqlEngine {
 public:
  /// `store` may be null (no example selection / outcome feedback).
  Nl2SqlEngine(std::shared_ptr<llm::LlmModel> model,
               optimize::PromptStore* store)
      : model_(std::move(model)), store_(store) {}

  /// Translates `question` and, when the SQL parses, executes it on `db`.
  common::Result<Nl2SqlResult> Translate(const std::string& question,
                                         sql::Database& db,
                                         llm::UsageMeter* meter = nullptr);

 private:
  common::Result<std::string> CallModel(const std::string& input,
                                        llm::UsageMeter* meter);

  std::shared_ptr<llm::LlmModel> model_;
  optimize::PromptStore* store_;
};

}  // namespace llmdm::transform

#endif  // LLMDM_CORE_TRANSFORM_NL2SQL_H_
