#include "core/transform/nl2sql.h"

#include "core/optimize/decomposition.h"
#include "sql/parser.h"

namespace llmdm::transform {
namespace {

// Historical examples the prompt store selects per prompt.
constexpr size_t kNumExamples = 4;

}  // namespace

common::Result<std::string> Nl2SqlEngine::CallModel(const std::string& input,
                                                    llm::UsageMeter* meter) {
  llm::Prompt p;
  p.task_tag = "nl2sql";
  p.instructions =
      "Translate the question into SQL over the stadium schema.";
  p.input = input;
  if (store_ != nullptr) {
    p.examples = store_->Select(input, kNumExamples,
                                optimize::PromptStore::Selection::kUtilityWeighted);
  }
  LLMDM_ASSIGN_OR_RETURN(llm::Completion c, model_->CompleteMetered(p, meter));
  // Route outcome feedback (executability as a cheap success proxy) to the
  // examples that were used.
  if (store_ != nullptr) {
    bool ok = sql::ParseStatement(c.text).ok();
    for (uint64_t id : store_->last_selected_ids()) {
      store_->RecordOutcome(id, ok);
    }
  }
  return c.text;
}

common::Result<Nl2SqlResult> Nl2SqlEngine::Translate(
    const std::string& question, sql::Database& db, llm::UsageMeter* meter) {
  Nl2SqlResult result;
  LLMDM_ASSIGN_OR_RETURN(result.sql, CallModel(question, meter));
  result.parse_valid = sql::ParseStatement(result.sql).ok();

  // Chain-of-thought fallback: translate atomic sub-questions and recombine.
  if (!result.parse_valid) {
    auto decomposed = optimize::DecomposeQuestion(question);
    if (decomposed.ok() && decomposed->sub_questions.size() > 1) {
      std::vector<std::string> parts;
      bool all_valid = true;
      for (const std::string& sub : decomposed->sub_questions) {
        LLMDM_ASSIGN_OR_RETURN(std::string sub_sql, CallModel(sub, meter));
        all_valid = all_valid && sql::ParseStatement(sub_sql).ok();
        parts.push_back(std::move(sub_sql));
      }
      if (all_valid) {
        result.sql = optimize::RecombineSql(parts, decomposed->combiner);
        result.parse_valid = sql::ParseStatement(result.sql).ok();
        result.used_decomposition = true;
      }
    }
  }

  if (result.parse_valid) {
    auto executed = db.Query(result.sql);
    if (executed.ok()) {
      result.executed = true;
      result.result = std::move(*executed);
    }
  }
  return result;
}

}  // namespace llmdm::transform
