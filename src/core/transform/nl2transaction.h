#ifndef LLMDM_CORE_TRANSFORM_NL2TRANSACTION_H_
#define LLMDM_CORE_TRANSFORM_NL2TRANSACTION_H_

#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "llm/model.h"
#include "sql/database.h"

namespace llmdm::transform {

/// Outcome of one NL->transaction run.
struct Nl2TxnResult {
  std::vector<std::string> statements;
  bool committed = false;
  int64_t affected_rows = 0;
  std::string failure;  // why the transaction rolled back, if it did
};

/// NL2Transaction (Sec. II-B.1): turns a multi-step payment request into a
/// SQL statement sequence and executes it atomically. Guardrails reject
/// obviously-unbalanced translations before execution — and the transaction
/// wrapper guarantees that even an undetected bad translation cannot commit
/// a partial transfer.
class Nl2TransactionEngine {
 public:
  explicit Nl2TransactionEngine(std::shared_ptr<llm::LlmModel> model)
      : model_(std::move(model)) {}

  common::Result<Nl2TxnResult> Run(const std::string& request,
                                   sql::Database& db,
                                   llm::UsageMeter* meter = nullptr);

 private:
  std::shared_ptr<llm::LlmModel> model_;
};

}  // namespace llmdm::transform

#endif  // LLMDM_CORE_TRANSFORM_NL2TRANSACTION_H_
