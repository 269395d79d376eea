#include "core/transform/nl2transaction.h"

#include "common/string_util.h"

namespace llmdm::transform {

common::Result<Nl2TxnResult> Nl2TransactionEngine::Run(
    const std::string& request, sql::Database& db, llm::UsageMeter* meter) {
  llm::Prompt p;
  p.task_tag = "nl2txn";
  p.instructions =
      "Translate the payment request into a SQL transaction over "
      "accounts(owner, balance) and transfers(sender, receiver, amount). "
      "Emit debit, credit and ledger insert per transfer.";
  p.input = request;
  LLMDM_ASSIGN_OR_RETURN(llm::Completion c, model_->CompleteMetered(p, meter));

  Nl2TxnResult result;
  for (const std::string& stmt : common::Split(c.text, '\n')) {
    std::string_view trimmed = common::Trim(stmt);
    if (trimmed.empty()) continue;
    std::string s(trimmed);
    if (!s.empty() && s.back() == ';') s.pop_back();
    result.statements.push_back(std::move(s));
  }
  if (result.statements.empty()) {
    result.failure = "model produced no statements";
    return result;
  }
  // A cheap structural validator: each transfer is a debit, a credit and a
  // ledger insert, so the statement count must be a multiple of 3.
  if (result.statements.size() % 3 != 0) {
    result.failure = "structural check failed: statement count not a "
                     "multiple of 3 (debit+credit+ledger per transfer)";
    return result;
  }
  auto outcome = db.ExecuteAtomically(result.statements);
  if (!outcome.ok()) {
    result.failure = outcome.status().ToString();
    return result;
  }
  result.committed = true;
  result.affected_rows = *outcome;
  return result;
}

}  // namespace llmdm::transform
