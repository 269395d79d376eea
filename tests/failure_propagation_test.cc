// Error-propagation tests: when the model endpoint itself fails (network
// blips, rate limits — the realities of hosted LLM APIs the paper's systems
// sit on), every orchestration layer must surface a clean Status, never a
// crash, a partial commit, or a poisoned cache.
#include <gtest/gtest.h>

#include "core/optimize/cascade.h"
#include "core/optimize/decomposition.h"
#include "core/optimize/semantic_cache.h"
#include "core/transform/nl2sql.h"
#include "core/transform/nl2transaction.h"
#include "data/nl2sql_workload.h"
#include "data/txn_workload.h"
#include "llm/simulated.h"
#include "sql/database.h"

namespace llmdm {
namespace {

// A model that fails every `fail_every`-th call with ResourceExhausted (the
// shape of a rate-limit error) and otherwise delegates to an inner model.
class FlakyModel : public llm::LlmModel {
 public:
  FlakyModel(std::shared_ptr<llm::LlmModel> inner, size_t fail_every)
      : inner_(std::move(inner)), fail_every_(fail_every) {}

  const llm::ModelSpec& spec() const override { return inner_->spec(); }

  common::Result<llm::Completion> Complete(const llm::Prompt& prompt) override {
    if (++calls_ % fail_every_ == 0) {
      return common::Status::ResourceExhausted("simulated rate limit");
    }
    return inner_->Complete(prompt);
  }

  size_t calls() const { return calls_; }

 private:
  std::shared_ptr<llm::LlmModel> inner_;
  size_t fail_every_;
  size_t calls_ = 0;
};

class FailurePropagationTest : public ::testing::Test {
 protected:
  FailurePropagationTest() {
    common::Rng rng(1);
    EXPECT_TRUE(db_.ExecuteScript(
                      data::BuildStadiumDatabaseScript(8, {2014, 2015}, rng))
                    .ok());
    inner_ = llm::CreatePaperModelLadder(nullptr, 2)[2];
  }

  sql::Database db_;
  std::shared_ptr<llm::LlmModel> inner_;
};

TEST_F(FailurePropagationTest, CascadeToleratesPartialSampleFailures) {
  auto flaky = std::make_shared<FlakyModel>(inner_, 2);
  // Two-rung ladder; the flaky first rung loses every 2nd consistency
  // sample. The cascade keeps the surviving votes and still answers,
  // recording the per-sample losses in the trace.
  optimize::LlmCascade cascade({flaky, inner_},
                               optimize::LlmCascade::Options{});
  auto r = cascade.Run(llm::MakePrompt("freeform", "anything"));
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_FALSE(r->answer.empty());
  size_t samples_failed = 0;
  for (const auto& step : r->trace) samples_failed += step.samples_failed;
  EXPECT_GT(samples_failed, 0u);
}

TEST_F(FailurePropagationTest, CascadeSurfacesModelErrors) {
  // When every rung is fully dead there is nothing to degrade to: the last
  // model error comes back as a clean Status.
  auto dead = std::make_shared<FlakyModel>(inner_, 1);
  optimize::LlmCascade cascade({dead, dead}, optimize::LlmCascade::Options{});
  auto r = cascade.Run(llm::MakePrompt("freeform", "anything"));
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), common::StatusCode::kResourceExhausted);
}

TEST_F(FailurePropagationTest, BatchOptimizerSurfacesModelErrors) {
  auto flaky = std::make_shared<FlakyModel>(inner_, 3);
  optimize::QueryBatchOptimizer optimizer(
      optimize::QueryBatchOptimizer::Options{});
  std::vector<std::string> questions;
  for (const auto& q : data::PaperQ1ToQ5()) {
    questions.push_back(q.ToNaturalLanguage());
  }
  auto plan = optimizer.Plan(questions);
  auto exec = optimizer.Execute(plan, *flaky);
  EXPECT_FALSE(exec.ok());
}

TEST_F(FailurePropagationTest, CachedLlmDoesNotCacheFailures) {
  optimize::SemanticCache cache(optimize::SemanticCache::Options{});
  auto flaky = std::make_shared<FlakyModel>(inner_, 1);  // always fails
  optimize::CachedLlm cached(flaky, &cache);
  llm::Prompt p = llm::MakePrompt("nl2sql",
                                  "What are the names of stadiums that had "
                                  "concerts in 2014?");
  EXPECT_FALSE(cached.Complete(p).ok());
  EXPECT_EQ(cache.Size(), 0u);  // the failure must not be cached
  // Once the model recovers, the query succeeds and populates the cache.
  optimize::CachedLlm healthy(inner_, &cache);
  EXPECT_TRUE(healthy.Complete(p).ok());
  EXPECT_EQ(cache.Size(), 1u);
}

TEST_F(FailurePropagationTest, Nl2TxnFailureLeavesBalancesUntouched) {
  sql::Database billing;
  ASSERT_TRUE(billing
                  .ExecuteScript(data::BuildAccountsDatabaseScript(
                      {"A", "B"}, 1000))
                  .ok());
  auto flaky = std::make_shared<FlakyModel>(inner_, 1);
  transform::Nl2TransactionEngine engine(flaky);
  auto r = engine.Run("Transfer 100 dollars from A to B.", billing);
  EXPECT_FALSE(r.ok());
  auto total = billing.Query("SELECT SUM(balance) FROM accounts");
  EXPECT_EQ(total->at(0, 0), data::Value::Int(2000));
}

TEST_F(FailurePropagationTest, Nl2SqlEngineSurfacesModelErrors) {
  auto flaky = std::make_shared<FlakyModel>(inner_, 1);
  transform::Nl2SqlEngine engine(flaky, nullptr);
  auto r = engine.Translate(
      "What are the names of stadiums that had concerts in 2014?", db_);
  EXPECT_FALSE(r.ok());
}

}  // namespace
}  // namespace llmdm
