// Failure-injection and fuzz-flavoured robustness tests: every parser and
// engine entry point must return a Status on malformed input — never crash,
// never loop — and transactional surfaces must keep their invariants when
// statements fail mid-flight. The second half exercises the LLM endpoint
// resilience layer (FaultInjectingLlm / ResilientLlm / CircuitBreaker) and
// the graceful degradation it buys the cascade and the pipeline.
#include <gtest/gtest.h>

#include "common/rng.h"
#include "common/string_util.h"
#include "core/optimize/cascade.h"
#include "core/optimize/semantic_cache.h"
#include "core/pipeline.h"
#include "data/json.h"
#include "data/nl2sql_workload.h"
#include "data/qa_workload.h"
#include "data/txn_workload.h"
#include "data/xml.h"
#include "llm/deadline.h"
#include "llm/fault_injection.h"
#include "llm/resilient.h"
#include "llm/simulated.h"
#include "serve/qos.h"
#include "serve/server.h"
#include "sql/database.h"
#include "sql/parser.h"

namespace llmdm {
namespace {

// Mutates a valid input string: deletions, duplications, substitutions.
std::string Mutate(const std::string& input, common::Rng& rng) {
  std::string out = input;
  int64_t edits = rng.UniformInt(1, 5);
  for (int64_t e = 0; e < edits && !out.empty(); ++e) {
    size_t pos = rng.NextBelow(out.size());
    switch (rng.NextBelow(4)) {
      case 0:
        out.erase(pos, 1);
        break;
      case 1:
        out.insert(pos, 1, out[pos]);
        break;
      case 2:
        out[pos] = static_cast<char>(rng.UniformInt(32, 126));
        break;
      default: {
        // Splice a random chunk somewhere else.
        size_t len = std::min<size_t>(out.size() - pos, rng.NextBelow(8) + 1);
        std::string chunk = out.substr(pos, len);
        out.insert(rng.NextBelow(out.size()), chunk);
        break;
      }
    }
  }
  return out;
}

class FuzzTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(FuzzTest, SqlParserNeverCrashes) {
  common::Rng rng(GetParam());
  const std::string seeds[] = {
      "SELECT name FROM stadium WHERE capacity > 50000 ORDER BY name LIMIT 3",
      "SELECT s.name, COUNT(*) FROM stadium s JOIN concert c ON s.id = "
      "c.stadium_id GROUP BY s.name HAVING COUNT(*) > 1",
      "INSERT INTO t (a, b) VALUES (1, 'x'), (2, 'y')",
      "UPDATE t SET a = a + 1 WHERE b BETWEEN 1 AND 9",
      "SELECT CASE WHEN a IS NULL THEN 'n' ELSE 'y' END FROM t",
      "SELECT * FROM (SELECT a FROM t) x WHERE a IN (SELECT b FROM u)",
  };
  for (int trial = 0; trial < 300; ++trial) {
    std::string mutated = Mutate(seeds[rng.NextBelow(std::size(seeds))], rng);
    // Must return (ok or error), not crash/hang.
    auto result = sql::ParseStatement(mutated);
    if (result.ok()) {
      // Whatever parsed must unparse and re-parse.
      EXPECT_TRUE(sql::ParseStatement(result->ToString()).ok())
          << result->ToString();
    }
  }
}

TEST_P(FuzzTest, SqlExecutorNeverCrashesOnParseableGarbage) {
  common::Rng rng(GetParam() + 10);
  sql::Database db;
  ASSERT_TRUE(db.ExecuteScript(
                    data::BuildStadiumDatabaseScript(8, {2014, 2015}, rng))
                  .ok());
  const std::string seeds[] = {
      "SELECT name FROM stadium WHERE capacity > 50000",
      "SELECT stadium_id, SUM(attendance) FROM concert GROUP BY stadium_id",
      "SELECT name FROM stadium WHERE id IN (SELECT stadium_id FROM concert)",
  };
  for (int trial = 0; trial < 200; ++trial) {
    std::string mutated = Mutate(seeds[rng.NextBelow(std::size(seeds))], rng);
    auto result = db.Execute(mutated);  // may fail; must not crash
    (void)result;
  }
  // The database must still be intact afterwards.
  auto check = db.Query("SELECT COUNT(*) FROM stadium");
  ASSERT_TRUE(check.ok());
  EXPECT_EQ(check->at(0, 0), data::Value::Int(8));
}

TEST_P(FuzzTest, JsonParserNeverCrashes) {
  common::Rng rng(GetParam() + 20);
  const std::string seeds[] = {
      R"({"a": [1, 2.5, "x"], "b": {"c": null, "d": true}})",
      R"([{"k": "v"}, {"k": "w"}, 3, "tail"])",
      "\"escaped \\\"quotes\\\" and \\u00e9\"",
  };
  for (int trial = 0; trial < 300; ++trial) {
    std::string mutated = Mutate(seeds[rng.NextBelow(std::size(seeds))], rng);
    auto result = data::ParseJson(mutated);
    if (result.ok()) {
      // Round-trip property on anything that still parses.
      auto again = data::ParseJson(result->ToString());
      EXPECT_TRUE(again.ok()) << result->ToString();
    }
  }
}

TEST_P(FuzzTest, XmlParserNeverCrashes) {
  common::Rng rng(GetParam() + 30);
  const std::string seeds[] = {
      "<a b=\"1\"><c>text &amp; entities</c><d/></a>",
      "<reports><report id=\"1\"><x>1</x></report><!-- note --></reports>",
  };
  for (int trial = 0; trial < 300; ++trial) {
    std::string mutated = Mutate(seeds[rng.NextBelow(std::size(seeds))], rng);
    auto result = data::ParseXml(mutated);
    (void)result;
  }
}

TEST_P(FuzzTest, WorkloadParsersNeverCrash) {
  common::Rng rng(GetParam() + 50);
  const std::string seeds[] = {
      "What are the names of stadiums that had concerts in 2014 or had "
      "sports meetings in 2015?",
      "Who is the manager of the advisor of Alice Adams?",
      "Transfer 100 dollars from A to B. Then transfer 5 dollars from B to C.",
  };
  for (int trial = 0; trial < 300; ++trial) {
    std::string mutated = Mutate(seeds[rng.NextBelow(std::size(seeds))], rng);
    (void)data::ParseNl2SqlQuestion(mutated);
    (void)data::ParseChainQuestion(mutated);
    (void)data::ParseTxnRequest(mutated);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FuzzTest, ::testing::Values(101, 202, 303));

// ---- failure injection on the transactional surface ------------------------

TEST(FailureInjection, MidScriptFailureLeavesCleanState) {
  sql::Database db;
  ASSERT_TRUE(db.ExecuteScript(
                    data::BuildAccountsDatabaseScript({"A", "B"}, 100))
                  .ok());
  // Sequences with a failure at every position: state must always be
  // all-or-nothing.
  std::vector<std::string> good = data::TxnToSql(
      data::TxnRequest{{data::TransferSpec{"A", "B", 30}}});
  for (size_t failure_at = 0; failure_at <= good.size(); ++failure_at) {
    std::vector<std::string> script = good;
    if (failure_at < good.size()) {
      script.insert(script.begin() + static_cast<long>(failure_at),
                    "UPDATE missing_table SET x = 1");
    }
    auto result = db.ExecuteAtomically(script);
    auto total = db.Query("SELECT SUM(balance) FROM accounts");
    ASSERT_TRUE(total.ok());
    EXPECT_EQ(total->at(0, 0), data::Value::Int(200));
    auto a = db.Query("SELECT balance FROM accounts WHERE owner = 'A'");
    if (failure_at < good.size()) {
      EXPECT_FALSE(result.ok());
      // Rolled back: A unchanged from the previous committed state.
    } else {
      EXPECT_TRUE(result.ok());
    }
    // Reset A/B for the next round.
    ASSERT_TRUE(db.Execute("UPDATE accounts SET balance = 100").ok());
  }
}

TEST(FailureInjection, TransactionSurvivesParseErrors) {
  sql::Database db;
  ASSERT_TRUE(db.Execute("CREATE TABLE t (a INT)").ok());
  ASSERT_TRUE(db.Execute("INSERT INTO t VALUES (1)").ok());
  EXPECT_FALSE(db.ExecuteAtomically({"UPDATE t SET a = 2",
                                     "THIS IS NOT SQL AT ALL"})
                   .ok());
  EXPECT_FALSE(db.in_transaction());
  EXPECT_EQ(db.Query("SELECT a FROM t")->at(0, 0), data::Value::Int(1));
}

TEST(FailureInjection, DdlInsideTransactionRollsBack) {
  sql::Database db;
  ASSERT_TRUE(db.Execute("BEGIN").ok());
  ASSERT_TRUE(db.Execute("CREATE TABLE temp_t (x INT)").ok());
  ASSERT_TRUE(db.Execute("INSERT INTO temp_t VALUES (1)").ok());
  ASSERT_TRUE(db.Execute("ROLLBACK").ok());
  // The table created inside the transaction is gone.
  EXPECT_FALSE(db.catalog().HasTable("temp_t"));
}

TEST(FailureInjection, DropInsideTransactionRestoredOnRollback) {
  sql::Database db;
  ASSERT_TRUE(db.Execute("CREATE TABLE keeper (x INT)").ok());
  ASSERT_TRUE(db.Execute("INSERT INTO keeper VALUES (7)").ok());
  ASSERT_TRUE(db.Execute("BEGIN").ok());
  ASSERT_TRUE(db.Execute("DROP TABLE keeper").ok());
  EXPECT_FALSE(db.catalog().HasTable("keeper"));
  ASSERT_TRUE(db.Execute("ROLLBACK").ok());
  ASSERT_TRUE(db.catalog().HasTable("keeper"));
  EXPECT_EQ(db.Query("SELECT x FROM keeper")->at(0, 0), data::Value::Int(7));
}

// ---- LLM endpoint resilience ------------------------------------------------

// A fast single-skill model for resilience tests; two instances built with
// the same arguments complete identically, which is what makes the
// "converges to the fault-free answer" assertions exact.
std::shared_ptr<llm::SimulatedLlm> MakeTestModel(uint64_t seed = 1) {
  llm::ModelSpec spec;
  spec.name = "sim-test";
  spec.capability = 0.9;
  spec.input_price_per_1k = common::Money::FromDollars(0.001);
  spec.output_price_per_1k = common::Money::FromDollars(0.002);
  spec.latency_ms_per_1k_tokens = 100.0;
  auto model = std::make_shared<llm::SimulatedLlm>(spec, seed);
  model->RegisterSkill(std::make_unique<llm::FreeformSkill>());
  return model;
}

llm::FaultProfile TransportOnlyProfile(double rate) {
  llm::FaultProfile p;
  p.rate_limit = 0.4 * rate;
  p.timeout = 0.3 * rate;
  p.unavailable = 0.2 * rate;
  p.truncate = 0.1 * rate;  // detectable, hence retryable
  return p;
}

llm::FaultProfile AlwaysDownProfile() {
  llm::FaultProfile p;
  p.unavailable = 1.0;
  return p;
}

TEST(FaultInjection, SameSeedSameSchedule) {
  auto run = [](uint64_t seed) {
    llm::FaultInjectingLlm faulty(MakeTestModel(), llm::FaultProfile::Uniform(0.4),
                                  seed);
    std::string log;
    for (int i = 0; i < 150; ++i) {
      auto c = faulty.Complete(
          llm::MakePrompt("freeform", common::StrFormat("query %d", i % 40)));
      if (c.ok()) {
        log += c->text + (c->truncated ? "|T\n" : "|ok\n");
      } else {
        log += c.status().ToString() + "\n";
      }
    }
    return log;
  };
  EXPECT_EQ(run(7), run(7));
  EXPECT_NE(run(7), run(8));  // the schedule really is seed-driven
}

TEST(FaultInjection, RespectsConfiguredRateRoughly) {
  llm::FaultInjectingLlm faulty(MakeTestModel(),
                                llm::FaultProfile::Uniform(0.2), 11);
  for (int i = 0; i < 400; ++i) {
    (void)faulty.Complete(
        llm::MakePrompt("freeform", common::StrFormat("query %d", i)));
  }
  const llm::FaultStats& stats = faulty.stats();
  EXPECT_EQ(stats.calls, 400u);
  // 20% of 400 = 80 expected faults; allow a wide deterministic band.
  EXPECT_GE(stats.injected(), 45u);
  EXPECT_LE(stats.injected(), 125u);
  EXPECT_GT(stats.rate_limited, 0u);
  EXPECT_GT(stats.timeouts, 0u);
}

TEST(FaultInjection, RetryOfSamePromptIsAFreshDraw) {
  llm::FaultInjectingLlm faulty(MakeTestModel(), AlwaysDownProfile(), 3);
  llm::Prompt p = llm::MakePrompt("freeform", "same prompt");
  EXPECT_FALSE(faulty.Complete(p).ok());
  faulty.ResetSchedule();
  llm::FaultProfile half;
  half.unavailable = 0.5;
  llm::FaultInjectingLlm flaky(MakeTestModel(), half, 3);
  // With a 50% fault rate, repeated attempts at the same prompt must not
  // all share one fate: some draw in each direction within a few tries.
  bool saw_ok = false, saw_fail = false;
  for (int i = 0; i < 16; ++i) {
    if (flaky.Complete(p).ok()) {
      saw_ok = true;
    } else {
      saw_fail = true;
    }
  }
  EXPECT_TRUE(saw_ok);
  EXPECT_TRUE(saw_fail);
}

class FaultRateSweep : public ::testing::TestWithParam<int> {};

// Satellite (a): ResilientLlm converges to the fault-free answer for fault
// rates <= 30%.
TEST_P(FaultRateSweep, ResilientConvergesToFaultFreeAnswer) {
  const double rate = GetParam() / 100.0;
  auto reference = MakeTestModel();
  auto faulty = std::make_shared<llm::FaultInjectingLlm>(
      MakeTestModel(), TransportOnlyProfile(rate), 21);
  llm::ResilientLlm::Options options;
  options.retry.max_attempts = 8;
  options.retry.initial_backoff_ms = 10.0;
  options.seed = 5;
  // No fallback is configured, so shed load cannot be served elsewhere:
  // disable the breaker to measure pure retry convergence (the ablation
  // bench covers the breaker+fallback interaction).
  options.breaker.min_samples = 1u << 20;
  llm::ResilientLlm resilient(faulty, options);
  llm::UsageMeter meter;
  for (int i = 0; i < 50; ++i) {
    llm::Prompt p =
        llm::MakePrompt("freeform", common::StrFormat("query %d", i));
    auto expected = reference->Complete(p);
    ASSERT_TRUE(expected.ok());
    auto got = resilient.CompleteMetered(p, &meter);
    ASSERT_TRUE(got.ok()) << "rate=" << rate << " i=" << i << ": "
                          << got.status().ToString();
    EXPECT_EQ(got->text, expected->text) << "rate=" << rate << " i=" << i;
    EXPECT_FALSE(got->truncated);
  }
  // Retry spend scales with the fault rate and is visible in the meter.
  if (rate > 0.0) {
    EXPECT_GT(meter.retry_stats().retries, 0u);
  }
  EXPECT_GE(meter.retry_stats().attempts, 50u);
}

INSTANTIATE_TEST_SUITE_P(Rates, FaultRateSweep,
                         ::testing::Values(0, 5, 10, 20, 30));

// Satellite (b): the breaker opens and half-opens at the configured
// thresholds (driven directly with a manual simulated clock).
TEST(CircuitBreakerTest, OpensHalfOpensAndRecloses) {
  llm::CircuitBreaker::Options options;
  options.min_samples = 4;
  llm::CircuitBreaker breaker(options);  // 2,000 ms cooldown

  EXPECT_EQ(breaker.state(), llm::CircuitBreaker::State::kClosed);
  breaker.RecordFailure(10.0);
  breaker.RecordFailure(20.0);
  breaker.RecordFailure(30.0);
  EXPECT_EQ(breaker.state(), llm::CircuitBreaker::State::kClosed)
      << "must not judge before min_samples";
  breaker.RecordFailure(40.0);
  EXPECT_EQ(breaker.state(), llm::CircuitBreaker::State::kOpen);
  EXPECT_EQ(breaker.times_opened(), 1u);
  EXPECT_FALSE(breaker.Allow(1500.0));
  EXPECT_TRUE(breaker.Allow(2040.0 + 1.0));  // cooldown elapsed
  EXPECT_EQ(breaker.state(), llm::CircuitBreaker::State::kHalfOpen);
  breaker.RecordSuccess(2100.0);
  EXPECT_EQ(breaker.state(), llm::CircuitBreaker::State::kHalfOpen);
  breaker.RecordSuccess(2200.0);
  EXPECT_EQ(breaker.state(), llm::CircuitBreaker::State::kClosed);

  // A failed half-open probe re-opens immediately.
  breaker.RecordFailure(2300.0);
  breaker.RecordFailure(2310.0);
  breaker.RecordFailure(2320.0);
  breaker.RecordFailure(2330.0);
  EXPECT_EQ(breaker.state(), llm::CircuitBreaker::State::kOpen);
  ASSERT_TRUE(breaker.Allow(4400.0));
  breaker.RecordFailure(4400.0);
  EXPECT_EQ(breaker.state(), llm::CircuitBreaker::State::kOpen);
  EXPECT_EQ(breaker.times_opened(), 3u);
}

TEST(ResilientLlmTest, BreakerShedsLoadAndFallbackServes) {
  auto dead = std::make_shared<llm::FaultInjectingLlm>(
      MakeTestModel(), AlwaysDownProfile(), 13);
  llm::ResilientLlm::Options options;
  options.retry.max_attempts = 3;
  options.retry.initial_backoff_ms = 10.0;
  options.breaker.min_samples = 4;
  options.seed = 2;
  llm::ResilientLlm resilient(dead, options);
  resilient.AddFallbackModel(MakeTestModel(99));
  llm::UsageMeter meter;
  for (int i = 0; i < 10; ++i) {
    auto c = resilient.CompleteMetered(
        llm::MakePrompt("freeform", common::StrFormat("query %d", i)), &meter);
    ASSERT_TRUE(c.ok()) << c.status().ToString();
    EXPECT_EQ(c->model, "sim-test");
  }
  const auto& stats = meter.retry_stats();
  EXPECT_EQ(stats.fallbacks, 10u);
  EXPECT_GE(stats.circuit_opens, 1u);
  EXPECT_GT(stats.circuit_rejections, 0u);
  // The breaker must have saved most of the doomed retry attempts.
  EXPECT_LT(stats.attempts, 30u);
}

TEST(ResilientLlmTest, DeadlineBoundsModelLatency) {
  // ModelSpec::latency_ms_per_1k_tokens is enforced. This model "answers"
  // but at ~100 s per token — far beyond the 20 s per-call budget.
  llm::ModelSpec slow;
  slow.name = "sim-sloth";
  slow.capability = 0.9;
  slow.latency_ms_per_1k_tokens = 1e8;
  auto sloth = std::make_shared<llm::SimulatedLlm>(slow, 1);
  sloth->RegisterSkill(std::make_unique<llm::FreeformSkill>());

  llm::ResilientLlm::Options options;
  llm::ResilientLlm resilient(sloth, options);
  auto c = resilient.Complete(llm::MakePrompt("freeform", "any question"));
  ASSERT_FALSE(c.ok());
  EXPECT_EQ(c.status().code(), common::StatusCode::kTimeout);
  EXPECT_GE(resilient.stats().deadline_exceeded, 1u);

  // With a fast fallback rung the same call degrades instead of failing.
  llm::ResilientLlm with_fallback(sloth, options);
  with_fallback.AddFallbackModel(MakeTestModel());
  auto c2 = with_fallback.Complete(llm::MakePrompt("freeform", "any question"));
  ASSERT_TRUE(c2.ok());
  EXPECT_EQ(c2->model, "sim-test");
  EXPECT_EQ(with_fallback.stats().fallbacks, 1u);
}

TEST(ResilientLlmTest, TruncationRetriedThenServedAsLastResort) {
  llm::FaultProfile always_truncate;
  always_truncate.truncate = 1.0;
  auto clipped = std::make_shared<llm::FaultInjectingLlm>(
      MakeTestModel(), always_truncate, 17);
  llm::ResilientLlm::Options options;
  options.retry.max_attempts = 3;
  options.retry.initial_backoff_ms = 10.0;
  llm::ResilientLlm resilient(clipped, options);
  auto c = resilient.Complete(llm::MakePrompt("freeform", "clip me"));
  // Every attempt is truncated, so the clipped answer is still served —
  // degraded beats unavailable — and flagged as such.
  ASSERT_TRUE(c.ok());
  EXPECT_TRUE(c->truncated);
  EXPECT_EQ(resilient.stats().attempts, 3u);
}

TEST(ResilientLlmTest, StaleCacheServesWhenEverythingIsDown) {
  optimize::SemanticCache cache(optimize::SemanticCache::Options{});
  cache.Insert("what is the close rate", "42 per day");
  auto dead = std::make_shared<llm::FaultInjectingLlm>(
      MakeTestModel(), AlwaysDownProfile(), 19);
  llm::ResilientLlm::Options options;
  options.retry.max_attempts = 2;
  llm::ResilientLlm resilient(dead, options);
  resilient.set_cache_fallback(
      optimize::MakeStaleCacheFallback(&cache, "sim-test", 0.75));
  auto c = resilient.Complete(llm::MakePrompt("freeform",
                                              "what is the close rate"));
  ASSERT_TRUE(c.ok());
  EXPECT_EQ(c->text, "42 per day");
  EXPECT_EQ(c->model, "sim-test+stale-cache");
  EXPECT_EQ(resilient.stats().stale_serves, 1u);
  EXPECT_EQ(c->cost, common::Money::Zero());
}

TEST(ResilientLlmTest, PermanentErrorsAreNotRetried) {
  // No skill registered for the tag and no freeform fallback: the model
  // returns kUnimplemented, which retrying cannot cure.
  llm::ModelSpec spec;
  spec.name = "sim-empty";
  auto empty = std::make_shared<llm::SimulatedLlm>(spec, 1);
  llm::ResilientLlm::Options options;
  options.retry.max_attempts = 5;
  llm::ResilientLlm resilient(empty, options);
  auto c = resilient.Complete(llm::MakePrompt("qa", "anything"));
  ASSERT_FALSE(c.ok());
  EXPECT_EQ(c.status().code(), common::StatusCode::kUnimplemented);
  EXPECT_EQ(resilient.stats().attempts, 1u);
  EXPECT_EQ(resilient.stats().retries, 0u);
}

// Satellite (c): same seed => identical fault schedule, retries, answers.
TEST(ResilientLlmTest, DeterministicEndToEnd) {
  auto run = []() {
    auto faulty = std::make_shared<llm::FaultInjectingLlm>(
        MakeTestModel(), TransportOnlyProfile(0.3), 23);
    llm::ResilientLlm::Options options;
    options.retry.max_attempts = 6;
    options.retry.initial_backoff_ms = 10.0;
    options.seed = 9;
    llm::ResilientLlm resilient(faulty, options);
    resilient.AddFallbackModel(MakeTestModel(55));
    llm::UsageMeter meter;
    std::string log;
    for (int i = 0; i < 30; ++i) {
      auto c = resilient.CompleteMetered(
          llm::MakePrompt("freeform", common::StrFormat("query %d", i)),
          &meter);
      log += c.ok() ? c->text : c.status().ToString();
      log += "\n";
    }
    log += meter.retry_stats().ToString();
    log += " cost=" + meter.cost().ToString(6);
    log += common::StrFormat(" clock=%.3f", resilient.clock_ms());
    return log;
  };
  EXPECT_EQ(run(), run());
}

TEST(CascadeResilience, SurvivesMidLadderRungFailure) {
  common::Rng rng(404);
  data::KnowledgeBase kb = data::KnowledgeBase::Generate(40, rng);
  auto ladder = llm::CreatePaperModelLadder(&kb, 1);
  // Kill the middle rung outright.
  ladder[1] = std::make_shared<llm::FaultInjectingLlm>(
      ladder[1], AlwaysDownProfile(), 31);
  auto workload = data::GenerateQaWorkload(kb, 10, {0.2, 0.4, 0.4}, rng);
  optimize::LlmCascade::Options options;
  options.accept_threshold = 0.95;  // force escalation through the dead rung
  optimize::LlmCascade cascade(ladder, options);
  size_t failed_steps = 0;
  for (const auto& item : workload) {
    auto r = cascade.Run(llm::MakePrompt("qa", item.question));
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_FALSE(r->answer.empty());
    for (const auto& step : r->trace) {
      if (step.failed) {
        ++failed_steps;
        EXPECT_EQ(step.model, ladder[1]->name());
        EXPECT_FALSE(step.error.empty());
      }
    }
  }
  EXPECT_GT(failed_steps, 0u);
}

TEST(CascadeResilience, DegradedAnswerWhenTopRungDown) {
  common::Rng rng(405);
  data::KnowledgeBase kb = data::KnowledgeBase::Generate(40, rng);
  auto ladder = llm::CreatePaperModelLadder(&kb, 1);
  ladder.back() = std::make_shared<llm::FaultInjectingLlm>(
      ladder.back(), AlwaysDownProfile(), 37);
  optimize::LlmCascade::Options options;
  options.accept_threshold = 1.5;  // nothing can accept on merit
  optimize::LlmCascade cascade(ladder, options);
  auto workload = data::GenerateQaWorkload(kb, 5, {0.4, 0.4, 0.2}, rng);
  for (const auto& item : workload) {
    auto r = cascade.Run(llm::MakePrompt("qa", item.question));
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_TRUE(r->degraded);
    EXPECT_FALSE(r->answer.empty());
    EXPECT_NE(r->model, ladder.back()->name());
    EXPECT_EQ(r->rungs_failed, 1u);
  }
}

TEST(CascadeResilience, AllRungsDownIsAnError) {
  common::Rng rng(406);
  data::KnowledgeBase kb = data::KnowledgeBase::Generate(20, rng);
  auto ladder = llm::CreatePaperModelLadder(&kb, 1);
  for (auto& rung : ladder) {
    rung = std::make_shared<llm::FaultInjectingLlm>(rung, AlwaysDownProfile(),
                                                    41);
  }
  optimize::LlmCascade cascade(ladder, optimize::LlmCascade::Options{});
  auto r = cascade.Run(llm::MakePrompt("qa", "who is anyone"));
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(common::IsTransientError(r.status().code()));
}

TEST(PipelineResilience, DegradesPerStageInsteadOfAborting) {
  auto models = llm::CreatePaperModelLadder(nullptr, 42);
  core::DataManagementPipeline::Options options;
  options.model = std::make_shared<llm::FaultInjectingLlm>(
      models[2], AlwaysDownProfile(), 43);
  options.num_patients = 24;
  core::DataManagementPipeline pipeline(options);
  auto report = pipeline.Run();
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  ASSERT_EQ(report->stages.size(), 4u);
  // Generation and integration lean on the LLM and degrade; transformation
  // (XML parsing) and exploration (lake) complete on partial artifacts.
  EXPECT_EQ(report->degraded_stages, 2u);
  EXPECT_TRUE(report->stages[0].degraded);
  EXPECT_FALSE(report->stages[1].degraded);
  EXPECT_TRUE(report->stages[2].degraded);
  EXPECT_FALSE(report->stages[3].degraded);
  // The raw patients table was committed before the annotation calls died.
  EXPECT_TRUE(pipeline.database().catalog().HasTable("patients"));
  EXPECT_TRUE(pipeline.database().catalog().HasTable("reports"));
  EXPECT_GT(pipeline.lake().Size(), 0u);
}

TEST(PipelineResilience, ResilientModelKeepsAllStagesHealthyUnderFaults) {
  auto models = llm::CreatePaperModelLadder(nullptr, 42);
  auto faulty = std::make_shared<llm::FaultInjectingLlm>(
      models[2], TransportOnlyProfile(0.2), 47);
  llm::ResilientLlm::Options resilience;
  resilience.retry.max_attempts = 6;
  resilience.retry.initial_backoff_ms = 10.0;
  resilience.seed = 3;
  auto resilient = std::make_shared<llm::ResilientLlm>(faulty, resilience);
  resilient->AddFallbackModel(models[1]);
  core::DataManagementPipeline::Options options;
  options.model = resilient;
  options.num_patients = 24;
  core::DataManagementPipeline pipeline(options);
  auto report = pipeline.Run();
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->degraded_stages, 0u);
  // The stage reports carry the resilience accounting.
  size_t attempts = 0, retries = 0;
  for (const auto& stage : report->stages) {
    attempts += stage.retry.attempts;
    retries += stage.retry.retries;
  }
  EXPECT_GT(attempts, 0u);
  EXPECT_GT(retries, 0u);
}

// ---- Request-wide deadline propagation --------------------------------------

TEST(DeadlinePropagation, ChargesAtTheModelCallBoundary) {
  auto model = MakeTestModel();
  auto deadline = std::make_shared<llm::Deadline>(500.0);
  llm::Prompt prompt = llm::MakePrompt("freeform", "what is a data lake?");
  prompt.deadline = deadline;
  auto c = model->CompleteMetered(prompt, nullptr);
  ASSERT_TRUE(c.ok());
  // The completion's simulated latency came out of the shared budget.
  EXPECT_NEAR(deadline->remaining_ms(), 500.0 - c->latency_ms, 1e-3);
}

TEST(DeadlinePropagation, ExhaustedBudgetRejectsBeforeTheCall) {
  auto model = MakeTestModel();
  llm::Prompt prompt = llm::MakePrompt("freeform", "anything");
  prompt.deadline = std::make_shared<llm::Deadline>(0.0);
  auto c = model->CompleteMetered(prompt, nullptr);
  ASSERT_FALSE(c.ok());
  EXPECT_EQ(c.status().code(), common::StatusCode::kTimeout);
}

TEST(DeadlinePropagation, ScopedModelAttachesBudgetToInnerPrompts) {
  auto deadline = std::make_shared<llm::Deadline>(1000.0);
  llm::DeadlineScopedLlm scoped(MakeTestModel(), deadline);
  auto c = scoped.Complete(llm::MakePrompt("freeform", "what is ETL?"));
  ASSERT_TRUE(c.ok());
  EXPECT_LT(deadline->remaining_ms(), 1000.0);  // latency was charged
}

TEST(DeadlinePropagation, CascadeStopsEscalatingWhenBudgetSpent) {
  // Three rungs of an expensive, slow model; the accept bar is set above 1.0
  // so only the final rung could normally accept. A budget that dies inside
  // rung 0 must stop the ladder and serve rung 0's answer, degraded.
  llm::ModelSpec slow;
  slow.name = "sim-sloth";
  slow.capability = 0.9;
  slow.latency_ms_per_1k_tokens = 1e6;
  std::vector<std::shared_ptr<llm::LlmModel>> ladder;
  for (int i = 0; i < 3; ++i) {
    auto m = std::make_shared<llm::SimulatedLlm>(slow, 1);
    m->RegisterSkill(std::make_unique<llm::FreeformSkill>());
    ladder.push_back(m);
  }
  optimize::LlmCascade::Options copts;
  copts.accept_threshold = 1.1;
  optimize::LlmCascade cascade(ladder, copts);

  llm::Prompt prompt = llm::MakePrompt("freeform", "what is a cascade?");
  prompt.deadline = std::make_shared<llm::Deadline>(500.0);
  auto r = cascade.Run(prompt);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_TRUE(r->deadline_stopped);
  EXPECT_TRUE(r->degraded);
  EXPECT_EQ(r->trace.size(), 1u);  // never reached rungs 1 and 2
  EXPECT_FALSE(r->answer.empty());

  // The identical ladder without a deadline climbs to the top rung.
  auto unbounded = cascade.Run(llm::MakePrompt("freeform", "what is a cascade?"));
  ASSERT_TRUE(unbounded.ok());
  EXPECT_FALSE(unbounded->deadline_stopped);
  EXPECT_EQ(unbounded->trace.size(), 3u);
}

TEST(DeadlinePropagation, PipelineStagesShareOneBudget) {
  // A ~1ms budget: the first model call succeeds (the budget is checked
  // before the call, charged after), everything later times out — so later
  // LLM-dependent stages degrade instead of silently getting fresh budgets.
  auto models = llm::CreatePaperModelLadder(nullptr, 42);
  core::DataManagementPipeline::Options options;
  options.model = models[2];
  options.num_patients = 24;
  options.deadline_ms = 1.0;
  core::DataManagementPipeline pipeline(options);
  auto report = pipeline.Run();
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_TRUE(report->deadline_exhausted);
  EXPECT_GT(report->degraded_stages, 0u);

  // A generous budget changes nothing about the run's health and leaves
  // headroom in every stage report.
  core::DataManagementPipeline::Options generous = options;
  generous.deadline_ms = 1e9;
  core::DataManagementPipeline healthy(generous);
  auto ok_report = healthy.Run();
  ASSERT_TRUE(ok_report.ok());
  EXPECT_FALSE(ok_report->deadline_exhausted);
  EXPECT_EQ(ok_report->degraded_stages, 0u);
  for (const auto& stage : ok_report->stages) {
    EXPECT_GT(stage.deadline_remaining_ms, 0.0);
  }
}

TEST(DeadlinePropagation, ResilientBackoffDrawsFromTheSameBudget) {
  // A model that always 503s: the resilient wrapper retries with backoff,
  // and those waits must be charged to the request's deadline too.
  auto dead = std::make_shared<llm::FaultInjectingLlm>(
      MakeTestModel(), AlwaysDownProfile(), 13);
  llm::ResilientLlm::Options options;
  options.retry.max_attempts = 4;
  options.retry.initial_backoff_ms = 50.0;
  options.seed = 3;
  llm::ResilientLlm resilient(dead, options);
  llm::Prompt prompt = llm::MakePrompt("freeform", "anything");
  auto deadline = std::make_shared<llm::Deadline>(5000.0);
  prompt.deadline = deadline;
  auto c = resilient.CompleteMetered(prompt, nullptr);
  EXPECT_FALSE(c.ok());
  EXPECT_LT(deadline->remaining_ms(), 5000.0);  // backoff was charged
}

// ---- Multi-tenant QoS building blocks --------------------------------------

TEST(TokenBucket, RefillsOnTheVirtualClockAndReportsRetryAfter) {
  // 100 tokens/vs = 0.1 tokens/vms, burst 50. Starts full.
  serve::TokenBucket bucket(100.0, 50.0);
  EXPECT_TRUE(bucket.metered());
  EXPECT_DOUBLE_EQ(bucket.level(), 50.0);
  EXPECT_TRUE(bucket.TryTake(0.0, 50.0, nullptr));  // drain the burst
  double retry = 0.0;
  EXPECT_FALSE(bucket.TryTake(0.0, 20.0, &retry));
  EXPECT_DOUBLE_EQ(retry, 200.0);  // 20 tokens at 0.1/vms
  // 100 vms later 10 tokens refilled: 8 fits, the next 8 does not.
  EXPECT_TRUE(bucket.TryTake(100.0, 8.0, nullptr));
  EXPECT_FALSE(bucket.TryTake(100.0, 8.0, &retry));
  EXPECT_DOUBLE_EQ(retry, 60.0);  // needs 6 more tokens
  // A cost above burst capacity reports time-to-full, not infinity.
  EXPECT_FALSE(bucket.TryTake(100.0, 1000.0, &retry));
  EXPECT_DOUBLE_EQ(retry, 480.0);  // 48 missing to reach burst=50
  // Idle time never overfills past the burst.
  EXPECT_FALSE(bucket.TryTake(1e9, 50.1, &retry));
  EXPECT_TRUE(bucket.TryTake(1e9, 50.0, nullptr));
}

TEST(TokenBucket, UnmeteredAlwaysAdmits) {
  serve::TokenBucket bucket(0.0, 0.0);
  EXPECT_FALSE(bucket.metered());
  double retry = 123.0;
  EXPECT_TRUE(bucket.TryTake(0.0, 1e18, &retry));
  EXPECT_DOUBLE_EQ(retry, 123.0);  // untouched
}

TEST(WeightedFairScheduler, EqualWeightsAlternateAndWeightsBuyShare) {
  auto run = [](double w0, double w1) {
    serve::QosOptions qos;
    qos.tenants = {{.id = "a", .weight = w0}, {.id = "b", .weight = w1}};
    qos.quantum_tokens = 10.0;
    qos.aging_threshold_vms = 1e12;  // DRR only
    serve::WeightedFairScheduler sched(qos, /*num_slots=*/1);
    // Both tenants deeply backlogged from t=0, every request costs 10
    // tokens and 10 vms of service.
    for (uint64_t i = 0; i < 40; ++i) {
      sched.Enqueue(0, {.id = i, .arrival_vms = 0.0, .cost_tokens = 10.0,
                        .service_vms = 10.0});
      sched.Enqueue(1, {.id = 100 + i, .arrival_vms = 0.0,
                        .cost_tokens = 10.0, .service_vms = 10.0});
    }
    std::vector<serve::WeightedFairScheduler::Dispatch> dispatches;
    sched.AdvanceTo(395.0, &dispatches);  // 40 slots' worth (u=0,10,...,390)
    size_t first = 0;
    for (const auto& d : dispatches) {
      if (d.tenant == 0) ++first;
    }
    return std::make_pair(first, dispatches.size());
  };
  // Equal weights: a strict 50/50 split (the pre-fix cursor bug made the
  // first backlogged tenant monopolize the ring).
  auto [equal_first, equal_total] = run(1.0, 1.0);
  EXPECT_EQ(equal_total, 40u);
  EXPECT_EQ(equal_first, 20u);
  // 3:1 weights: tenant 0 gets ~3/4 of the dispatches.
  auto [heavy_first, heavy_total] = run(3.0, 1.0);
  EXPECT_EQ(heavy_total, 40u);
  EXPECT_NEAR(static_cast<double>(heavy_first) / heavy_total, 0.75, 0.05);
}

TEST(WeightedFairScheduler, AgedHeadBypassesDeficitOrder) {
  serve::QosOptions qos;
  qos.tenants = {{.id = "big", .weight = 100.0}, {.id = "tiny", .weight = 0.01}};
  qos.quantum_tokens = 10.0;
  qos.aging_threshold_vms = 50.0;
  serve::WeightedFairScheduler sched(qos, /*num_slots=*/1);
  // The tiny tenant's request is strictly the oldest: aged dispatch is
  // oldest-head-first, so it must cut ahead of the backlog the moment it
  // crosses the threshold.
  sched.Enqueue(1, {.id = 999, .arrival_vms = 0.0, .cost_tokens = 10.0,
                    .service_vms = 10.0});
  for (uint64_t i = 0; i < 20; ++i) {
    sched.Enqueue(0, {.id = i, .arrival_vms = 1.0, .cost_tokens = 10.0,
                      .service_vms = 10.0});
  }
  std::vector<serve::WeightedFairScheduler::Dispatch> dispatches;
  sched.AdvanceTo(200.0, &dispatches);
  double tiny_start = -1.0;
  for (const auto& d : dispatches) {
    if (d.id == 999) tiny_start = d.start_vms;
  }
  // Without aging the tiny tenant would wait ~100 ring cycles; with a 50 vms
  // threshold it dispatches at the first slot boundary past 50.
  ASSERT_GE(tiny_start, 0.0);
  EXPECT_LE(tiny_start, 60.0);
}

TEST(JainFairness, MatchesClosedForm) {
  EXPECT_DOUBLE_EQ(serve::JainFairnessIndex({}), 1.0);
  EXPECT_DOUBLE_EQ(serve::JainFairnessIndex({0.0, 0.0}), 1.0);
  EXPECT_DOUBLE_EQ(serve::JainFairnessIndex({5.0, 5.0, 5.0}), 1.0);
  // One tenant hogging everything: index collapses to 1/n.
  EXPECT_DOUBLE_EQ(serve::JainFairnessIndex({1.0, 0.0, 0.0, 0.0}), 0.25);
  // (1+2+3)^2 / (3 * 14) = 36/42.
  EXPECT_NEAR(serve::JainFairnessIndex({1.0, 2.0, 3.0}), 36.0 / 42.0, 1e-12);
}

TEST(GeneratePopulation, DeterministicSortedAndZipfSkewed) {
  serve::PopulationOptions pop;
  pop.tenants = 8;
  pop.requests = 1200;
  pop.hot_tenants = 2;
  pop.seed = 42;
  auto a = serve::GeneratePopulation(pop);
  auto b = serve::GeneratePopulation(pop);
  ASSERT_EQ(a.size(), b.size());
  ASSERT_GT(a.size(), pop.requests);  // bursts landed on top of base traffic
  std::map<std::string, size_t> per_tenant;
  for (size_t i = 0; i < a.size(); ++i) {
    // Byte-identical across calls with the same seed.
    EXPECT_EQ(a[i].tenant, b[i].tenant);
    EXPECT_EQ(a[i].input, b[i].input);
    EXPECT_DOUBLE_EQ(a[i].arrival_vms, b[i].arrival_vms);
    // Sorted by arrival, ids dense in arrival order.
    EXPECT_EQ(a[i].id, i);
    if (i > 0) {
      EXPECT_GE(a[i].arrival_vms, a[i - 1].arrival_vms);
    }
    ++per_tenant[a[i].tenant];
  }
  // Zipf skew: the head tenant strictly dominates the mid and tail.
  EXPECT_GT(per_tenant["t00"], per_tenant["t03"]);
  EXPECT_GT(per_tenant["t03"], 0u);
  // A different seed reshuffles the stream.
  pop.seed = 43;
  auto c = serve::GeneratePopulation(pop);
  bool any_diff = c.size() != a.size();
  for (size_t i = 0; !any_diff && i < a.size(); ++i) {
    any_diff = a[i].input != c[i].input ||
               a[i].arrival_vms != c[i].arrival_vms;
  }
  EXPECT_TRUE(any_diff);
}

TEST(ServeQosShed, RetryAfterReflectsTheCause) {
  // One metered tenant bursting against a wide-open queue: every shed must
  // be a quota shed, and the hint must be the tenant's own bucket refill
  // time — not the global queue estimate.
  llm::ModelSpec spec;
  spec.name = "sim-shed";
  spec.capability = 0.9;
  spec.input_price_per_1k = common::Money::FromDollars(0.001);
  spec.output_price_per_1k = common::Money::FromDollars(0.002);
  spec.latency_ms_per_1k_tokens = 100.0;
  auto model = std::make_shared<llm::SimulatedLlm>(spec, 3);
  model->RegisterSkill(std::make_unique<llm::FreeformSkill>());

  serve::Server::Options options;
  options.worker_threads = 2;
  options.virtual_concurrency = 8;
  options.queue_depth = 1000;
  serve::TenantConfig metered;
  metered.id = "metered";
  metered.weight = 1.0;
  metered.quota_tokens_per_vs = 100.0;
  metered.quota_burst_tokens = 150.0;
  metered.queue_limit = 1000;
  options.qos.tenants = {metered};
  serve::Server server(model, options);
  for (size_t i = 0; i < 30; ++i) {
    serve::Request req;
    req.id = i;
    req.tenant = "metered";
    req.arrival_vms = static_cast<double>(i) * 1.0;
    req.input = common::StrFormat("quota burst %zu", i);
    server.Submit(req);
  }
  size_t quota_sheds = 0;
  for (const auto& r : server.Drain()) {
    if (!r.shed) continue;
    ++quota_sheds;
    EXPECT_EQ(r.shed_cause, serve::ShedCause::kQuota);
    EXPECT_EQ(r.status.code(), common::StatusCode::kResourceExhausted);
    // The bucket refills ~0.1 tokens/vms and a request costs ~50 tokens:
    // the hint must point hundreds of virtual ms out, and never past the
    // time to refill a full request from empty.
    EXPECT_GT(r.retry_after_vms, 0.0);
    EXPECT_LE(r.retry_after_vms, 60.0 / 0.1);
  }
  EXPECT_GT(quota_sheds, 0u);
  // tenant_stats includes the synthesized catch-all "default" tenant.
  auto tenants = server.tenant_stats();
  ASSERT_EQ(tenants.size(), 2u);
  const serve::TenantStats* metered_stats = nullptr;
  for (const auto& t : tenants) {
    if (t.tenant == "metered") metered_stats = &t;
  }
  ASSERT_NE(metered_stats, nullptr);
  EXPECT_EQ(metered_stats->shed_quota, quota_sheds);
  EXPECT_EQ(metered_stats->shed_queue, 0u);
  EXPECT_EQ(metered_stats->submitted, 30u);
  EXPECT_EQ(metered_stats->admitted + quota_sheds, 30u);
  EXPECT_GT(metered_stats->spend, common::Money::Zero());
}

}  // namespace
}  // namespace llmdm
