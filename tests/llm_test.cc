#include <gtest/gtest.h>

#include "common/string_util.h"
#include "data/nl2sql_workload.h"
#include "data/qa_workload.h"
#include "llm/deadline.h"
#include "llm/prefix_trie.h"
#include "llm/simulated.h"
#include "sql/database.h"
#include "text/tokenizer.h"

namespace llmdm::llm {
namespace {

class LlmTest : public ::testing::Test {
 protected:
  LlmTest() {
    common::Rng rng(101);
    kb_ = data::KnowledgeBase::Generate(60, rng);
    models_ = CreatePaperModelLadder(&kb_, 2024);
  }

  LlmModel& babbage() { return *models_[0]; }
  LlmModel& gpt35() { return *models_[1]; }
  LlmModel& gpt4() { return *models_[2]; }

  data::KnowledgeBase kb_;
  std::vector<std::shared_ptr<LlmModel>> models_;
};

TEST_F(LlmTest, PromptRenderAndTokens) {
  Prompt p = MakePrompt("qa", "Who is the advisor of Alice Adams?");
  p.system = "You are a helpful assistant.";
  p.examples.push_back({"Who is the mentor of Bob Baker?", "Carol Chen"});
  std::string rendered = p.Render();
  EXPECT_NE(rendered.find("[system]"), std::string::npos);
  EXPECT_NE(rendered.find("[example]"), std::string::npos);
  EXPECT_NE(rendered.find("[input]"), std::string::npos);
  EXPECT_GT(p.CountInputTokens(), 20u);
}

TEST_F(LlmTest, MemoizedTokenCountMatchesUncachedPath) {
  // CountInputTokens memoizes the prompt-prefix count (the metering
  // boundary counts the same system/few-shot prefix on every call); the
  // memoized total must equal counting the full rendered prompt directly,
  // for every shape of prompt — empty and non-empty sections, punctuation
  // and whitespace at the section seams, multi-line fields.
  std::vector<Prompt> prompts;
  prompts.push_back(MakePrompt("freeform", ""));
  prompts.push_back(MakePrompt("freeform", "plain input, no prefix at all"));
  {
    Prompt p = MakePrompt("qa", "?leading punctuation input");
    p.system = "You are a careful data engineer.";
    prompts.push_back(p);
  }
  {
    Prompt p = MakePrompt("nl2sql", "multi\nline\ninput text");
    p.instructions = "Translate the question to SQL;\nreturn SQL only.";
    p.examples.push_back({"stadiums that had concerts in 2014", "SELECT 1"});
    p.examples.push_back({"patients with high cholesterol?", "SELECT 2"});
    prompts.push_back(p);
  }
  {
    Prompt p = MakePrompt("qa", "   padded   input   ");
    p.system = "sys";
    p.instructions = "inst";
    p.examples.push_back({"", ""});  // empty example fields
    prompts.push_back(p);
  }
  for (const Prompt& p : prompts) {
    EXPECT_EQ(p.CountInputTokens(), text::CountTokens(p.Render()))
        << p.Render();
  }
  // Counting the same prompts again is served from the memo (hit delta),
  // and still agrees.
  auto before = text::GetTokenCountCacheStats();
  for (const Prompt& p : prompts) {
    EXPECT_EQ(p.CountInputTokens(), text::CountTokens(p.Render()));
  }
  auto after = text::GetTokenCountCacheStats();
  EXPECT_GE(after.hits - before.hits, prompts.size());
}

TEST_F(LlmTest, MemoKeySeparatesPartBoundaries) {
  // The two prefixes split the same bytes at different places. A memo key
  // that hashed a separator byte after each part, instead of each part's
  // length, gave both one key whenever a part held that byte (0x1F), so
  // the second prompt was billed at the first one's prefix count.
  Prompt first = MakePrompt("freeform", "which rows survived?");
  first.system = "a\x1F" "b";
  Prompt second = MakePrompt("freeform", "which rows survived?");
  second.system = "a";
  second.instructions = "b\x1F";
  ASSERT_NE(text::CountTokens(first.Render()),
            text::CountTokens(second.Render()));
  EXPECT_EQ(first.CountInputTokens(), text::CountTokens(first.Render()));
  EXPECT_EQ(second.CountInputTokens(), text::CountTokens(second.Render()));
}

TEST_F(LlmTest, DeterministicCompletions) {
  Prompt p = MakePrompt("qa", "Who is the advisor of " + kb_.entities()[0] + "?");
  auto a = gpt35().Complete(p);
  auto b = gpt35().Complete(p);
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_EQ(a->text, b->text);
  EXPECT_EQ(a->cost, b->cost);
}

TEST_F(LlmTest, SampleSaltGivesIndependentDraws) {
  // Across many questions, at least some completions must differ by salt
  // (hard questions on the small model flip between right and wrong).
  int diffs = 0;
  for (int i = 0; i < 20; ++i) {
    std::string subject = kb_.entities()[i % kb_.entities().size()];
    Prompt p = MakePrompt(
        "qa", data::RenderChainQuestion({"advisor", "manager"}, subject));
    Prompt p2 = p;
    p2.sample_salt = 1;
    auto a = babbage().Complete(p);
    auto b = babbage().Complete(p2);
    ASSERT_TRUE(a.ok() && b.ok());
    if (a->text != b->text) ++diffs;
  }
  EXPECT_GT(diffs, 0);
}

TEST_F(LlmTest, CostScalesWithModelAndTokens) {
  Prompt p = MakePrompt("qa", "Who is the advisor of " + kb_.entities()[1] + "?");
  auto small = babbage().Complete(p);
  auto large = gpt4().Complete(p);
  ASSERT_TRUE(small.ok() && large.ok());
  EXPECT_GT(large->cost, small->cost);
  // Longer prompt costs more on the same model.
  Prompt longer = p;
  for (int i = 0; i < 5; ++i) {
    longer.examples.push_back({"Who is the mentor of X?", "Y"});
  }
  auto long_result = gpt4().Complete(longer);
  ASSERT_TRUE(long_result.ok());
  EXPECT_GT(long_result->cost, large->cost);
}

TEST_F(LlmTest, AccuracyOrderedByCapability) {
  common::Rng rng(7);
  auto workload = data::GenerateQaWorkload(kb_, 120, {1.0, 1.0, 1.0}, rng);
  auto accuracy = [&](LlmModel& model) {
    int correct = 0;
    for (const auto& item : workload) {
      Prompt p = MakePrompt("qa", item.question);
      auto c = model.Complete(p);
      EXPECT_TRUE(c.ok());
      if (c.ok() && c->text == item.answer) ++correct;
    }
    return static_cast<double>(correct) / workload.size();
  };
  double acc_small = accuracy(babbage());
  double acc_mid = accuracy(gpt35());
  double acc_large = accuracy(gpt4());
  EXPECT_LT(acc_small, acc_mid);
  EXPECT_LT(acc_mid, acc_large);
  EXPECT_LT(acc_small, 0.55);
  EXPECT_GT(acc_large, 0.80);
}

TEST_F(LlmTest, HopsMakeQuestionsHarder) {
  common::Rng rng(8);
  auto easy = data::GenerateQaWorkload(kb_, 80, {1.0}, rng);
  auto hard = data::GenerateQaWorkload(kb_, 80, {0.0, 0.0, 1.0}, rng);
  auto accuracy = [&](const std::vector<data::QaItem>& items) {
    int correct = 0;
    for (const auto& item : items) {
      auto c = gpt35().Complete(MakePrompt("qa", item.question));
      if (c.ok() && c->text == item.answer) ++correct;
    }
    return static_cast<double>(correct) / items.size();
  };
  EXPECT_GT(accuracy(easy), accuracy(hard) + 0.1);
}

TEST_F(LlmTest, UsageMeterAccumulates) {
  UsageMeter meter;
  Prompt p = MakePrompt("qa", "Who is the advisor of " + kb_.entities()[2] + "?");
  ASSERT_TRUE(gpt35().CompleteMetered(p, &meter).ok());
  ASSERT_TRUE(gpt4().CompleteMetered(p, &meter).ok());
  EXPECT_EQ(meter.calls(), 2u);
  EXPECT_GT(meter.cost().micros(), 0);
  EXPECT_EQ(meter.by_model().size(), 2u);
  meter.Reset();
  EXPECT_EQ(meter.calls(), 0u);
}

TEST_F(LlmTest, UnknownTagFallsBackToFreeform) {
  Prompt p = MakePrompt("no_such_skill", "do something");
  auto c = gpt4().Complete(p);
  ASSERT_TRUE(c.ok());
  EXPECT_NE(c->text.find("Understood"), std::string::npos);
}

// ---- NL2SQL skill end-to-end against the SQL engine ------------------------

class Nl2SqlSkillTest : public ::testing::Test {
 protected:
  Nl2SqlSkillTest() {
    common::Rng rng(55);
    auto script = data::BuildStadiumDatabaseScript(10, {2014, 2015}, rng);
    auto r = db_.ExecuteScript(script);
    EXPECT_TRUE(r.ok()) << r.status().ToString();
    models_ = CreatePaperModelLadder(nullptr, 31337);
  }

  // Execution-match grading.
  bool Correct(const std::string& predicted_sql, const std::string& gold_sql) {
    auto gold = db_.Query(gold_sql);
    EXPECT_TRUE(gold.ok()) << gold_sql;
    auto pred = db_.Query(predicted_sql);
    if (!pred.ok()) return false;
    return gold.ok() && pred->BagEquals(*gold);
  }

  sql::Database db_;
  std::vector<std::shared_ptr<LlmModel>> models_;
};

TEST_F(Nl2SqlSkillTest, GoldSqlExecutes) {
  for (const auto& q : data::PaperQ1ToQ5()) {
    auto r = db_.Query(q.ToGoldSql());
    EXPECT_TRUE(r.ok()) << q.ToGoldSql() << " -> " << r.status().ToString();
  }
}

TEST_F(Nl2SqlSkillTest, NlRoundTripsThroughParser) {
  common::Rng rng(66);
  data::Nl2SqlWorkloadOptions options;
  options.num_queries = 30;
  auto workload = data::GenerateNl2SqlWorkload(options, rng);
  for (const auto& q : workload) {
    auto parsed = data::ParseNl2SqlQuestion(q.ToNaturalLanguage());
    ASSERT_TRUE(parsed.ok()) << q.ToNaturalLanguage();
    EXPECT_EQ(*parsed, q);
  }
}

TEST_F(Nl2SqlSkillTest, AccuracyImprovesWithModelSize) {
  common::Rng rng(67);
  data::Nl2SqlWorkloadOptions options;
  options.num_queries = 80;
  auto workload = data::GenerateNl2SqlWorkload(options, rng);
  auto accuracy = [&](LlmModel& model) {
    int correct = 0;
    for (const auto& q : workload) {
      Prompt p = MakePrompt("nl2sql", q.ToNaturalLanguage());
      auto c = model.Complete(p);
      EXPECT_TRUE(c.ok());
      if (c.ok() && Correct(c->text, q.ToGoldSql())) ++correct;
    }
    return static_cast<double>(correct) / workload.size();
  };
  double small = accuracy(*models_[0]);
  double large = accuracy(*models_[2]);
  EXPECT_LT(small, large);
  EXPECT_GT(large, 0.75);
}

TEST_F(Nl2SqlSkillTest, RelevantExamplesHelp) {
  common::Rng rng(68);
  data::Nl2SqlWorkloadOptions options;
  options.num_queries = 80;
  options.compound_rate = 1.0;
  auto workload = data::GenerateNl2SqlWorkload(options, rng);
  auto paper = data::PaperQ1ToQ5();
  auto accuracy = [&](bool with_examples) {
    int correct = 0;
    for (const auto& q : workload) {
      Prompt p = MakePrompt("nl2sql", q.ToNaturalLanguage());
      if (with_examples) {
        for (const auto& ex : paper) {
          p.examples.push_back({ex.ToNaturalLanguage(), ex.ToGoldSql()});
        }
      }
      auto c = models_[1]->Complete(p);
      if (c.ok() && Correct(c->text, q.ToGoldSql())) ++correct;
    }
    return static_cast<double>(correct) / workload.size();
  };
  EXPECT_GT(accuracy(true), accuracy(false));
}

// ---- tabular skills ------------------------------------------------------------

TEST(TabularSkillTest, PredictNumericViaIcl) {
  auto models = CreatePaperModelLadder(nullptr, 9);
  Prompt p = MakePrompt("tabular_predict", "x is 5");
  // y = 2x exactly; 5 -> 10.
  for (int x = 1; x <= 8; ++x) {
    if (x == 5) continue;
    p.examples.push_back({common::StrFormat("x is %d", x),
                          common::StrFormat("%d", 2 * x)});
  }
  auto c = models[2]->Complete(p);
  ASSERT_TRUE(c.ok());
  double v = 0;
  ASSERT_TRUE(common::ParseDouble(c->text, &v));
  EXPECT_NEAR(v, 10.0, 2.5);
}

TEST(TabularSkillTest, PredictCategoricalViaIcl) {
  auto models = CreatePaperModelLadder(nullptr, 10);
  Prompt p = MakePrompt("tabular_predict", "temp is 39.5; cough is yes");
  p.examples.push_back({"temp is 39.8; cough is yes", "flu"});
  p.examples.push_back({"temp is 39.2; cough is yes", "flu"});
  p.examples.push_back({"temp is 36.5; cough is no", "healthy"});
  p.examples.push_back({"temp is 36.8; cough is no", "healthy"});
  auto c = models[2]->Complete(p);
  ASSERT_TRUE(c.ok());
  EXPECT_EQ(c->text, "flu");
}

TEST(TabularSkillTest, GenerateMimicsSchema) {
  auto models = CreatePaperModelLadder(nullptr, 11);
  Prompt p = MakePrompt("tabular_generate", "generate one more row");
  p.examples.push_back({"age is 30; city is Boston", "ok"});
  p.examples.push_back({"age is 40; city is London", "ok"});
  p.examples.push_back({"age is 50; city is Boston", "ok"});
  auto c = models[2]->Complete(p);
  ASSERT_TRUE(c.ok());
  EXPECT_NE(c->text.find("age is "), std::string::npos);
  EXPECT_NE(c->text.find("; city is "), std::string::npos);
}

TEST(Sql2NlSkillTest, DescribesAggregate) {
  auto models = CreatePaperModelLadder(nullptr, 12);
  Prompt p = MakePrompt("sql2nl",
                        "SELECT AVG(salary) FROM employee\n=> 500.0");
  auto c = models[2]->Complete(p);
  ASSERT_TRUE(c.ok());
  EXPECT_NE(c->text.find("average"), std::string::npos);
  EXPECT_NE(c->text.find("employee"), std::string::npos);
  EXPECT_NE(c->text.find("500.0"), std::string::npos);
}

TEST(PrefixTrieTest, HandComputedSharedPrefixes) {
  // Exactness against a hand-computed trie over crafted strings:
  //
  //   insert "shared head: alpha"  -> trie empty, shares 0
  //   insert "shared head: beta"   -> walks "shared head: " (13), diverges
  //   insert "shared head: alpine" -> walks "shared head: alp" (16) along
  //                                   the "alpha" path before diverging
  //   insert "unrelated"           -> shares 0 with every path
  //   insert "shared head: beta"   -> exact duplicate: the whole string (17)
  PrefixTrie trie;
  EXPECT_EQ(trie.Insert("shared head: alpha"), 0u);
  EXPECT_EQ(trie.Insert("shared head: beta"), 13u);
  EXPECT_EQ(trie.Insert("shared head: alpine"), 16u);
  EXPECT_EQ(trie.Insert("unrelated"), 0u);
  EXPECT_EQ(trie.Insert("shared head: beta"), 17u);
  // The duplicate did not add a path.
  EXPECT_EQ(trie.size(), 4u);
  // A prefix of an existing path shares its whole length.
  EXPECT_EQ(trie.Insert("shared head:"), 12u);
}

TEST(PrefixTrieTest, EmptyStringAndSingleInsert) {
  PrefixTrie trie;
  EXPECT_EQ(trie.Insert(""), 0u);
  EXPECT_EQ(trie.Insert("x"), 0u);  // shares only the empty prefix
  EXPECT_EQ(trie.Insert(""), 0u);  // duplicate of the empty string
  EXPECT_EQ(trie.size(), 2u);
}

ModelSpec DiscountedSpec() {
  ModelSpec spec;
  spec.name = "sim-batch";
  spec.capability = 0.9;
  spec.input_price_per_1k = common::Money::FromDollars(0.010);
  spec.cached_input_price_per_1k = common::Money::FromDollars(0.001);
  spec.output_price_per_1k = common::Money::FromDollars(0.020);
  spec.latency_ms_per_1k_tokens = 1000.0;  // 1 ms per token: easy arithmetic
  return spec;
}

std::unique_ptr<SimulatedLlm> MakeDiscountedModel() {
  auto model = std::make_unique<SimulatedLlm>(DiscountedSpec(), 7);
  model->RegisterSkill(std::make_unique<FreeformSkill>());
  return model;
}

TEST(SimulatedLlmBatch, SharedPrefixPricedAtCachedTierExactly) {
  // Three crafted prompts whose rendered forms share hand-checkable
  // prefixes (freeform prompts render with identical instruction headers,
  // so the divergence point is inside the [input] section).
  auto model = MakeDiscountedModel();
  std::vector<Prompt> prompts;
  prompts.push_back(MakePrompt("freeform", "analyze shard alpha"));
  prompts.push_back(MakePrompt("freeform", "analyze shard beta"));
  prompts.push_back(MakePrompt("freeform", "totally different question"));
  auto results = model->CompleteBatch(prompts);
  ASSERT_EQ(results.size(), prompts.size());
  for (const auto& r : results) ASSERT_TRUE(r.ok()) << r.status().ToString();

  const ModelSpec spec = DiscountedSpec();
  auto price = [](common::Money per_1k, size_t tokens) {
    return common::Money::FromMicros(per_1k.micros() *
                                     static_cast<int64_t>(tokens) / 1000);
  };
  // Hand-compute each member's expected shared prefix with the prompts
  // inserted before it (the trie sees them in batch order).
  std::vector<std::string> rendered;
  for (const Prompt& p : prompts) rendered.push_back(p.Render());
  auto lcp = [](const std::string& a, const std::string& b) {
    size_t n = std::min(a.size(), b.size());
    size_t i = 0;
    while (i < n && a[i] == b[i]) ++i;
    return i;
  };
  const size_t expected_shared[3] = {
      0,                                // first path: nothing to share with
      lcp(rendered[1], rendered[0]),    // walks prompt 0's path
      std::max(lcp(rendered[2], rendered[0]), lcp(rendered[2], rendered[1]))};
  ASSERT_GT(expected_shared[1], 0u);  // the crafted prompts really do share
  ASSERT_GT(expected_shared[2], 0u);  // at least the instruction header

  for (size_t i = 0; i < prompts.size(); ++i) {
    const Completion& c = *results[i];
    auto per_call = model->Complete(prompts[i]);
    ASSERT_TRUE(per_call.ok());
    // Text and token counts are the per-call answer (batching only changes
    // how the input is billed, never what the model says).
    EXPECT_EQ(c.text, per_call->text);
    EXPECT_EQ(c.confidence, per_call->confidence);
    EXPECT_EQ(c.input_tokens, per_call->input_tokens);
    EXPECT_EQ(c.output_tokens, per_call->output_tokens);
    // The cached token count is the shared prefix re-tokenized (clamped to
    // the full input count), and the price splits exactly across tiers.
    const size_t expected_cached =
        std::min(text::CountTokens(std::string_view(rendered[i])
                                       .substr(0, expected_shared[i])),
                 c.input_tokens);
    EXPECT_EQ(c.prefix_cached_tokens, expected_cached) << "member " << i;
    const size_t fresh = c.input_tokens - expected_cached;
    EXPECT_EQ(c.cost, price(spec.input_price_per_1k, fresh) +
                          price(spec.cached_input_price_per_1k, expected_cached) +
                          price(spec.output_price_per_1k, c.output_tokens));
    // Cached prefill is skipped: 1 ms per fresh/output token.
    EXPECT_DOUBLE_EQ(c.latency_ms,
                     static_cast<double>(fresh + c.output_tokens));
  }
  EXPECT_EQ(results[0]->prefix_cached_tokens, 0u);
  EXPECT_GT(results[1]->prefix_cached_tokens, 0u);
  EXPECT_LT(results[1]->cost, model->Complete(prompts[1])->cost);
}

TEST(SimulatedLlmBatch, NoCachedPriceMeansPerCallBehaviour) {
  // cached_input_price_per_1k == 0 disables the discount entirely: the
  // batched path must be byte-identical to per-call completion, cost and
  // latency included (this is what keeps Tables I–III stable).
  ModelSpec spec = DiscountedSpec();
  spec.cached_input_price_per_1k = common::Money::Zero();
  auto model = std::make_unique<SimulatedLlm>(spec, 7);
  model->RegisterSkill(std::make_unique<FreeformSkill>());
  std::vector<Prompt> prompts;
  prompts.push_back(MakePrompt("freeform", "analyze shard alpha"));
  prompts.push_back(MakePrompt("freeform", "analyze shard beta"));
  auto results = model->CompleteBatch(prompts);
  ASSERT_EQ(results.size(), 2u);
  for (size_t i = 0; i < prompts.size(); ++i) {
    ASSERT_TRUE(results[i].ok());
    auto per_call = model->Complete(prompts[i]);
    ASSERT_TRUE(per_call.ok());
    EXPECT_EQ(results[i]->text, per_call->text);
    EXPECT_EQ(results[i]->cost, per_call->cost);
    EXPECT_DOUBLE_EQ(results[i]->latency_ms, per_call->latency_ms);
    EXPECT_EQ(results[i]->prefix_cached_tokens, 0u);
  }
}

TEST(SimulatedLlmBatch, ExhaustedDeadlineFailsFastAndStaysOutOfTrie) {
  auto model = MakeDiscountedModel();
  std::vector<Prompt> prompts;
  prompts.push_back(MakePrompt("freeform", "analyze shard alpha"));
  prompts.push_back(MakePrompt("freeform", "analyze shard alpine"));
  prompts.push_back(MakePrompt("freeform", "analyze shard alps"));
  // The middle member's budget is already gone: it must come back Timeout
  // — and must NOT have seeded the trie, so the third member's shared
  // prefix is computed against member 0 only.
  prompts[1].deadline = std::make_shared<Deadline>(0.0);
  auto results = model->CompleteBatch(prompts);
  ASSERT_EQ(results.size(), 3u);
  ASSERT_TRUE(results[0].ok());
  EXPECT_EQ(results[1].status().code(), common::StatusCode::kTimeout);
  ASSERT_TRUE(results[2].ok());

  // Recompute the run with the dead member absent: member 2's billing must
  // match a two-member batch of {alpha, alps}.
  auto control = MakeDiscountedModel();
  std::vector<Prompt> two;
  two.push_back(MakePrompt("freeform", "analyze shard alpha"));
  two.push_back(MakePrompt("freeform", "analyze shard alps"));
  auto control_results = control->CompleteBatch(two);
  ASSERT_TRUE(control_results[1].ok());
  EXPECT_EQ(results[2]->prefix_cached_tokens,
            control_results[1]->prefix_cached_tokens);
  EXPECT_EQ(results[2]->cost, control_results[1]->cost);
}

}  // namespace
}  // namespace llmdm::llm
