// Coverage for API corners not exercised by the mainline suites: error
// paths, formatting edges, and small utilities.
#include <gtest/gtest.h>

#include "common/rng.h"
#include "core/integration/table_understanding.h"
#include "core/optimize/prompt_store.h"
#include "core/validate/validators.h"
#include "data/json.h"
#include "data/xml.h"
#include "llm/simulated.h"
#include "sql/database.h"

namespace llmdm {
namespace {

TEST(RngMisc, ExponentialIsPositiveWithRightMean) {
  common::Rng rng(1);
  double sum = 0;
  for (int i = 0; i < 5000; ++i) {
    double x = rng.Exponential(2.0);
    ASSERT_GT(x, 0.0);
    sum += x;
  }
  EXPECT_NEAR(sum / 5000.0, 0.5, 0.05);  // mean = 1/lambda
}

TEST(RngMisc, ForkedStreamsAreIndependent) {
  common::Rng parent(9);
  common::Rng a = parent.Fork(1);
  common::Rng b = parent.Fork(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.Next() == b.Next()) ++same;
  }
  EXPECT_LT(same, 2);
}

TEST(MoneyMisc, ToStringClampsDecimals) {
  common::Money m = common::Money::FromDollars(1.23456789);
  EXPECT_EQ(m.ToString(-3), "$1");
  EXPECT_EQ(m.ToString(99), "$1.234568");
  EXPECT_EQ((common::Money::FromDollars(-0.5)).ToString(2), "$-0.50");
}

TEST(JsonMisc, SetOverwritesExistingKey) {
  data::JsonValue obj = data::JsonValue::MakeObject();
  obj.Set("k", data::JsonValue::MakeNumber(1));
  obj.Set("k", data::JsonValue::MakeNumber(2));
  EXPECT_EQ(obj.members().size(), 1u);
  EXPECT_DOUBLE_EQ(obj.Find("k")->AsNumber(), 2.0);
}

TEST(XmlMisc, AttributeEscapingRoundTrips) {
  data::XmlNode node;
  node.tag = "n";
  node.attributes.emplace_back("a", "x < y & \"z\"");
  auto back = data::ParseXml(node.ToString());
  ASSERT_TRUE(back.ok());
  EXPECT_EQ((*back)->Attribute("a"), "x < y & \"z\"");
}

TEST(CatalogMisc, DescribeForPromptListsTables) {
  sql::Database db;
  ASSERT_TRUE(db.Execute("CREATE TABLE alpha (x INT)").ok());
  ASSERT_TRUE(db.Execute("CREATE TABLE beta (y TEXT, z DOUBLE)").ok());
  ASSERT_TRUE(db.Execute("INSERT INTO alpha VALUES (1), (2)").ok());
  std::string described = db.catalog().DescribeForPrompt();
  EXPECT_NE(described.find("alpha(x INT)"), std::string::npos);
  EXPECT_NE(described.find("2 rows"), std::string::npos);
  EXPECT_NE(described.find("beta(y TEXT, z DOUBLE)"), std::string::npos);
}

TEST(SkillMisc, MatchSkillRejectsMalformedInput) {
  auto models = llm::CreatePaperModelLadder(nullptr, 5);
  auto c = models[2]->Complete(llm::MakePrompt("match", "no separator here"));
  ASSERT_TRUE(c.ok());
  EXPECT_EQ(c->text, "no");
  EXPECT_LT(c->confidence, 0.2);
}

TEST(SkillMisc, CtaSkillHandlesEmptyInput) {
  auto models = llm::CreatePaperModelLadder(nullptr, 6);
  auto c = models[2]->Complete(llm::MakePrompt("cta", "   "));
  ASSERT_TRUE(c.ok());
  EXPECT_EQ(c->text, "unknown");
}

TEST(SkillMisc, Sql2NlNonAggregateFallsBack) {
  auto models = llm::CreatePaperModelLadder(nullptr, 7);
  auto c = models[2]->Complete(
      llm::MakePrompt("sql2nl", "SELECT name FROM stadium\n=> Olympic"));
  ASSERT_TRUE(c.ok());
  EXPECT_NE(c->text.find("Olympic"), std::string::npos);
  auto bad = models[2]->Complete(llm::MakePrompt("sql2nl", "no arrow marker"));
  ASSERT_TRUE(bad.ok());
  EXPECT_NE(bad->text.find("could not"), std::string::npos);
}

TEST(UsageMisc, ByModelBreakdownAndToString) {
  llm::UsageMeter meter;
  meter.Record("m1", 100, 10, common::Money::FromDollars(0.01), 5.0);
  meter.Record("m1", 200, 20, common::Money::FromDollars(0.02), 6.0);
  meter.Record("m2", 50, 5, common::Money::FromDollars(0.001), 1.0);
  EXPECT_EQ(meter.by_model().at("m1").calls, 2u);
  EXPECT_EQ(meter.by_model().at("m1").input_tokens, 300u);
  EXPECT_EQ(meter.by_model().at("m2").cost, common::Money::FromDollars(0.001));
  EXPECT_NE(meter.ToString().find("calls=3"), std::string::npos);
}

TEST(PromptStoreMisc, EvictsTheWorstPerformer) {
  optimize::PromptStore::Options options;
  options.capacity = 2;
  optimize::PromptStore store(options);
  uint64_t loser = store.Add("first prompt about topic alpha", "L");
  uint64_t winner = store.Add("second prompt about topic beta", "W");
  for (int i = 0; i < 10; ++i) {
    store.RecordOutcome(loser, false);
    store.RecordOutcome(winner, true);
  }
  store.Add("third prompt about topic gamma", "N");  // forces one eviction
  EXPECT_FALSE(store.Get(loser).has_value());
  ASSERT_TRUE(store.Get(winner).has_value());
  EXPECT_EQ(store.Get(winner)->output, "W");
}

TEST(CrowdMisc, ZeroWorkersRejects) {
  validate::CrowdValidator crowd(0, 0.9, 1);
  validate::Verdict v = crowd.Judge(true);
  EXPECT_FALSE(v.accepted);
}

TEST(TableUnderstandingMisc, DescribeAggregateRejectsMultiCell) {
  sql::Database db;
  ASSERT_TRUE(db.Execute("CREATE TABLE t (a INT)").ok());
  ASSERT_TRUE(db.Execute("INSERT INTO t VALUES (1), (2)").ok());
  auto models = llm::CreatePaperModelLadder(nullptr, 10);
  integration::TableUnderstanding tu(models[2]);
  EXPECT_FALSE(tu.DescribeAggregate(db, "SELECT a FROM t").ok());
  EXPECT_FALSE(tu.DescribeAggregate(db, "SELECT broken FROM").ok());
}

TEST(ValueMisc, HashConsistentWithEqualityForTextAndDate) {
  EXPECT_EQ(data::Value::Text("abc").Hash(), data::Value::Text("abc").Hash());
  EXPECT_NE(data::Value::Text("abc").Hash(), data::Value::Text("abd").Hash());
  EXPECT_EQ(data::Value::MakeDate(2024, 1, 2).Hash(),
            data::Value::MakeDate(2024, 1, 2).Hash());
  EXPECT_NE(data::Value::MakeDate(2024, 1, 2).Hash(),
            data::Value::MakeDate(2024, 2, 1).Hash());
}

TEST(PromptMisc, EmptyPromptStillRendersAndCounts) {
  llm::Prompt p;
  EXPECT_FALSE(p.Render().empty());  // the "[input]" frame is always there
  EXPECT_GT(p.CountInputTokens(), 0u);
}

}  // namespace
}  // namespace llmdm
