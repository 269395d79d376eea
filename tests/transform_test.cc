#include <gtest/gtest.h>

#include "common/string_util.h"
#include "core/transform/column_pattern.h"
#include "core/transform/nl2sql.h"
#include "core/transform/nl2transaction.h"
#include "core/transform/pipeline_rec.h"
#include "core/transform/table_transform.h"
#include "data/tabular_gen.h"
#include "data/txn_workload.h"
#include "llm/simulated.h"
#include "text/tokenizer.h"

namespace llmdm::transform {
namespace {

// ---- NL2SQL engine ---------------------------------------------------------

class Nl2SqlEngineTest : public ::testing::Test {
 protected:
  Nl2SqlEngineTest() {
    common::Rng rng(21);
    auto script = data::BuildStadiumDatabaseScript(10, {2014, 2015}, rng);
    EXPECT_TRUE(db_.ExecuteScript(script).ok());
    models_ = llm::CreatePaperModelLadder(nullptr, 555);
  }

  sql::Database db_;
  std::vector<std::shared_ptr<llm::LlmModel>> models_;
};

TEST_F(Nl2SqlEngineTest, TranslatesAndExecutes) {
  Nl2SqlEngine engine(models_[2], nullptr);
  llm::UsageMeter meter;
  size_t executed = 0;
  auto paper = data::PaperQ1ToQ5();
  for (const auto& q : paper) {
    auto r = engine.Translate(q.ToNaturalLanguage(), db_, &meter);
    ASSERT_TRUE(r.ok());
    if (r->executed) ++executed;
  }
  // The big model may still fumble an individual query (it is a model, not
  // an oracle), but the engine must land most of the paper's Q1-Q5.
  EXPECT_GE(executed, paper.size() - 1);
  EXPECT_GT(meter.calls(), 0u);
}

TEST_F(Nl2SqlEngineTest, PromptStoreFeedbackLoop) {
  optimize::PromptStore store(optimize::PromptStore::Options{});
  for (const auto& q : data::PaperQ1ToQ5()) {
    store.Add(q.ToNaturalLanguage(), q.ToGoldSql());
  }
  Nl2SqlEngine engine(models_[1], &store);
  auto r = engine.Translate(
      "What are the names of stadiums that had sports meetings in 2014?", db_);
  ASSERT_TRUE(r.ok());
  // The store must have accumulated outcome feedback.
  size_t uses = 0;
  for (uint64_t id = 0; id < 5; ++id) {
    const auto p = store.Get(id);
    if (p.has_value()) uses += p->uses;
  }
  EXPECT_GT(uses, 0u);
}

// Deterministic fault model: breaks on compound questions, perfect on
// atomic ones — isolates the chain-of-thought fallback path.
class CompoundBreakerModel : public llm::LlmModel {
 public:
  CompoundBreakerModel() {
    spec_.name = "compound-breaker";
    spec_.capability = 1.0;
    spec_.input_price_per_1k = common::Money::FromDollars(0.001);
    spec_.output_price_per_1k = common::Money::FromDollars(0.001);
  }
  const llm::ModelSpec& spec() const override { return spec_; }
  common::Result<llm::Completion> Complete(const llm::Prompt& p) override {
    llm::Completion c;
    c.model = spec_.name;
    c.input_tokens = p.CountInputTokens();
    auto parsed = data::ParseNl2SqlQuestion(p.input);
    if (!parsed.ok()) {
      c.text = "-- cannot translate";
    } else if (parsed->second.has_value()) {
      c.text = "SELEC broken FROM nowhere";  // compound: syntax damage
    } else {
      c.text = parsed->ToGoldSql();  // atomic: perfect
    }
    c.output_tokens = text::CountTokens(c.text);
    return c;
  }

 private:
  llm::ModelSpec spec_;
};

TEST_F(Nl2SqlEngineTest, CotFallbackOnBrokenDirectAnswer) {
  Nl2SqlEngine engine(std::make_shared<CompoundBreakerModel>(), nullptr);
  auto r = engine.Translate(
      "What are the names of stadiums that had concerts in 2014 or had "
      "sports meetings in 2015?",
      db_);
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r->used_decomposition);
  EXPECT_TRUE(r->parse_valid);
  EXPECT_TRUE(r->executed);
  // The recombined set-algebra SQL must match the gold compound SQL.
  auto gold = db_.Query(data::PaperQ1ToQ5()[0].ToGoldSql());
  ASSERT_TRUE(gold.ok());
  EXPECT_TRUE(r->result.BagEquals(*gold));
}

// ---- NL2Transaction -----------------------------------------------------------

class Nl2TxnTest : public ::testing::Test {
 protected:
  Nl2TxnTest() {
    EXPECT_TRUE(db_.ExecuteScript(data::BuildAccountsDatabaseScript(
                                      {"Alice", "Bob", "Express"}, 5000))
                    .ok());
    models_ = llm::CreatePaperModelLadder(nullptr, 556);
  }

  int64_t Balance(const std::string& owner) {
    auto r = db_.Query("SELECT balance FROM accounts WHERE owner = '" + owner +
                       "'");
    EXPECT_TRUE(r.ok());
    return r->at(0, 0).AsInt();
  }

  sql::Database db_;
  std::vector<std::shared_ptr<llm::LlmModel>> models_;
};

TEST_F(Nl2TxnTest, PaperExampleCommitsAtomically) {
  Nl2TransactionEngine engine(models_[2]);
  // The paper's laptop purchase: $1000 Alice->Bob, $5 Bob->Express freight.
  auto r = engine.Run(
      "Transfer 1000 dollars from Alice to Bob. Then transfer 5 dollars from "
      "Bob to Express.",
      db_);
  ASSERT_TRUE(r.ok());
  ASSERT_TRUE(r->committed) << r->failure;
  EXPECT_EQ(Balance("Alice"), 4000);
  EXPECT_EQ(Balance("Bob"), 5995);
  EXPECT_EQ(Balance("Express"), 5005);
  auto ledger = db_.Query("SELECT COUNT(*) FROM transfers");
  EXPECT_EQ(ledger->at(0, 0).AsInt(), 2);
}

TEST_F(Nl2TxnTest, MoneyConservedAcrossWorkload) {
  // Whatever the model does (including its corrupted outputs), the total
  // money in the system must be conserved for every *committed* transaction;
  // structural checks + atomicity are the guardrails that guarantee it.
  Nl2TransactionEngine engine(models_[0]);
  common::Rng rng(23);
  auto workload =
      data::GenerateTxnWorkload(25, {"Alice", "Bob", "Express"}, rng);
  int64_t total_before =
      db_.Query("SELECT SUM(balance) FROM accounts")->at(0, 0).AsInt();
  size_t committed = 0;
  for (const auto& request : workload) {
    auto r = engine.Run(data::RenderTxnRequest(request), db_);
    ASSERT_TRUE(r.ok());
    if (r->committed) ++committed;
    int64_t total_now =
        db_.Query("SELECT SUM(balance) FROM accounts")->at(0, 0).AsInt();
    EXPECT_EQ(total_now, total_before) << "money leaked or minted";
  }
  EXPECT_GT(committed, 0u);
}

TEST_F(Nl2TxnTest, GarbageRequestFailsCleanly) {
  Nl2TransactionEngine engine(models_[2]);
  auto r = engine.Run("Please summarize this paper.", db_);
  ASSERT_TRUE(r.ok());
  EXPECT_FALSE(r->committed);
}

// ---- table transforms ------------------------------------------------------------

TEST(XmlToTable, RelationalizesRecords) {
  auto root = data::ParseXml(R"(<patients>
    <patient id="1"><name>Alice</name><age>34</age></patient>
    <patient id="2"><name>Bob</name></patient>
    <patient id="3"><name>Carol</name><age>41</age></patient>
  </patients>)");
  ASSERT_TRUE(root.ok());
  auto table = XmlToTable(**root);
  ASSERT_TRUE(table.ok());
  EXPECT_EQ(table->NumRows(), 3u);
  EXPECT_EQ(table->NumColumns(), 3u);  // id, name, age
  EXPECT_EQ(table->schema().Find("age").has_value(), true);
  // Missing age -> NULL; types inferred.
  size_t age = *table->schema().Find("age");
  EXPECT_TRUE(table->at(1, age).is_null());
  EXPECT_EQ(table->at(0, age), data::Value::Int(34));
}

TEST(JsonToTable, FlattensNestedObjects) {
  auto doc = data::ParseJson(
      R"([{"name":"Alice","address":{"city":"Boston","zip":"02134"}},
          {"name":"Bob","address":{"city":"Tokyo"}}])");
  ASSERT_TRUE(doc.ok());
  auto table = JsonToTable(*doc);
  ASSERT_TRUE(table.ok());
  EXPECT_EQ(table->NumRows(), 2u);
  ASSERT_TRUE(table->schema().Find("address.city").has_value());
  size_t zip = *table->schema().Find("address.zip");
  EXPECT_TRUE(table->at(1, zip).is_null());
}

TEST(JsonToTable, RejectsNonArray) {
  auto doc = data::ParseJson(R"({"a": 1})");
  ASSERT_TRUE(doc.ok());
  EXPECT_FALSE(JsonToTable(*doc).ok());
}

TEST(GridOps, FillDownAndDropEmpty) {
  Grid grid{{"region", "sales"}, {"east", "10"}, {"", "20"}, {"west", "30"},
            {"", ""}};
  Grid filled = ApplyOp(grid, TableOp::kFillDown);
  EXPECT_EQ(filled[2][0], "east");
  Grid dropped = ApplyOp(grid, TableOp::kDropEmptyRows);
  EXPECT_EQ(dropped.size(), 4u);
}

TEST(GridOps, TransposeTwiceIsIdentity) {
  Grid grid{{"a", "b", "c"}, {"1", "2", "3"}};
  EXPECT_EQ(ApplyOp(ApplyOp(grid, TableOp::kTranspose), TableOp::kTranspose),
            grid);
}

TEST(GridOps, UnpivotMeltsWideTable) {
  Grid grid{{"store", "q1", "q2"}, {"north", "5", "7"}, {"south", "3", "4"}};
  Grid melted = ApplyOp(grid, TableOp::kUnpivot);
  ASSERT_EQ(melted.size(), 5u);  // header + 4 (store, quarter, value) rows
  EXPECT_EQ(melted[1], (std::vector<std::string>{"north", "q1", "5"}));
}

TEST(RelationalScore, PrefersCleanTables) {
  Grid clean{{"name", "age"}, {"alice", "30"}, {"bob", "25"}};
  Grid messy{{"Report for 2023", ""}, {"", ""}, {"alice", "30"}};
  EXPECT_GT(RelationalScore(clean), RelationalScore(messy));
}

TEST(Synthesize, RepairsTransposedTable) {
  // A table stored sideways: synthesis should discover the transpose.
  Grid sideways{{"name", "alice", "bob", "carol"},
                {"age", "30", "25", "41"},
                {"city", "Boston", "Tokyo", "Berlin"}};
  SynthesisResult result = SynthesizeRelationalization(sideways);
  ASSERT_FALSE(result.program.empty());
  EXPECT_EQ(result.program[0], TableOp::kTranspose);
  auto table = GridToTable(result.transformed, "people");
  ASSERT_TRUE(table.ok());
  EXPECT_EQ(table->NumRows(), 3u);
  EXPECT_EQ(table->schema().column(1).name, "age");
  EXPECT_EQ(table->schema().column(1).type, data::ColumnType::kInt64);
}

TEST(Synthesize, CleansMergedCellSpreadsheet) {
  Grid merged{{"region", "store", "sales"},
              {"east", "a", "10"},
              {"", "b", "20"},
              {"west", "c", "30"},
              {"", "", ""}};
  SynthesisResult result = SynthesizeRelationalization(merged);
  auto table = GridToTable(result.transformed, "sales");
  ASSERT_TRUE(table.ok());
  EXPECT_EQ(table->NumRows(), 3u);
  // Fill-down must have repaired the merged region cells.
  auto region = table->ColumnValues("region");
  ASSERT_TRUE(region.ok());
  EXPECT_EQ((*region)[1], data::Value::Text("east"));
}

// ---- column patterns -----------------------------------------------------------

TEST(ColumnPattern, MinesPaperExample) {
  auto p = MineColumnPattern({"Aug 14 2023", "Sep 02 2023", "Jan 31 2024"});
  ASSERT_TRUE(p.ok());
  EXPECT_EQ(PatternToString(*p), "<letter>{3} <digit>{2} <digit>{4}");
  EXPECT_TRUE(MatchesPattern(*p, "Dec 25 2025"));
  EXPECT_FALSE(MatchesPattern(*p, "8/14/2023"));
}

TEST(ColumnPattern, LengthRangesGeneralize) {
  auto p = MineColumnPattern({"a1", "ab12", "abc123"});
  ASSERT_TRUE(p.ok());
  EXPECT_EQ(PatternToString(*p), "<letter>{1,3}<digit>{1,3}");
  EXPECT_TRUE(MatchesPattern(*p, "xy99"));
  EXPECT_FALSE(MatchesPattern(*p, "xyzw9999"));
}

TEST(ColumnPattern, StructureMismatchFails) {
  EXPECT_FALSE(MineColumnPattern({"Aug 14 2023", "8/14/2023"}).ok());
}

TEST(ColumnTransform, SynthesizesDateReformat) {
  auto t = ColumnTransform::Synthesize({{"Aug 14 2023", "8/14/2023"},
                                        {"Jan 02 2024", "1/2/2024"}});
  ASSERT_TRUE(t.ok()) << t.status().ToString();
  auto applied = t->Apply("Dec 25 2025");
  ASSERT_TRUE(applied.ok());
  EXPECT_EQ(*applied, "12/25/2025");
  EXPECT_EQ(t->Describe(), "date: month_d_y -> slash_mdy");
}

TEST(ColumnTransform, SynthesizesIsoConversion) {
  auto t = ColumnTransform::Synthesize({{"2023-08-14", "14 Aug 2023"}});
  ASSERT_TRUE(t.ok());
  EXPECT_EQ(*t->Apply("2024-01-02"), "2 Jan 2024");
}

TEST(ColumnTransform, SynthesizesTokenRearrangement) {
  auto t = ColumnTransform::Synthesize({{"Doe, John", "John Doe"},
                                        {"Smith, Jane", "Jane Smith"}});
  ASSERT_TRUE(t.ok());
  EXPECT_EQ(*t->Apply("Curie, Marie"), "Marie Curie");
}

TEST(ColumnTransform, UnlearnableExamplesRejected) {
  EXPECT_FALSE(
      ColumnTransform::Synthesize({{"abc", "completely unrelated zz"}}).ok());
}

TEST(ReformatDateHelper, AllStylesRoundTrip) {
  const char* variants[] = {"2023-08-14", "8/14/2023", "Aug 14 2023",
                            "14 Aug 2023"};
  for (const char* v : variants) {
    auto iso = ReformatDate(v, DateStyle::kIso);
    ASSERT_TRUE(iso.ok()) << v;
    EXPECT_EQ(*iso, "2023-08-14");
  }
}

TEST(ReformatDateHelper, BothDateParsersRejectDaysTheMonthLacks) {
  // Month ends, leap days and century years, through data::ParseIsoDate
  // and through column_pattern's parser in every style.
  struct Case {
    int year, month, day;
    bool exists;
  };
  const Case cases[] = {
      {2023, 2, 28, true},  {2023, 2, 29, false}, {2024, 2, 29, true},
      {2024, 2, 30, false}, {1900, 2, 29, false}, {2000, 2, 29, true},
      {2023, 4, 30, true},  {2023, 4, 31, false}, {2023, 6, 31, false},
      {2023, 12, 31, true}, {2023, 12, 32, false}};
  const char* const kMonths[] = {"Jan", "Feb", "Mar", "Apr", "May", "Jun",
                                 "Jul", "Aug", "Sep", "Oct", "Nov", "Dec"};
  for (const Case& c : cases) {
    const std::string iso =
        common::StrFormat("%04d-%02d-%02d", c.year, c.month, c.day);
    data::Date parsed;
    EXPECT_EQ(data::ParseIsoDate(iso, &parsed), c.exists) << iso;
    const char* month = kMonths[c.month - 1];
    const std::string styles[] = {
        iso, common::StrFormat("%d/%d/%d", c.month, c.day, c.year),
        common::StrFormat("%s %d %d", month, c.day, c.year),
        common::StrFormat("%d %s %d", c.day, month, c.year)};
    for (const std::string& value : styles) {
      auto reformatted = ReformatDate(value, DateStyle::kIso);
      EXPECT_EQ(reformatted.ok(), c.exists) << value;
      if (reformatted.ok()) {
        EXPECT_EQ(*reformatted, iso) << value;
      }
    }
  }
}

// A digit run too long for an int fails the style match. std::stoi used to
// throw out of the library on it, through DetectDateStyle, ReformatDate
// and Synthesize. The largest int still parses.
TEST(ReformatDateHelper, DigitRunsPastAnIntFailTheMatch) {
  EXPECT_FALSE(ReformatDate("1/2/99999999999", DateStyle::kIso).ok());
  EXPECT_FALSE(DetectDateStyle("99999999999-01-02").ok());
  EXPECT_FALSE(DetectDateStyle("Aug 99999999999 2023").ok());
  EXPECT_FALSE(DetectDateStyle("99999999999 Aug 2023").ok());
  EXPECT_FALSE(ReformatDate("1/2/2147483648", DateStyle::kIso).ok());
  auto widest = ReformatDate("1/2/2147483647", DateStyle::kIso);
  ASSERT_TRUE(widest.ok());
  EXPECT_EQ(*widest, "2147483647-01-02");
  EXPECT_FALSE(DetectDateStyle("1/2/").ok());
  EXPECT_FALSE(
      ColumnTransform::Synthesize({{"1/2/99999999999", "2023-01-02"}}).ok());
}

TEST(PatternValidator, DetectsDrift) {
  auto validator =
      PatternValidator::FromReference({"8/14/2023", "1/2/2024", "12/31/2023"});
  ASSERT_TRUE(validator.ok());
  auto clean = validator->Validate({"3/4/2024", "5/6/2024"});
  EXPECT_FALSE(clean.drifted);
  EXPECT_DOUBLE_EQ(clean.match_rate, 1.0);
  auto drifted = validator->Validate(
      {"2024-03-04", "2024-05-06", "7/8/2024"}, 0.9);
  EXPECT_TRUE(drifted.drifted);
  EXPECT_EQ(drifted.mismatched, 2u);
  EXPECT_EQ(drifted.examples_of_mismatch.size(), 2u);
}

// ---- pipeline recommendation ------------------------------------------------------

TEST(PipelineRecommender, FindsBeneficialPipeline) {
  common::Rng rng(31);
  data::PatientDataOptions options;
  options.num_rows = 240;
  data::Table patients = data::GeneratePatientTable(options, rng);
  // Make raw data hostile: missing values + wild outliers.
  data::InjectMissing(&patients, "bmi", 0.2, rng);
  (*patients.mutable_row(0))[*patients.schema().Find("systolic_bp")] =
      data::Value::Int(99999);

  PipelineRecommender::Options rec_options;
  rec_options.max_depth = 2;
  PipelineRecommender recommender(rec_options);
  auto candidates = recommender.Recommend(patients, "has_heart_disease");
  ASSERT_TRUE(candidates.ok());
  ASSERT_GT(candidates->size(), 1u);
  // The recommendation must not be worse than doing nothing (the empty
  // pipeline is among the candidates).
  double baseline = 0;
  for (const auto& c : *candidates) {
    if (c.ops.empty()) baseline = c.holdout_accuracy;
  }
  EXPECT_GE(candidates->front().holdout_accuracy, baseline);
  // Sorted best-first.
  for (size_t i = 1; i < candidates->size(); ++i) {
    EXPECT_GE((*candidates)[i - 1].holdout_accuracy,
              (*candidates)[i].holdout_accuracy);
  }
}

TEST(PrepOps, ImputeFillsNulls) {
  common::Rng rng(32);
  data::PatientDataOptions options;
  options.num_rows = 50;
  data::Table patients = data::GeneratePatientTable(options, rng);
  data::InjectMissing(&patients, "bmi", 0.3, rng);
  auto imputed = ApplyPrepOp(patients, "has_heart_disease",
                             PrepOp::kImputeMean);
  ASSERT_TRUE(imputed.ok());
  auto values = imputed->ColumnValues("bmi");
  for (const auto& v : *values) EXPECT_FALSE(v.is_null());
}

TEST(PrepOps, StandardizeCentersColumns) {
  common::Rng rng(33);
  data::PatientDataOptions options;
  options.num_rows = 100;
  data::Table patients = data::GeneratePatientTable(options, rng);
  auto standardized =
      ApplyPrepOp(patients, "has_heart_disease", PrepOp::kStandardize);
  ASSERT_TRUE(standardized.ok());
  auto ages = standardized->ColumnValues("age");
  double mean = 0;
  for (const auto& v : *ages) mean += v.AsDouble();
  mean /= double(ages->size());
  EXPECT_NEAR(mean, 0.0, 1e-9);
}

}  // namespace
}  // namespace llmdm::transform
