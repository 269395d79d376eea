#include <gtest/gtest.h>

#include "common/string_util.h"
#include "core/integration/cleaning.h"
#include "core/integration/column_annotation.h"
#include "core/integration/entity_resolution.h"
#include "core/integration/table_understanding.h"
#include "data/tabular_gen.h"
#include "llm/simulated.h"
#include "text/tokenizer.h"

namespace llmdm::integration {
namespace {

class IntegrationTest : public ::testing::Test {
 protected:
  IntegrationTest() : rng_(61) {
    models_ = llm::CreatePaperModelLadder(nullptr, 616);
  }

  common::Rng rng_;
  std::vector<std::shared_ptr<llm::LlmModel>> models_;
};

// ---- entity resolution ---------------------------------------------------------

TEST_F(IntegrationTest, ErClearPairsResolveCorrectly) {
  EntityResolver resolver(models_[2]);
  auto examples = data::GenerateErWorkload(6, 0.3, rng_);
  auto same = resolver.Match("Acme Laptop Model 450", "Acme Laptop Model 450",
                             examples);
  ASSERT_TRUE(same.ok());
  EXPECT_TRUE(*same);
  auto different = resolver.Match("Acme Laptop Model 450",
                                  "Umbrella Camera Model 900", examples);
  ASSERT_TRUE(different.ok());
  EXPECT_FALSE(*different);
}

TEST_F(IntegrationTest, ErBlockingSkipsDisjointPairs) {
  EntityResolver resolver(models_[2]);
  llm::UsageMeter meter;
  auto r = resolver.Match("alpha beta", "gamma delta", {}, &meter);
  ASSERT_TRUE(r.ok());
  EXPECT_FALSE(*r);
  EXPECT_EQ(meter.calls(), 0u);  // blocked before reaching the model
}

TEST_F(IntegrationTest, ErQualityOrderedByModelSize) {
  auto examples = data::GenerateErWorkload(8, 0.5, rng_);
  auto workload = data::GenerateErWorkload(120, 0.5, rng_);
  auto f1 = [&](size_t model_index) {
    EntityResolver resolver(models_[model_index]);
    auto metrics = resolver.Evaluate(workload, examples);
    EXPECT_TRUE(metrics.ok());
    return metrics->F1();
  };
  double small = f1(0);
  double large = f1(2);
  EXPECT_GT(large, small);
  EXPECT_GT(large, 0.8);
}

TEST(MatchMetrics, Arithmetic) {
  MatchMetrics m;
  m.true_positives = 8;
  m.false_positives = 2;
  m.false_negatives = 4;
  m.true_negatives = 6;
  EXPECT_DOUBLE_EQ(m.Precision(), 0.8);
  EXPECT_NEAR(m.Recall(), 8.0 / 12.0, 1e-12);
  EXPECT_NEAR(m.F1(), 2 * 0.8 * (8.0 / 12.0) / (0.8 + 8.0 / 12.0), 1e-12);
  EXPECT_DOUBLE_EQ(m.Accuracy(), 0.7);
}

// ---- schema matching -----------------------------------------------------------

TEST_F(IntegrationTest, SchemaMatcherFindsCorrespondences) {
  data::Table left("patients_a",
                   data::Schema({{"patient_name", data::ColumnType::kText, true},
                                 {"age_years", data::ColumnType::kInt64, true}}));
  left.AppendRowUnchecked({data::Value::Text("Alice Adams"), data::Value::Int(30)});
  left.AppendRowUnchecked({data::Value::Text("Bob Baker"), data::Value::Int(25)});
  data::Table right("patients_b",
                    data::Schema({{"name", data::ColumnType::kText, true},
                                  {"age", data::ColumnType::kInt64, true},
                                  {"city", data::ColumnType::kText, true}}));
  right.AppendRowUnchecked({data::Value::Text("Alice Adams"),
                            data::Value::Int(31), data::Value::Text("Boston")});
  right.AppendRowUnchecked({data::Value::Text("Bob Baker"),
                            data::Value::Int(26), data::Value::Text("Tokyo")});

  SchemaMatcher matcher(models_[2]);
  auto matches = matcher.MatchSchemas(left, right);
  ASSERT_TRUE(matches.ok());
  // patient_name <-> name must be among the matches (shared values).
  bool found_name = false;
  for (const auto& m : *matches) {
    if (m.left_column == "patient_name") {
      EXPECT_EQ(m.right_column, "name");
      found_name = true;
    }
    // 1:1 constraint.
    EXPECT_LE(matches->size(), 2u);
  }
  EXPECT_TRUE(found_name);
}

// ---- column type annotation ----------------------------------------------------

TEST_F(IntegrationTest, CtaPaperExample) {
  ColumnTypeAnnotator annotator(models_[2]);
  std::vector<data::CtaExample> examples{
      {{"USA", "UK", "France"}, "country"},
      {{"Michael Jordan", "Serena Williams"}, "person"},
  };
  auto label = annotator.Annotate({"Basketball", "Badminton", "Table Tennis"},
                                  examples);
  ASSERT_TRUE(label.ok());
  EXPECT_EQ(*label, "sports");
}

TEST_F(IntegrationTest, CtaAccuracyOrderedByModelSize) {
  common::Rng rng(62);
  auto examples = data::GenerateCtaWorkload(6, rng);
  auto workload = data::GenerateCtaWorkload(120, rng);
  ColumnTypeAnnotator small(models_[0]);
  ColumnTypeAnnotator large(models_[2]);
  auto acc_small = small.Evaluate(workload, examples);
  auto acc_large = large.Evaluate(workload, examples);
  ASSERT_TRUE(acc_small.ok() && acc_large.ok());
  EXPECT_GT(*acc_large, *acc_small);
  EXPECT_GT(*acc_large, 0.8);
}

// ---- cleaning -------------------------------------------------------------------

TEST_F(IntegrationTest, CleanerDetectsAllThreeIssueKinds) {
  data::Table t("mixed",
                data::Schema({{"visit", data::ColumnType::kText, true},
                              {"score", data::ColumnType::kInt64, true}}));
  for (int i = 0; i < 10; ++i) {
    t.AppendRowUnchecked({data::Value::Text(common::StrFormat(
                              "%d/%d/2023", (i % 9) + 1, (i % 27) + 1)),
                          data::Value::Int(50 + i)});
  }
  t.AppendRowUnchecked({data::Value::Text("Aug 14 2023"),  // format breaker
                        data::Value::Int(54)});
  t.AppendRowUnchecked({data::Value::Null(),               // missing
                        data::Value::Int(100000)});        // outlier
  DataCleaner cleaner(models_[2]);
  auto issues = cleaner.Detect(t);
  bool has_null = false, has_pattern = false, has_outlier = false;
  for (const auto& issue : issues) {
    has_null |= issue.kind == QualityIssue::Kind::kNull;
    has_pattern |= issue.kind == QualityIssue::Kind::kPatternMismatch;
    has_outlier |= issue.kind == QualityIssue::Kind::kNumericOutlier;
  }
  EXPECT_TRUE(has_null);
  EXPECT_TRUE(has_pattern);
  EXPECT_TRUE(has_outlier);
}

TEST_F(IntegrationTest, CleanerRepairsDateFormats) {
  data::Table t("visits",
                data::Schema({{"visit", data::ColumnType::kText, true}}));
  for (int i = 1; i <= 8; ++i) {
    t.AppendRowUnchecked(
        {data::Value::Text(common::StrFormat("%d/%d/2023", i, i + 2))});
  }
  t.AppendRowUnchecked({data::Value::Text("Aug 14 2023")});
  DataCleaner cleaner(models_[2]);
  auto report = cleaner.Repair(&t);
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->values_reformatted, 1u);
  EXPECT_EQ(t.at(8, 0).AsText(), "8/14/2023");
}

// A date-shaped cell whose digit run overflows an int is not a date: the
// repair skips it instead of throwing, and still fixes the real outlier.
TEST_F(IntegrationTest, CleanerSkipsADigitRunPastAnInt) {
  data::Table t("visits",
                data::Schema({{"visit", data::ColumnType::kText, true}}));
  for (int i = 1; i <= 8; ++i) {
    t.AppendRowUnchecked(
        {data::Value::Text(common::StrFormat("%d/%d/2023", i, i + 2))});
  }
  t.AppendRowUnchecked({data::Value::Text("Aug 14 2023")});
  t.AppendRowUnchecked({data::Value::Text("1/2/99999999999")});
  DataCleaner cleaner(models_[2]);
  auto report = cleaner.Repair(&t);
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->values_reformatted, 1u);
  EXPECT_EQ(t.at(8, 0).AsText(), "8/14/2023");
  EXPECT_EQ(t.at(9, 0).AsText(), "1/2/99999999999");
}

// ---- table understanding ---------------------------------------------------------

class TableUnderstandingTest : public ::testing::Test {
 protected:
  TableUnderstandingTest() {
    models_ = llm::CreatePaperModelLadder(nullptr, 626);
    EXPECT_TRUE(db_.Execute("CREATE TABLE employee (name TEXT, salary INT)")
                    .ok());
    EXPECT_TRUE(db_.Execute("INSERT INTO employee VALUES ('a', 400), "
                            "('b', 600), ('c', 500)")
                    .ok());
  }

  std::vector<std::shared_ptr<llm::LlmModel>> models_;
  sql::Database db_;
};

TEST_F(TableUnderstandingTest, SerializationsCarrySemantics) {
  TableUnderstanding tu(models_[2]);
  const data::Table& t = **db_.catalog().GetTable("employee");
  std::string row = tu.SerializeRow(t, 0);
  EXPECT_NE(row.find("employee"), std::string::npos);
  EXPECT_NE(row.find("salary 400"), std::string::npos);
  std::string col = tu.SerializeColumn(t, 1);
  EXPECT_NE(col.find("salary"), std::string::npos);
  EXPECT_NE(col.find("(INT)"), std::string::npos);
}

TEST_F(TableUnderstandingTest, PaperAvgSalarySentence) {
  TableUnderstanding tu(models_[2]);
  auto sentence =
      tu.DescribeAggregate(db_, "SELECT AVG(salary) FROM employee");
  ASSERT_TRUE(sentence.ok());
  EXPECT_NE(sentence->find("average"), std::string::npos);
  EXPECT_NE(sentence->find("500"), std::string::npos);
  EXPECT_NE(sentence->find("employee"), std::string::npos);
}

TEST_F(TableUnderstandingTest, DescribeTableStatisticsBundle) {
  TableUnderstanding tu(models_[2]);
  auto sentences = tu.DescribeTableStatistics(db_, "employee");
  ASSERT_TRUE(sentences.ok());
  EXPECT_EQ(sentences->size(), 2u);  // COUNT(*) + AVG(salary)
}

TEST_F(TableUnderstandingTest, SplitRespectsTokenBudget) {
  common::Rng rng(63);
  data::PatientDataOptions options;
  options.num_rows = 80;
  data::Table patients = data::GeneratePatientTable(options, rng);
  TableUnderstanding tu(models_[2]);
  auto chunks = tu.SplitForPlm(patients, 200);
  EXPECT_GT(chunks.size(), 1u);
  size_t total = 0;
  for (const auto& chunk : chunks) {
    total += chunk.NumRows();
    size_t tokens = 0;
    for (size_t r = 0; r < chunk.NumRows(); ++r) {
      tokens += text::CountTokens(tu.SerializeRow(chunk, r));
    }
    EXPECT_LE(tokens, 200u);
  }
  EXPECT_EQ(total, patients.NumRows());
}

TEST_F(TableUnderstandingTest, RepresentativeRowsAreDiverse) {
  // Two clusters of rows: representatives must cover both.
  data::Table t("clustered",
                data::Schema({{"kind", data::ColumnType::kText, true},
                              {"v", data::ColumnType::kInt64, true}}));
  for (int i = 0; i < 10; ++i) {
    t.AppendRowUnchecked(
        {data::Value::Text("alpha cluster entry"), data::Value::Int(i)});
  }
  for (int i = 0; i < 10; ++i) {
    t.AppendRowUnchecked({data::Value::Text("totally different beta record"),
                          data::Value::Int(1000 + i)});
  }
  TableUnderstanding tu(models_[2]);
  auto reps = tu.SelectRepresentativeRows(t, 2);
  ASSERT_EQ(reps.size(), 2u);
  EXPECT_LT(reps[0], 10u);   // one from the alpha cluster
  EXPECT_GE(reps[1], 10u);   // one from the beta cluster
}

}  // namespace
}  // namespace llmdm::integration
