#include <gtest/gtest.h>

#include "core/generation/annotator.h"
#include "core/generation/sql_generator.h"
#include "core/generation/training_data.h"
#include "core/pipeline.h"
#include "data/nl2sql_workload.h"
#include "data/tabular_gen.h"
#include "llm/simulated.h"

namespace llmdm {
namespace {

// ---- SQL generator (Fig 2) -----------------------------------------------------

class SqlGeneratorTest : public ::testing::Test {
 protected:
  SqlGeneratorTest() {
    common::Rng rng(51);
    EXPECT_TRUE(
        db_.ExecuteScript(data::BuildStadiumDatabaseScript(10, {2014, 2015},
                                                           rng))
            .ok());
  }

  sql::Database db_;
};

TEST_F(SqlGeneratorTest, HonorsExecutabilityConstraint) {
  generation::SqlGenerator generator(nullptr, 1);
  generation::SqlGenConstraints constraints;
  constraints.count = 20;
  auto queries = generator.Generate(db_, constraints);
  ASSERT_TRUE(queries.ok());
  EXPECT_GE(queries->size(), 15u);  // some shapes may occasionally fail
  for (const auto& q : *queries) {
    EXPECT_TRUE(q.executable) << q.sql;
  }
}

TEST_F(SqlGeneratorTest, ProducesRequestedShapeMix) {
  generation::SqlGenerator generator(nullptr, 2);
  generation::SqlGenConstraints constraints;
  constraints.count = 30;
  constraints.multi_join_fraction = 0.4;
  constraints.subquery_fraction = 0.3;
  auto queries = generator.Generate(db_, constraints);
  ASSERT_TRUE(queries.ok());
  size_t joins = 0, subqueries = 0;
  for (const auto& q : *queries) {
    joins += q.kind == generation::GeneratedSql::Kind::kMultiJoin;
    subqueries += q.kind == generation::GeneratedSql::Kind::kSubquery;
  }
  EXPECT_GT(joins, 5u);
  EXPECT_GT(subqueries, 3u);
}

TEST_F(SqlGeneratorTest, GeneratedQueriesAreDistinct) {
  generation::SqlGenerator generator(nullptr, 3);
  generation::SqlGenConstraints constraints;
  constraints.count = 25;
  auto queries = generator.Generate(db_, constraints);
  ASSERT_TRUE(queries.ok());
  std::set<std::string> distinct;
  for (const auto& q : *queries) distinct.insert(q.sql);
  EXPECT_EQ(distinct.size(), queries->size());
}

TEST_F(SqlGeneratorTest, EquivalentPairsAgreeUnderExecution) {
  generation::SqlGenerator generator(nullptr, 4);
  auto pairs = generator.GenerateEquivalentPairs(db_, 15);
  ASSERT_TRUE(pairs.ok());
  EXPECT_GE(pairs->size(), 10u);
  for (const auto& [a, b] : *pairs) {
    auto ra = db_.Query(a);
    auto rb = db_.Query(b);
    ASSERT_TRUE(ra.ok() && rb.ok());
    EXPECT_TRUE(ra->BagEquals(*rb)) << a << " vs " << b;
  }
}

// ---- training data generation (Fig 3) --------------------------------------------

TEST_F(SqlGeneratorTest, CostDatasetHasStructure) {
  common::Rng rng(52);
  auto dataset = generation::GenerateQueryCostDataset(db_, 40, rng);
  ASSERT_TRUE(dataset.ok());
  EXPECT_GE(dataset->size(), 25u);
  // Join-bearing queries must generally cost more than simple ones.
  double join_sum = 0, join_n = 0, simple_sum = 0, simple_n = 0;
  for (const auto& ex : *dataset) {
    if (ex.num_joins > 0) {
      join_sum += ex.execution_time_ms;
      ++join_n;
    } else {
      simple_sum += ex.execution_time_ms;
      ++simple_n;
    }
  }
  ASSERT_GT(join_n, 0.0);
  ASSERT_GT(simple_n, 0.0);
  EXPECT_GT(join_sum / join_n, simple_sum / simple_n);
}

TEST_F(SqlGeneratorTest, IclPredictsExecutionTime) {
  common::Rng rng(53);
  auto dataset = generation::GenerateQueryCostDataset(db_, 60, rng);
  ASSERT_TRUE(dataset.ok());
  auto models = llm::CreatePaperModelLadder(nullptr, 531);
  generation::IclCostPredictor predictor(models[2], 8);
  double mape = 0;
  size_t n = 0;
  for (size_t i = 0; i < 10 && i < dataset->size(); ++i) {
    std::vector<generation::QueryCostExample> corpus;
    for (size_t j = 0; j < dataset->size(); ++j) {
      if (j != i) corpus.push_back((*dataset)[j]);
    }
    auto predicted = predictor.Predict((*dataset)[i], corpus);
    ASSERT_TRUE(predicted.ok());
    mape += std::abs(*predicted - (*dataset)[i].execution_time_ms) /
            (*dataset)[i].execution_time_ms;
    ++n;
  }
  EXPECT_LT(mape / double(n), 0.6);  // far better than chance
}

TEST_F(SqlGeneratorTest, AugmentationAddsUsableRows) {
  common::Rng rng(54);
  auto dataset = generation::GenerateQueryCostDataset(db_, 30, rng);
  ASSERT_TRUE(dataset.ok());
  auto models = llm::CreatePaperModelLadder(nullptr, 541);
  auto augmented = generation::AugmentCostDataset(*dataset, 1.0, *models[2]);
  ASSERT_TRUE(augmented.ok());
  EXPECT_GT(augmented->size(), dataset->size());
  for (const auto& ex : *augmented) {
    EXPECT_GT(ex.execution_time_ms, 0.0);
  }
}

// ---- missing field annotation & synthesis ------------------------------------------

TEST(Annotator, FillsMissingNumericColumn) {
  common::Rng rng(55);
  data::PatientDataOptions options;
  options.num_rows = 60;
  data::Table patients = data::GeneratePatientTable(options, rng);
  data::Table truth = patients;
  auto blanked = data::InjectMissing(&patients, "cholesterol", 0.2, rng);
  ASSERT_FALSE(blanked.empty());
  auto models = llm::CreatePaperModelLadder(nullptr, 551);
  generation::MissingFieldAnnotator annotator(models[2]);
  auto report = annotator.Annotate(&patients, "cholesterol");
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->missing, blanked.size());
  EXPECT_EQ(report->filled, blanked.size());
  // Filled values must be in a sane range (ICL regression, not noise).
  size_t col = *patients.schema().Find("cholesterol");
  for (size_t r : blanked) {
    ASSERT_FALSE(patients.at(r, col).is_null());
    EXPECT_GT(patients.at(r, col).AsInt(), 50);
    EXPECT_LT(patients.at(r, col).AsInt(), 600);
  }
}

TEST(Synthesizer, MimicsMarginals) {
  common::Rng rng(56);
  data::PatientDataOptions options;
  options.num_rows = 80;
  data::Table real = data::GeneratePatientTable(options, rng);
  auto models = llm::CreatePaperModelLadder(nullptr, 561);
  generation::TabularSynthesizer synthesizer(models[2]);
  auto synthetic = synthesizer.Synthesize(real, 40);
  ASSERT_TRUE(synthetic.ok());
  EXPECT_EQ(synthetic->NumRows(), 40u);
  EXPECT_EQ(synthetic->schema(), real.schema());
  // Age mean within a loose band of the real mean.
  auto mean_of = [](const data::Table& t, const char* col) {
    auto values = t.ColumnValues(col);
    double acc = 0;
    size_t n = 0;
    for (const auto& v : *values) {
      if (v.is_null()) continue;
      acc += v.AsDouble();
      ++n;
    }
    return acc / double(n);
  };
  EXPECT_NEAR(mean_of(*synthetic, "age"), mean_of(real, "age"), 12.0);
}

// ---- Fig 1 end-to-end pipeline ------------------------------------------------------

TEST(Pipeline, RunsAllFourStages) {
  auto models = llm::CreatePaperModelLadder(nullptr, 571);
  core::DataManagementPipeline::Options options;
  options.model = models[2];
  options.num_patients = 40;
  core::DataManagementPipeline pipeline(options);
  auto report = pipeline.Run();
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  ASSERT_EQ(report->stages.size(), 4u);
  EXPECT_EQ(report->stages[0].stage, "generation");
  EXPECT_EQ(report->stages[3].stage, "exploration");
  EXPECT_GT(report->total_llm_calls, 0u);
  EXPECT_GT(report->total_cost.micros(), 0);
  // Artifacts are queryable afterwards.
  EXPECT_TRUE(pipeline.database().catalog().HasTable("patients"));
  EXPECT_TRUE(pipeline.database().catalog().HasTable("reports"));
  EXPECT_GT(pipeline.lake().Size(), 0u);
  auto count = pipeline.database().Query("SELECT COUNT(*) FROM patients");
  ASSERT_TRUE(count.ok());
  EXPECT_EQ(count->at(0, 0).AsInt(), 40);
}

TEST(Pipeline, RequiresModel) {
  core::DataManagementPipeline::Options options;
  core::DataManagementPipeline pipeline(options);
  EXPECT_FALSE(pipeline.Run().ok());
}

}  // namespace
}  // namespace llmdm
