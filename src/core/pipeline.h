#ifndef LLMDM_CORE_PIPELINE_H_
#define LLMDM_CORE_PIPELINE_H_

#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "core/exploration/datalake.h"
#include "data/table.h"
#include "llm/model.h"
#include "sql/database.h"

namespace llmdm::core {

/// The Fig. 1 pipeline: data generation -> transformation -> integration ->
/// exploration, run end-to-end on a healthcare-flavoured synthetic corpus
/// with per-stage LLM usage metering.
///
/// Stage contents:
///  1. generation    — synthesize patients, inject missingness, annotate the
///                     missing fields via ICL, add LLM-synthesized rows;
///  2. transformation— parse XML diagnostic reports into a relational table,
///                     unify the date column's format;
///  3. integration   — annotate unknown columns' types and resolve duplicate
///                     patient descriptions;
///  4. exploration   — ingest everything into the multi-modal data lake and
///                     answer semantic queries.
class DataManagementPipeline {
 public:
  struct Options {
    std::shared_ptr<llm::LlmModel> model;
    size_t num_patients = 60;
    uint64_t seed = 4242;
    /// Simulated-ms budget for the *whole* run (0 = unbounded). All four
    /// stages draw LLM latency from one shared llm::Deadline; a stage that
    /// starts after exhaustion degrades instead of calling the model.
    double deadline_ms = 0.0;
  };

  struct StageReport {
    std::string stage;
    std::string summary;
    size_t llm_calls = 0;
    common::Money llm_cost;
    /// The stage hit an unrecoverable error and delivered partial (or no)
    /// artifacts; `summary` carries the status. Later stages still ran.
    bool degraded = false;
    /// Resilience accounting for the stage's LLM traffic.
    llm::UsageMeter::RetryStats retry;
    /// Simulated-ms budget left when the stage finished (0 when the run is
    /// unbounded or the budget is spent).
    double deadline_remaining_ms = 0.0;
  };

  struct Report {
    std::vector<StageReport> stages;
    size_t total_llm_calls = 0;
    common::Money total_cost;
    size_t degraded_stages = 0;
    /// The run's deadline (if any) ran out before the last stage finished.
    bool deadline_exhausted = false;
  };

  explicit DataManagementPipeline(const Options& options)
      : options_(options) {}

  /// Runs all four stages. A stage that fails mid-flight is reported as
  /// degraded instead of aborting the pipeline — the remaining stages run
  /// on whatever artifacts exist. Run() itself only errors on configuration
  /// problems (no model). After a run, `database()` holds the relational
  /// artifacts and `lake()` the explorable corpus.
  common::Result<Report> Run();

  sql::Database& database() { return db_; }
  exploration::MultiModalDataLake& lake() { return lake_; }

 private:
  Options options_;
  sql::Database db_;
  exploration::MultiModalDataLake lake_;
};

}  // namespace llmdm::core

#endif  // LLMDM_CORE_PIPELINE_H_
