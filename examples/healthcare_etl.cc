// Healthcare ETL: the paper's recurring healthcare scenario (Secs. II-B,
// III-D). A clinic holds XML diagnostic reports with inconsistent date
// formats and a patient table with missing lab values. The pipeline:
//   1. relationalize the XML (transformation);
//   2. unify the date column with a synthesized column transform;
//   3. fill missing lab values via few-shot ICL (generation);
//   4. release only differentially-private aggregates (privacy);
//   5. run a payment transaction for a treatment, atomically (NL2Transaction).
#include <cstdio>

#include "common/string_util.h"
#include "core/generation/annotator.h"
#include "core/privacy/dp.h"
#include "core/transform/column_pattern.h"
#include "core/transform/nl2transaction.h"
#include "core/transform/table_transform.h"
#include "data/tabular_gen.h"
#include "data/txn_workload.h"
#include "data/xml.h"
#include "llm/simulated.h"
#include "sql/database.h"

int main() {
  using namespace llmdm;
  common::Rng rng(2026);
  auto models = llm::CreatePaperModelLadder(nullptr, 77);

  // 1. XML diagnostic reports -> relational table.
  std::string xml_corpus = R"(<reports>
    <report id="1"><patient>Ann</patient><diagnosis>arrhythmia</diagnosis><visit>3/14/2023</visit></report>
    <report id="2"><patient>Ben</patient><diagnosis>angina</diagnosis><visit>Aug 2 2023</visit></report>
    <report id="3"><patient>Cleo</patient><diagnosis>asthma</diagnosis><visit>5/9/2023</visit></report>
    <report id="4"><patient>Dev</patient><diagnosis>angina</diagnosis><visit>11/30/2023</visit></report>
  </reports>)";
  auto root = data::ParseXml(xml_corpus);
  auto reports = transform::XmlToTable(**root);
  if (!reports.ok()) return 1;
  std::printf("1) relationalized XML:\n%s\n", reports->ToString().c_str());

  // 2. Unify the visit date format (synthesized from one worked example).
  auto program = transform::ColumnTransform::Synthesize(
      {{"Aug 2 2023", "8/2/2023"}});
  size_t visit = *reports->schema().Find("visit");
  for (size_t r = 0; r < reports->NumRows(); ++r) {
    auto fixed = program->Apply(reports->at(r, visit).AsText());
    if (fixed.ok()) {
      (*reports->mutable_row(r))[visit] = data::Value::Text(*fixed);
    }
  }
  std::printf("2) date program '%s' applied; row 2 visit is now %s\n\n",
              program->Describe().c_str(),
              reports->at(1, visit).ToString().c_str());

  // 3. Fill missing cholesterol values via ICL.
  data::PatientDataOptions popts;
  popts.num_rows = 30;
  data::Table patients = data::GeneratePatientTable(popts, rng);
  auto blanked = data::InjectMissing(&patients, "cholesterol", 0.2, rng);
  generation::MissingFieldAnnotator annotator(models[2]);
  llm::UsageMeter meter;
  auto report = annotator.Annotate(&patients, "cholesterol", &meter);
  std::printf("3) ICL annotation filled %zu/%zu missing cholesterol values "
              "(cost %s)\n\n",
              report->filled, report->missing,
              meter.cost().ToString(4).c_str());

  // 4. DP aggregate release over the (sensitive) patient table.
  privacy::DpAggregator aggregator(&patients, /*epsilon_budget=*/2.0, 11);
  auto mean_bp = aggregator.NoisyMean("systolic_bp", 90, 190, 1.0);
  std::printf("4) DP release: mean systolic BP ~ %.1f "
              "(epsilon spent 1.0, remaining %.1f)\n\n",
              mean_bp.value_or(-1), aggregator.remaining_budget());

  // 5. Atomic payment for a treatment (the paper's NL2Transaction).
  sql::Database billing;
  billing
      .ExecuteScript(data::BuildAccountsDatabaseScript(
          {"Ann", "Clinic", "Lab"}, 2000))
      .ok();
  transform::Nl2TransactionEngine txn(models[2]);
  auto outcome = txn.Run(
      "Transfer 150 dollars from Ann to Clinic. Then transfer 40 dollars "
      "from Clinic to Lab.",
      billing, &meter);
  std::printf("5) payment transaction: %s\n",
              outcome->committed ? "committed" : outcome->failure.c_str());
  auto balances = billing.Query("SELECT owner, balance FROM accounts");
  std::printf("%s", balances->ToString().c_str());
  return 0;
}
