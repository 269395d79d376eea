#include "core/pipeline.h"

#include "common/string_util.h"
#include "core/generation/annotator.h"
#include "core/integration/column_annotation.h"
#include "core/integration/entity_resolution.h"
#include "core/transform/column_pattern.h"
#include "core/transform/table_transform.h"
#include "data/tabular_gen.h"
#include "data/xml.h"
#include "llm/deadline.h"

namespace llmdm::core {
namespace {

// Share of the generated patients' cholesterol cells blanked for the
// annotator to fill.
constexpr double kMissingFraction = 0.15;

// A small XML corpus of diagnostic reports with deliberately mixed date
// formats (the transformation stage's raw input).
std::string MakeDiagnosticXml(size_t n, common::Rng& rng) {
  const char* const kDiagnoses[] = {"hypertension", "arrhythmia", "angina",
                                    "diabetes", "asthma"};
  const char* const kMonths[] = {"Jan", "Feb", "Mar", "Apr", "May", "Jun"};
  std::string xml = "<reports>\n";
  for (size_t i = 0; i < n; ++i) {
    std::string date;
    int64_t day = rng.UniformInt(1, 28);
    size_t month_index = rng.NextBelow(6);
    if (rng.Bernoulli(0.3)) {
      // Minority format that the cleaner must unify.
      date = common::StrFormat("%s %lld 2023", kMonths[month_index],
                               (long long)day);
    } else {
      date = common::StrFormat("%lld/%lld/2023", (long long)(month_index + 1),
                               (long long)day);
    }
    xml += common::StrFormat(
        "  <report id=\"%zu\"><patient_id>%lld</patient_id>"
        "<diagnosis>%s</diagnosis><visit_date>%s</visit_date></report>\n",
        i + 1, (long long)rng.UniformInt(1, 40),
        kDiagnoses[rng.NextBelow(5)], date.c_str());
  }
  xml += "</reports>";
  return xml;
}

}  // namespace

common::Result<DataManagementPipeline::Report> DataManagementPipeline::Run() {
  if (options_.model == nullptr) {
    return common::Status::InvalidArgument("pipeline needs a model");
  }
  Report report;
  common::Rng rng(options_.seed);
  // One shared budget for the whole run: wrapping the model means every
  // prompt built deep inside annotators/synthesizers/resolvers is scoped
  // under it without those components knowing deadlines exist.
  std::shared_ptr<llm::Deadline> deadline;
  std::shared_ptr<llm::LlmModel> model = options_.model;
  if (options_.deadline_ms > 0.0) {
    deadline = std::make_shared<llm::Deadline>(options_.deadline_ms);
    model = std::make_shared<llm::DeadlineScopedLlm>(model, deadline);
  }
  // Runs one stage body and records its outcome. A failed stage is reported
  // as degraded — with whatever partial artifacts it already committed —
  // and the pipeline moves on, because downstream stages can usually do
  // useful work on what exists (and "the whole ETL aborted because one
  // annotation call 503'd" is exactly the failure mode this layer removes).
  auto run_stage = [&](const std::string& name, llm::UsageMeter& meter,
                       auto&& body) {
    common::Result<std::string> summary = body();
    StageReport stage;
    stage.stage = name;
    if (summary.ok()) {
      stage.summary = *summary;
    } else {
      stage.degraded = true;
      stage.summary = "degraded: " + summary.status().ToString();
      ++report.degraded_stages;
    }
    stage.llm_calls = meter.calls();
    stage.llm_cost = meter.cost();
    stage.retry = meter.retry_stats();
    if (deadline != nullptr) {
      stage.deadline_remaining_ms = deadline->remaining_ms();
      if (deadline->Exhausted()) report.deadline_exhausted = true;
    }
    report.total_llm_calls += meter.calls();
    report.total_cost += meter.cost();
    report.stages.push_back(std::move(stage));
  };

  // Artifacts shared across stages; a degraded producer leaves them partial
  // (possibly empty) and the consumers below guard on that.
  data::Table patients;
  data::Table reports;

  // ---- Stage 1: data generation -------------------------------------------
  llm::UsageMeter gen_meter;
  run_stage("generation", gen_meter,
            [&]() -> common::Result<std::string> {
    data::PatientDataOptions patient_options;
    patient_options.num_rows = options_.num_patients;
    patients = data::GeneratePatientTable(patient_options, rng);
    data::InjectMissing(&patients, "cholesterol", kMissingFraction, rng);
    // The raw table is committed before any LLM call: if annotation fails,
    // downstream stages still get patients (with missingness).
    db_.catalog().PutTable(patients);
    generation::MissingFieldAnnotator annotator(model);
    LLMDM_ASSIGN_OR_RETURN(auto annotation_report,
                           annotator.Annotate(&patients, "cholesterol",
                                              &gen_meter));
    db_.catalog().PutTable(patients);  // refresh with annotated values
    generation::TabularSynthesizer synthesizer(model);
    LLMDM_ASSIGN_OR_RETURN(
        data::Table synthetic,
        synthesizer.Synthesize(patients, options_.num_patients / 4,
                               &gen_meter));
    db_.catalog().PutTable(synthetic);
    return common::StrFormat(
        "generated %zu patients; annotated %zu/%zu missing "
        "cholesterol values; synthesized %zu extra rows",
        patients.NumRows(), annotation_report.filled,
        annotation_report.missing, synthetic.NumRows());
  });

  // ---- Stage 2: transformation --------------------------------------------
  llm::UsageMeter transform_meter;
  run_stage("transformation", transform_meter,
            [&]() -> common::Result<std::string> {
    std::string xml_corpus = MakeDiagnosticXml(options_.num_patients / 2, rng);
    LLMDM_ASSIGN_OR_RETURN(std::unique_ptr<data::XmlNode> root,
                           data::ParseXml(xml_corpus));
    LLMDM_ASSIGN_OR_RETURN(reports, transform::XmlToTable(*root));
    reports.set_name("reports");
    // Unify the visit_date column onto the dominant (slash) format.
    auto date_col = reports.schema().Find("visit_date");
    size_t reformatted = 0;
    if (date_col.has_value()) {
      for (size_t r = 0; r < reports.NumRows(); ++r) {
        const data::Value& v = reports.at(r, *date_col);
        if (v.is_null() || !v.is_text()) continue;
        auto style = transform::DetectDateStyle(v.AsText());
        if (style.ok() && *style != transform::DateStyle::kSlashMDY) {
          auto fixed = transform::ReformatDate(
              v.AsText(), transform::DateStyle::kSlashMDY);
          if (fixed.ok()) {
            (*reports.mutable_row(r))[*date_col] = data::Value::Text(*fixed);
            ++reformatted;
          }
        }
      }
    }
    db_.catalog().PutTable(reports);
    return common::StrFormat(
        "relationalized %zu XML reports; unified %zu date values",
        reports.NumRows(), reformatted);
  });

  // ---- Stage 3: integration -----------------------------------------------
  llm::UsageMeter integ_meter;
  run_stage("integration", integ_meter,
            [&]() -> common::Result<std::string> {
    integration::ColumnTypeAnnotator cta(model);
    auto cta_examples = data::GenerateCtaWorkload(8, rng);
    auto mystery = data::GenerateCtaWorkload(4, rng);
    size_t cta_correct = 0;
    for (const auto& item : mystery) {
      auto label = cta.Annotate(item.values, cta_examples, &integ_meter);
      if (label.ok() && *label == item.label) ++cta_correct;
    }
    integration::EntityResolver resolver(model);
    auto er_examples = data::GenerateErWorkload(8, 0.4, rng);
    auto er_pairs = data::GenerateErWorkload(12, 0.4, rng);
    LLMDM_ASSIGN_OR_RETURN(
        auto er_metrics,
        resolver.Evaluate(er_pairs, er_examples, &integ_meter));
    return common::StrFormat(
        "column types: %zu/%zu correct; entity resolution F1=%.2f",
        cta_correct, mystery.size(), er_metrics.F1());
  });

  // ---- Stage 4: exploration -----------------------------------------------
  llm::UsageMeter explore_meter;
  run_stage("exploration", explore_meter,
            [&]() -> common::Result<std::string> {
    if (patients.NumRows() > 0) {
      LLMDM_RETURN_IF_ERROR(lake_.IngestTable(patients, "patient"));
    }
    if (reports.NumRows() > 0) {
      LLMDM_RETURN_IF_ERROR(lake_.IngestTable(reports, "report"));
    }
    exploration::LakeItem note;
    note.modality = exploration::Modality::kText;
    note.title = "clinical note";
    note.content =
        "Patient presented with elevated blood pressure and chest pain; "
        "recommended cardiology follow-up.";
    note.attributes["entity_type"] = data::Value::Text("note");
    LLMDM_RETURN_IF_ERROR(lake_.Ingest(std::move(note)));
    exploration::LakeItem scan;
    scan.modality = exploration::Modality::kImage;
    scan.title = "chest x-ray";
    scan.content = "chest x-ray image showing mild cardiomegaly";
    scan.attributes["entity_type"] = data::Value::Text("imaging");
    LLMDM_RETURN_IF_ERROR(lake_.Ingest(std::move(scan)));
    auto hits = lake_.Query("patients with high blood pressure", 5);
    return common::StrFormat(
        "lake holds %zu items; sample query returned %zu hits",
        lake_.Size(), hits.size());
  });
  return report;
}

}  // namespace llmdm::core
