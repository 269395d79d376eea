#include "core/generation/annotator.h"

#include <cmath>

#include "common/string_util.h"

namespace llmdm::generation {
namespace {

using data::ColumnType;
using data::Value;

// Complete rows shown as examples per prediction.
constexpr size_t kNumExamples = 8;

// Serializes a row skipping `skip_col` (the column being predicted) and any
// NULL cells.
std::string SerializeRowWithout(const data::Table& table, size_t row,
                                size_t skip_col) {
  std::string out;
  for (size_t c = 0; c < table.NumColumns(); ++c) {
    if (c == skip_col) continue;
    const Value& v = table.at(row, c);
    if (v.is_null()) continue;
    if (!out.empty()) out += "; ";
    out += table.schema().column(c).name + " is " + v.ToString();
  }
  return out;
}

common::Result<Value> ParsePrediction(const std::string& text,
                                      ColumnType type) {
  switch (type) {
    case ColumnType::kInt64: {
      double d = 0;
      if (!common::ParseDouble(text, &d)) {
        return common::Status::InvalidArgument("not numeric: " + text);
      }
      return Value::Int(static_cast<int64_t>(std::llround(d)));
    }
    case ColumnType::kDouble: {
      double d = 0;
      if (!common::ParseDouble(text, &d)) {
        return common::Status::InvalidArgument("not numeric: " + text);
      }
      return Value::Real(d);
    }
    case ColumnType::kBool: {
      std::string lower = common::ToLower(text);
      if (lower == "true") return Value::Bool(true);
      if (lower == "false") return Value::Bool(false);
      return common::Status::InvalidArgument("not boolean: " + text);
    }
    case ColumnType::kText:
      return Value::Text(text);
    default:
      return common::Status::Unimplemented("unsupported annotation type");
  }
}

}  // namespace

common::Result<MissingFieldAnnotator::Report> MissingFieldAnnotator::Annotate(
    data::Table* table, const std::string& column, llm::UsageMeter* meter) {
  auto col = table->schema().Find(column);
  if (!col.has_value()) {
    return common::Status::NotFound("no column " + column);
  }
  ColumnType type = table->schema().column(*col).type;

  // Complete rows become the example pool.
  std::vector<size_t> complete, incomplete;
  for (size_t r = 0; r < table->NumRows(); ++r) {
    (table->at(r, *col).is_null() ? incomplete : complete).push_back(r);
  }
  Report report;
  report.missing = incomplete.size();
  if (incomplete.empty()) return report;
  if (complete.empty()) {
    return common::Status::FailedPrecondition(
        "no complete rows to use as ICL examples");
  }

  for (size_t target : incomplete) {
    llm::Prompt p;
    p.task_tag = "tabular_predict";
    p.instructions = "Predict the value of '" + column +
                     "' for the row from the examples.";
    p.sample_salt = target;
    // Rotate through the example pool so prompts differ per row.
    for (size_t i = 0; i < std::min(kNumExamples, complete.size()); ++i) {
      size_t ex_row = complete[(target + i) % complete.size()];
      p.examples.push_back(
          {SerializeRowWithout(*table, ex_row, *col),
           table->at(ex_row, *col).ToString()});
    }
    p.input = SerializeRowWithout(*table, target, *col);
    LLMDM_ASSIGN_OR_RETURN(llm::Completion c,
                           model_->CompleteMetered(p, meter));
    auto parsed = ParsePrediction(c.text, type);
    if (!parsed.ok()) {
      ++report.unparseable;
      continue;
    }
    (*table->mutable_row(target))[*col] = *parsed;
    ++report.filled;
  }
  return report;
}

common::Result<data::Table> TabularSynthesizer::Synthesize(
    const data::Table& real, size_t num_rows, llm::UsageMeter* meter) {
  if (real.empty()) {
    return common::Status::InvalidArgument("empty source table");
  }
  data::Table out("synthetic_" + real.name(), real.schema());
  for (size_t i = 0; i < num_rows; ++i) {
    llm::Prompt p;
    p.task_tag = "tabular_generate";
    p.instructions = "Generate one more row like the examples.";
    p.sample_salt = i;
    for (size_t j = 0; j < std::min<size_t>(8, real.NumRows()); ++j) {
      size_t row = (i * 3 + j) % real.NumRows();
      p.examples.push_back({real.SerializeRowAsText(row), "ok"});
    }
    p.input = "generate one more row";
    LLMDM_ASSIGN_OR_RETURN(llm::Completion c,
                           model_->CompleteMetered(p, meter));
    // Parse "k is v; ..." back into a typed row; malformed cells become NULL.
    data::Row row(real.NumColumns(), data::Value::Null());
    for (const std::string& part : common::Split(c.text, ';')) {
      std::string_view kv = common::Trim(part);
      size_t pos = kv.find(" is ");
      if (pos == std::string_view::npos) continue;
      auto col = real.schema().Find(kv.substr(0, pos));
      if (!col.has_value()) continue;
      auto parsed = ParsePrediction(std::string(common::Trim(kv.substr(pos + 4))),
                                    real.schema().column(*col).type);
      if (parsed.ok()) row[*col] = *parsed;
    }
    LLMDM_RETURN_IF_ERROR(out.AppendRow(std::move(row)));
  }
  return out;
}

}  // namespace llmdm::generation
