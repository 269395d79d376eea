#include "core/integration/cleaning.h"

#include <cmath>
#include <map>
#include <set>

#include "common/string_util.h"
#include "core/generation/annotator.h"

namespace llmdm::integration {
namespace {

using data::ColumnType;
using data::Value;

// A numeric value further than this many standard deviations from its
// column's mean is an outlier.
constexpr double kOutlierSigma = 3.0;

// Structural shape of a value, ignoring run lengths: "8/9/2023" and
// "8/10/2023" share a shape, "Aug 14 2023" does not. Length-insensitive
// comparison is what majority-format detection needs.
std::string ValueShape(const std::string& text) {
  std::string out;
  for (const transform::PatternToken& tok : transform::ValuePattern(text)) {
    switch (tok.kind) {
      case transform::PatternToken::Kind::kDigits:
        out += "<d>";
        break;
      case transform::PatternToken::Kind::kLetters:
        out += "<l>";
        break;
      case transform::PatternToken::Kind::kLiteral:
        out += tok.literal;
        break;
    }
  }
  return out;
}

}  // namespace

std::vector<QualityIssue> DataCleaner::Detect(const data::Table& table) const {
  std::vector<QualityIssue> out;
  for (size_t c = 0; c < table.NumColumns(); ++c) {
    const data::Column& col = table.schema().column(c);
    // NULLs.
    for (size_t r = 0; r < table.NumRows(); ++r) {
      if (table.at(r, c).is_null()) {
        out.push_back(QualityIssue{QualityIssue::Kind::kNull, r, col.name, ""});
      }
    }
    if (col.type == ColumnType::kText) {
      // Majority-pattern mismatches: mine the pattern per value, find the
      // dominant structure, and flag the minority.
      std::map<std::string, size_t> pattern_counts;
      std::vector<std::string> row_patterns(table.NumRows());
      for (size_t r = 0; r < table.NumRows(); ++r) {
        const Value& v = table.at(r, c);
        if (v.is_null()) continue;
        row_patterns[r] = ValueShape(v.AsText());
        ++pattern_counts[row_patterns[r]];
      }
      std::string dominant;
      size_t best = 0;
      for (const auto& [pattern, n] : pattern_counts) {
        if (n > best) {
          best = n;
          dominant = pattern;
        }
      }
      // Only meaningful when one structure clearly dominates.
      if (best * 2 > table.NumRows()) {
        for (size_t r = 0; r < table.NumRows(); ++r) {
          const Value& v = table.at(r, c);
          if (v.is_null() || row_patterns[r] == dominant) continue;
          out.push_back(QualityIssue{QualityIssue::Kind::kPatternMismatch, r,
                                     col.name, v.AsText()});
        }
      }
    } else if (col.type == ColumnType::kInt64 ||
               col.type == ColumnType::kDouble) {
      double mean = 0;
      size_t n = 0;
      for (size_t r = 0; r < table.NumRows(); ++r) {
        const Value& v = table.at(r, c);
        if (v.is_null()) continue;
        mean += v.AsDouble();
        ++n;
      }
      if (n < 4) continue;
      mean /= static_cast<double>(n);
      double var = 0;
      for (size_t r = 0; r < table.NumRows(); ++r) {
        const Value& v = table.at(r, c);
        if (v.is_null()) continue;
        var += (v.AsDouble() - mean) * (v.AsDouble() - mean);
      }
      double stddev = std::sqrt(var / static_cast<double>(n));
      if (stddev < 1e-12) continue;
      for (size_t r = 0; r < table.NumRows(); ++r) {
        const Value& v = table.at(r, c);
        if (v.is_null()) continue;
        if (std::abs(v.AsDouble() - mean) > kOutlierSigma * stddev) {
          out.push_back(QualityIssue{QualityIssue::Kind::kNumericOutlier, r,
                                     col.name, v.ToString()});
        }
      }
    }
  }
  return out;
}

common::Result<DataCleaner::RepairReport> DataCleaner::Repair(
    data::Table* table, llm::UsageMeter* meter) const {
  RepairReport report;
  std::vector<QualityIssue> issues = Detect(*table);
  report.issues_found = issues.size();

  // Pattern repairs: learn src->dominant transforms from column values.
  std::map<std::string, std::vector<QualityIssue>> mismatches_by_column;
  std::vector<std::string> null_columns;
  for (const QualityIssue& issue : issues) {
    if (issue.kind == QualityIssue::Kind::kPatternMismatch) {
      mismatches_by_column[issue.column].push_back(issue);
    } else if (issue.kind == QualityIssue::Kind::kNull) {
      null_columns.push_back(issue.column);
    } else {
      ++report.unresolved;  // outliers are flagged, not auto-repaired
    }
  }

  for (auto& [column, column_issues] : mismatches_by_column) {
    size_t col = *table->schema().Find(column);
    // The dominant format defines the repair target; date reformatting
    // covers the realistic case (the paper's "Aug 14 2023" vs "8/14/2023"),
    // other mismatches stay flagged for a human.
    common::Result<transform::DateStyle> target_style =
        common::Status::NotFound("no dominant date style");
    std::map<transform::DateStyle, size_t> style_votes;
    for (size_t r = 0; r < table->NumRows(); ++r) {
      const Value& v = table->at(r, col);
      if (v.is_null() || !v.is_text()) continue;
      auto style = transform::DetectDateStyle(v.AsText());
      if (style.ok()) ++style_votes[*style];
    }
    // The majority style wins; a tie goes to the style declared first.
    size_t best = 0;
    for (const auto& [style, n] : style_votes) {
      if (n > best) {
        best = n;
        target_style = style;
      }
    }
    for (const QualityIssue& issue : column_issues) {
      if (!target_style.ok()) {
        ++report.unresolved;
        continue;
      }
      auto fixed = transform::ReformatDate(issue.value, *target_style);
      if (!fixed.ok()) {
        ++report.unresolved;
        continue;
      }
      (*table->mutable_row(issue.row))[col] = Value::Text(*fixed);
      ++report.values_reformatted;
    }
  }

  // NULL repairs via ICL annotation.
  std::set<std::string> distinct_null_columns(null_columns.begin(),
                                              null_columns.end());
  for (const std::string& column : distinct_null_columns) {
    generation::MissingFieldAnnotator annotator(model_);
    auto annotated = annotator.Annotate(table, column, meter);
    if (annotated.ok()) {
      report.nulls_filled += annotated->filled;
      report.unresolved += annotated->missing - annotated->filled;
    }
  }
  return report;
}

}  // namespace llmdm::integration
