#include "core/transform/pipeline_rec.h"

#include <algorithm>
#include <cmath>
#include <set>

#include "common/string_util.h"

namespace llmdm::transform {
namespace {

using data::ColumnType;
using data::Value;

// Numeric feature column indexes (skips the label and non-numeric columns).
std::vector<size_t> NumericFeatureColumns(const data::Table& table,
                                          const std::string& label_column) {
  std::vector<size_t> out;
  auto label_idx = table.schema().Find(label_column);
  for (size_t c = 0; c < table.NumColumns(); ++c) {
    if (label_idx.has_value() && c == *label_idx) continue;
    ColumnType t = table.schema().column(c).type;
    if (t == ColumnType::kInt64 || t == ColumnType::kDouble) out.push_back(c);
  }
  return out;
}

// (mean, stddev) of a numeric column, ignoring NULLs.
std::pair<double, double> ColumnStats(const data::Table& table, size_t col) {
  double sum = 0;
  size_t n = 0;
  for (size_t r = 0; r < table.NumRows(); ++r) {
    const Value& v = table.at(r, col);
    if (v.is_null()) continue;
    sum += v.AsDouble();
    ++n;
  }
  if (n == 0) return {0.0, 1.0};
  double mean = sum / static_cast<double>(n);
  double var = 0;
  for (size_t r = 0; r < table.NumRows(); ++r) {
    const Value& v = table.at(r, col);
    if (v.is_null()) continue;
    var += (v.AsDouble() - mean) * (v.AsDouble() - mean);
  }
  var /= static_cast<double>(n);
  return {mean, std::sqrt(std::max(var, 0.0))};
}

}  // namespace

common::Result<data::Table> ApplyPrepOp(const data::Table& table,
                                        const std::string& label_column,
                                        PrepOp op) {
  data::Table out = table;
  std::vector<size_t> features = NumericFeatureColumns(out, label_column);
  switch (op) {
    case PrepOp::kImputeMean: {
      for (size_t c : features) {
        auto [mean, stddev] = ColumnStats(out, c);
        bool integer = out.schema().column(c).type == ColumnType::kInt64;
        for (size_t r = 0; r < out.NumRows(); ++r) {
          if (out.at(r, c).is_null()) {
            (*out.mutable_row(r))[c] =
                integer ? Value::Int(static_cast<int64_t>(std::llround(mean)))
                        : Value::Real(mean);
          }
        }
      }
      return out;
    }
    case PrepOp::kStandardize: {
      for (size_t c : features) {
        auto [mean, stddev] = ColumnStats(out, c);
        if (stddev < 1e-12) stddev = 1.0;
        out.mutable_schema()->mutable_column(c)->type = ColumnType::kDouble;
        for (size_t r = 0; r < out.NumRows(); ++r) {
          const Value& v = out.at(r, c);
          if (v.is_null()) continue;
          (*out.mutable_row(r))[c] = Value::Real((v.AsDouble() - mean) / stddev);
        }
      }
      return out;
    }
    case PrepOp::kClipOutliers: {
      for (size_t c : features) {
        auto [mean, stddev] = ColumnStats(out, c);
        double lo = mean - 3.0 * stddev, hi = mean + 3.0 * stddev;
        bool integer = out.schema().column(c).type == ColumnType::kInt64;
        for (size_t r = 0; r < out.NumRows(); ++r) {
          const Value& v = out.at(r, c);
          if (v.is_null()) continue;
          double clipped = std::clamp(v.AsDouble(), lo, hi);
          (*out.mutable_row(r))[c] =
              integer ? Value::Int(static_cast<int64_t>(std::llround(clipped)))
                      : Value::Real(clipped);
        }
      }
      return out;
    }
    case PrepOp::kDropLowVariance: {
      std::vector<std::string> keep;
      std::set<size_t> dropped;
      for (size_t c : features) {
        auto [mean, stddev] = ColumnStats(out, c);
        double scale = std::max(std::abs(mean), 1.0);
        if (stddev / scale < 1e-3) dropped.insert(c);
      }
      for (size_t c = 0; c < out.NumColumns(); ++c) {
        if (!dropped.count(c)) keep.push_back(out.schema().column(c).name);
      }
      return out.Project(keep);
    }
    case PrepOp::kAddInteractions: {
      if (features.size() < 2) return out;
      // Pick the two highest-variance features; append their product.
      std::vector<std::pair<double, size_t>> by_variance;
      for (size_t c : features) {
        auto [mean, stddev] = ColumnStats(out, c);
        by_variance.emplace_back(stddev, c);
      }
      std::sort(by_variance.rbegin(), by_variance.rend());
      size_t a = by_variance[0].second, b = by_variance[1].second;
      std::string name = out.schema().column(a).name + "_x_" +
                         out.schema().column(b).name;
      if (out.schema().Find(name).has_value()) return out;  // already added
      out.mutable_schema()->AddColumn(
          data::Column{name, ColumnType::kDouble, true});
      for (size_t r = 0; r < out.NumRows(); ++r) {
        const Value& va = out.at(r, a);
        const Value& vb = out.at(r, b);
        out.mutable_row(r)->push_back(
            (va.is_null() || vb.is_null())
                ? Value::Null()
                : Value::Real(va.AsDouble() * vb.AsDouble()));
      }
      return out;
    }
  }
  return common::Status::Unimplemented("unknown prep op");
}

double PipelineRecommender::Evaluate(const data::Table& table,
                                     const std::string& label_column) const {
  auto dataset = ml::DatasetFromTable(table, label_column);
  if (!dataset.ok() || dataset->size() < 10) return 0.0;
  // Deterministic split: every k-th row to holdout.
  size_t holdout_every = std::max<size_t>(
      2, static_cast<size_t>(1.0 / std::max(options_.holdout_fraction, 0.05)));
  ml::Dataset train, hold;
  train.feature_names = hold.feature_names = dataset->feature_names;
  for (size_t i = 0; i < dataset->size(); ++i) {
    if (i % holdout_every == 0) {
      hold.features.push_back(dataset->features[i]);
      hold.labels.push_back(dataset->labels[i]);
    } else {
      train.features.push_back(dataset->features[i]);
      train.labels.push_back(dataset->labels[i]);
    }
  }
  auto stats = ml::Standardize(&train);
  ml::ApplyStandardization(stats, &hold);
  ml::LogisticRegression model;
  ml::LogisticRegression::TrainOptions train_options;
  train_options.seed = options_.seed;
  model.Train(train, train_options);
  return model.Accuracy(hold);
}

common::Result<std::vector<PipelineCandidate>> PipelineRecommender::Recommend(
    const data::Table& table, const std::string& label_column,
    llm::UsageMeter* meter) const {
  // Profile-driven operator pruning (the LLM-advice step): only consider
  // imputation when NULLs exist, interactions when >= 2 numeric features.
  std::vector<PrepOp> ops{PrepOp::kStandardize, PrepOp::kClipOutliers,
                          PrepOp::kDropLowVariance};
  bool has_nulls = false;
  for (size_t r = 0; r < table.NumRows() && !has_nulls; ++r) {
    for (size_t c = 0; c < table.NumColumns(); ++c) {
      if (table.at(r, c).is_null()) {
        has_nulls = true;
        break;
      }
    }
  }
  if (has_nulls) ops.insert(ops.begin(), PrepOp::kImputeMean);
  if (NumericFeatureColumns(table, label_column).size() >= 2) {
    ops.push_back(PrepOp::kAddInteractions);
  }
  if (options_.advisor != nullptr) {
    llm::Prompt p;
    p.task_tag = "freeform";
    p.instructions = "Recommend data preparation operators for this profile.";
    p.input = common::StrFormat(
        "rows=%zu cols=%zu nulls=%s label=%s", table.NumRows(),
        table.NumColumns(), has_nulls ? "yes" : "no", label_column.c_str());
    auto advice = options_.advisor->CompleteMetered(p, meter);
    if (!advice.ok()) return advice.status();
  }

  struct BeamEntry {
    std::vector<PrepOp> program;
    data::Table table;
    double accuracy;
  };
  double baseline = Evaluate(table, label_column);
  std::vector<BeamEntry> beam{{{}, table, baseline}};
  std::vector<PipelineCandidate> all{{{}, baseline}};

  for (size_t depth = 0; depth < options_.max_depth; ++depth) {
    std::vector<BeamEntry> next;
    for (const BeamEntry& entry : beam) {
      for (PrepOp op : ops) {
        // Skip idempotent repeats.
        if (!entry.program.empty() && entry.program.back() == op) continue;
        auto transformed = ApplyPrepOp(entry.table, label_column, op);
        if (!transformed.ok()) continue;
        BeamEntry candidate;
        candidate.program = entry.program;
        candidate.program.push_back(op);
        candidate.accuracy = Evaluate(*transformed, label_column);
        candidate.table = std::move(*transformed);
        all.push_back(PipelineCandidate{candidate.program, candidate.accuracy});
        next.push_back(std::move(candidate));
      }
    }
    if (next.empty()) break;
    std::sort(next.begin(), next.end(),
              [](const BeamEntry& a, const BeamEntry& b) {
                return a.accuracy > b.accuracy;
              });
    if (next.size() > options_.beam_width) next.resize(options_.beam_width);
    beam = std::move(next);
  }
  std::sort(all.begin(), all.end(),
            [](const PipelineCandidate& a, const PipelineCandidate& b) {
              if (a.holdout_accuracy != b.holdout_accuracy) {
                return a.holdout_accuracy > b.holdout_accuracy;
              }
              return a.ops.size() < b.ops.size();
            });
  return all;
}

}  // namespace llmdm::transform
