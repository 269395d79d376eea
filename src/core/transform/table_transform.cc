#include "core/transform/table_transform.h"

#include <algorithm>
#include <map>
#include <set>

#include "common/string_util.h"
#include "data/value.h"

namespace llmdm::transform {
namespace {

using data::ColumnType;
using data::Value;

// Classifies a cell string for type-consistency scoring / ingestion.
enum class CellKind { kEmpty, kInt, kDouble, kBool, kDate, kText };

CellKind ClassifyCell(const std::string& cell) {
  if (common::Trim(cell).empty()) return CellKind::kEmpty;
  int64_t i;
  if (common::ParseInt64(cell, &i)) return CellKind::kInt;
  double d;
  if (common::ParseDouble(cell, &d)) return CellKind::kDouble;
  std::string lower = common::ToLower(cell);
  if (lower == "true" || lower == "false") return CellKind::kBool;
  data::Date date;
  if (data::ParseIsoDate(cell, &date)) return CellKind::kDate;
  return CellKind::kText;
}

Value CellToValue(const std::string& cell, ColumnType type) {
  if (common::Trim(cell).empty()) return Value::Null();
  switch (type) {
    case ColumnType::kInt64: {
      int64_t v = 0;
      common::ParseInt64(cell, &v);
      return Value::Int(v);
    }
    case ColumnType::kDouble: {
      double v = 0;
      common::ParseDouble(cell, &v);
      return Value::Real(v);
    }
    case ColumnType::kBool:
      return Value::Bool(common::ToLower(cell) == "true");
    case ColumnType::kDate: {
      data::Date d;
      data::ParseIsoDate(cell, &d);
      return Value::MakeDate(d);
    }
    default:
      return Value::Text(cell);
  }
}

// Narrowest type that fits every non-empty cell of `cells`.
ColumnType InferCellType(const std::vector<std::string>& cells) {
  bool any = false;
  bool all_int = true, all_double = true, all_bool = true, all_date = true;
  for (const std::string& c : cells) {
    CellKind kind = ClassifyCell(c);
    if (kind == CellKind::kEmpty) continue;
    any = true;
    all_int = all_int && kind == CellKind::kInt;
    all_double = all_double &&
                 (kind == CellKind::kInt || kind == CellKind::kDouble);
    all_bool = all_bool && kind == CellKind::kBool;
    all_date = all_date && kind == CellKind::kDate;
  }
  if (!any) return ColumnType::kText;
  if (all_bool) return ColumnType::kBool;
  if (all_int) return ColumnType::kInt64;
  if (all_double) return ColumnType::kDouble;
  if (all_date) return ColumnType::kDate;
  return ColumnType::kText;
}

}  // namespace

// ---- XML -> table -------------------------------------------------------------

common::Result<data::Table> XmlToTable(const data::XmlNode& root) {
  if (root.children.empty()) {
    return common::Status::InvalidArgument(
        "XML root has no record children to relationalize");
  }
  // Records = the majority child tag (robust to stray metadata elements).
  std::map<std::string, size_t> tag_counts;
  for (const auto& child : root.children) ++tag_counts[child->tag];
  std::string record_tag;
  size_t best = 0;
  for (const auto& [tag, n] : tag_counts) {
    if (n > best) {
      best = n;
      record_tag = tag;
    }
  }
  std::vector<const data::XmlNode*> records = root.FindChildren(record_tag);

  // Columns: attributes first (document order), then child tags.
  std::vector<std::string> columns;
  std::set<std::string> seen;
  for (const data::XmlNode* record : records) {
    for (const auto& [attr, value] : record->attributes) {
      if (seen.insert(attr).second) columns.push_back(attr);
    }
    for (const auto& child : record->children) {
      if (seen.insert(child->tag).second) columns.push_back(child->tag);
    }
  }
  if (columns.empty()) {
    return common::Status::InvalidArgument(
        "XML records carry no attributes or child elements");
  }

  // Collect raw cells, then infer per-column types.
  std::vector<std::vector<std::string>> cells(records.size());
  for (size_t r = 0; r < records.size(); ++r) {
    cells[r].resize(columns.size());
    for (size_t c = 0; c < columns.size(); ++c) {
      std::string_view attr = records[r]->Attribute(columns[c]);
      if (!attr.empty()) {
        cells[r][c] = std::string(attr);
        continue;
      }
      const data::XmlNode* child = records[r]->FindChild(columns[c]);
      if (child != nullptr) cells[r][c] = std::string(common::Trim(child->text));
    }
  }
  data::Schema schema;
  std::vector<ColumnType> types;
  for (size_t c = 0; c < columns.size(); ++c) {
    std::vector<std::string> column_cells;
    for (size_t r = 0; r < records.size(); ++r) column_cells.push_back(cells[r][c]);
    types.push_back(InferCellType(column_cells));
    schema.AddColumn(data::Column{columns[c], types[c], true});
  }
  data::Table table(record_tag, schema);
  for (size_t r = 0; r < records.size(); ++r) {
    data::Row row;
    for (size_t c = 0; c < columns.size(); ++c) {
      row.push_back(CellToValue(cells[r][c], types[c]));
    }
    LLMDM_RETURN_IF_ERROR(table.AppendRow(std::move(row)));
  }
  return table;
}

// ---- JSON -> table -------------------------------------------------------------

namespace {

void FlattenObject(const data::JsonValue& obj, const std::string& prefix,
                   std::vector<std::pair<std::string, std::string>>* out) {
  for (const auto& [key, value] : obj.members()) {
    std::string name = prefix.empty() ? key : prefix + "." + key;
    switch (value.kind()) {
      case data::JsonValue::Kind::kObject:
        FlattenObject(value, name, out);
        break;
      case data::JsonValue::Kind::kNull:
        out->emplace_back(name, "");
        break;
      case data::JsonValue::Kind::kArray:
        out->emplace_back(name, value.ToString());
        break;
      case data::JsonValue::Kind::kString:
        out->emplace_back(name, value.AsString());
        break;
      default:
        out->emplace_back(name, value.ToString());
    }
  }
}

}  // namespace

common::Result<data::Table> JsonToTable(const data::JsonValue& array) {
  if (!array.is_array() || array.items().empty()) {
    return common::Status::InvalidArgument(
        "expected a non-empty JSON array of objects");
  }
  std::vector<std::string> columns;
  std::set<std::string> seen;
  std::vector<std::vector<std::pair<std::string, std::string>>> flat_rows;
  for (const data::JsonValue& item : array.items()) {
    if (!item.is_object()) {
      return common::Status::InvalidArgument(
          "JSON array elements must be objects");
    }
    std::vector<std::pair<std::string, std::string>> flat;
    FlattenObject(item, "", &flat);
    for (const auto& [key, value] : flat) {
      if (seen.insert(key).second) columns.push_back(key);
    }
    flat_rows.push_back(std::move(flat));
  }
  std::vector<std::vector<std::string>> cells(flat_rows.size());
  for (size_t r = 0; r < flat_rows.size(); ++r) {
    cells[r].resize(columns.size());
    for (const auto& [key, value] : flat_rows[r]) {
      auto it = std::find(columns.begin(), columns.end(), key);
      cells[r][static_cast<size_t>(it - columns.begin())] = value;
    }
  }
  data::Schema schema;
  std::vector<ColumnType> types;
  for (size_t c = 0; c < columns.size(); ++c) {
    std::vector<std::string> column_cells;
    for (size_t r = 0; r < cells.size(); ++r) column_cells.push_back(cells[r][c]);
    types.push_back(InferCellType(column_cells));
    schema.AddColumn(data::Column{columns[c], types[c], true});
  }
  data::Table table("json", schema);
  for (size_t r = 0; r < cells.size(); ++r) {
    data::Row row;
    for (size_t c = 0; c < columns.size(); ++c) {
      row.push_back(CellToValue(cells[r][c], types[c]));
    }
    LLMDM_RETURN_IF_ERROR(table.AppendRow(std::move(row)));
  }
  return table;
}

// ---- operator synthesis ---------------------------------------------------------

std::string_view TableOpName(TableOp op) {
  switch (op) {
    case TableOp::kPromoteHeader:
      return "promote_header";
    case TableOp::kTranspose:
      return "transpose";
    case TableOp::kFillDown:
      return "fill_down";
    case TableOp::kDropEmptyRows:
      return "drop_empty_rows";
    case TableOp::kDropEmptyColumns:
      return "drop_empty_columns";
    case TableOp::kUnpivot:
      return "unpivot";
  }
  return "?";
}

Grid ApplyOp(const Grid& grid, TableOp op) {
  if (grid.empty()) return grid;
  switch (op) {
    case TableOp::kPromoteHeader:
      return grid;  // header interpretation is GridToTable's job; no-op here
    case TableOp::kTranspose: {
      size_t cols = 0;
      for (const auto& row : grid) cols = std::max(cols, row.size());
      Grid out(cols, std::vector<std::string>(grid.size()));
      for (size_t r = 0; r < grid.size(); ++r) {
        for (size_t c = 0; c < grid[r].size(); ++c) out[c][r] = grid[r][c];
      }
      return out;
    }
    case TableOp::kFillDown: {
      Grid out = grid;
      for (size_t r = 1; r < out.size(); ++r) {
        for (size_t c = 0; c < out[r].size(); ++c) {
          if (common::Trim(out[r][c]).empty() && c < out[r - 1].size()) {
            out[r][c] = out[r - 1][c];
          }
        }
      }
      return out;
    }
    case TableOp::kDropEmptyRows: {
      Grid out;
      for (const auto& row : grid) {
        bool empty = true;
        for (const auto& cell : row) empty = empty && common::Trim(cell).empty();
        if (!empty) out.push_back(row);
      }
      return out;
    }
    case TableOp::kDropEmptyColumns: {
      size_t cols = 0;
      for (const auto& row : grid) cols = std::max(cols, row.size());
      std::vector<bool> keep(cols, false);
      for (const auto& row : grid) {
        for (size_t c = 0; c < row.size(); ++c) {
          if (!common::Trim(row[c]).empty()) keep[c] = true;
        }
      }
      Grid out;
      for (const auto& row : grid) {
        std::vector<std::string> nr;
        for (size_t c = 0; c < cols; ++c) {
          if (keep[c]) nr.push_back(c < row.size() ? row[c] : "");
        }
        out.push_back(std::move(nr));
      }
      return out;
    }
    case TableOp::kUnpivot: {
      // Wide -> long: header row (key, attr1, attr2, ...) becomes rows of
      // (key, attribute, value).
      if (grid.size() < 2 || grid[0].size() < 3) return grid;
      Grid out;
      out.push_back({grid[0][0], "attribute", "value"});
      for (size_t r = 1; r < grid.size(); ++r) {
        for (size_t c = 1; c < grid[r].size(); ++c) {
          out.push_back({grid[r][0], grid[0][c], grid[r][c]});
        }
      }
      return out;
    }
  }
  return grid;
}

double RelationalScore(const Grid& grid) {
  if (grid.size() < 2) return 0.0;
  size_t cols = grid[0].size();
  if (cols == 0) return 0.0;
  for (const auto& row : grid) {
    if (row.size() != cols) return 0.05;  // ragged: barely relational
  }
  double score = 0.0;

  // Header plausibility: first row all non-empty distinct text.
  std::set<std::string> header(grid[0].begin(), grid[0].end());
  bool header_texty = true;
  for (const std::string& h : grid[0]) {
    CellKind kind = ClassifyCell(h);
    header_texty = header_texty && kind == CellKind::kText;
  }
  if (header.size() == cols && header_texty) score += 0.3;

  // Column type consistency over the body.
  double consistent = 0.0;
  size_t nonempty_cells = 0, total_cells = 0;
  for (size_t c = 0; c < cols; ++c) {
    std::map<CellKind, size_t> kinds;
    size_t n = 0;
    for (size_t r = 1; r < grid.size(); ++r) {
      ++total_cells;
      CellKind kind = ClassifyCell(grid[r][c]);
      if (kind == CellKind::kEmpty) continue;
      ++nonempty_cells;
      ++kinds[kind];
      ++n;
    }
    if (n == 0) continue;
    size_t mode = 0;
    for (const auto& [kind, count] : kinds) mode = std::max(mode, count);
    consistent += static_cast<double>(mode) / static_cast<double>(n);
  }
  score += 0.4 * consistent / static_cast<double>(cols);

  // Density: few empty cells.
  if (total_cells > 0) {
    score += 0.2 * static_cast<double>(nonempty_cells) /
             static_cast<double>(total_cells);
  }

  // Shape: relational tables are long, not wide.
  if (grid.size() - 1 >= cols) score += 0.1;

  // Duplicate body rows suggest a fabricated record (e.g. fill-down applied
  // to a blank trailing row) — penalize proportionally.
  std::set<std::string> distinct_rows;
  for (size_t r = 1; r < grid.size(); ++r) {
    std::string key;
    for (const auto& cell : grid[r]) {
      key += cell;
      key.push_back('\x1f');
    }
    distinct_rows.insert(std::move(key));
  }
  size_t body = grid.size() - 1;
  if (body > 0) {
    double dup_fraction =
        static_cast<double>(body - distinct_rows.size()) /
        static_cast<double>(body);
    score -= 0.3 * dup_fraction;
  }
  return score;
}

SynthesisResult SynthesizeRelationalization(const Grid& grid,
                                            size_t beam_width,
                                            size_t max_depth) {
  struct Candidate {
    std::vector<TableOp> program;
    Grid grid;
    double score;
  };
  const TableOp kOps[] = {TableOp::kTranspose,      TableOp::kFillDown,
                          TableOp::kDropEmptyRows,  TableOp::kDropEmptyColumns,
                          TableOp::kUnpivot};
  std::vector<Candidate> beam{{{}, grid, RelationalScore(grid)}};
  Candidate best = beam[0];
  for (size_t depth = 0; depth < max_depth; ++depth) {
    std::vector<Candidate> next;
    for (const Candidate& cand : beam) {
      for (TableOp op : kOps) {
        Candidate expanded;
        expanded.program = cand.program;
        expanded.program.push_back(op);
        expanded.grid = ApplyOp(cand.grid, op);
        if (expanded.grid.empty()) continue;
        expanded.score = RelationalScore(expanded.grid);
        // Tiny per-op penalty: prefer shorter programs at equal quality.
        expanded.score -= 0.01 * static_cast<double>(expanded.program.size());
        next.push_back(std::move(expanded));
      }
    }
    if (next.empty()) break;
    std::sort(next.begin(), next.end(),
              [](const Candidate& a, const Candidate& b) {
                return a.score > b.score;
              });
    if (next.size() > beam_width) next.resize(beam_width);
    beam = std::move(next);
    if (beam[0].score > best.score) best = beam[0];
  }
  return SynthesisResult{best.program, best.grid, best.score};
}

common::Result<data::Table> GridToTable(const Grid& grid,
                                        const std::string& name) {
  if (grid.size() < 2) {
    return common::Status::InvalidArgument(
        "grid needs a header row and at least one data row");
  }
  size_t cols = grid[0].size();
  data::Schema schema;
  std::vector<ColumnType> types;
  for (size_t c = 0; c < cols; ++c) {
    std::vector<std::string> cells;
    for (size_t r = 1; r < grid.size(); ++r) {
      cells.push_back(c < grid[r].size() ? grid[r][c] : "");
    }
    types.push_back(InferCellType(cells));
    std::string header = common::Trim(grid[0][c]).empty()
                             ? common::StrFormat("col%zu", c)
                             : grid[0][c];
    schema.AddColumn(data::Column{header, types[c], true});
  }
  data::Table table(name, schema);
  for (size_t r = 1; r < grid.size(); ++r) {
    data::Row row;
    for (size_t c = 0; c < cols; ++c) {
      row.push_back(
          CellToValue(c < grid[r].size() ? grid[r][c] : "", types[c]));
    }
    LLMDM_RETURN_IF_ERROR(table.AppendRow(std::move(row)));
  }
  return table;
}

}  // namespace llmdm::transform
