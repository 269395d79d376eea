#ifndef LLMDM_DATA_TABLE_H_
#define LLMDM_DATA_TABLE_H_

#include <string>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "data/schema.h"
#include "data/value.h"

namespace llmdm::data {

using Row = std::vector<Value>;

/// In-memory row-store table. This is the exchange format for everything in
/// the library: the SQL engine's storage and result sets, the transformation
/// targets, the integration inputs, and the ML training sets.
class Table {
 public:
  Table() = default;
  Table(std::string name, Schema schema)
      : name_(std::move(name)), schema_(std::move(schema)) {}

  const std::string& name() const { return name_; }
  void set_name(std::string name) { name_ = std::move(name); }
  const Schema& schema() const { return schema_; }
  Schema* mutable_schema() { return &schema_; }

  size_t NumRows() const { return rows_.size(); }
  size_t NumColumns() const { return schema_.size(); }
  bool empty() const { return rows_.empty(); }

  const Row& row(size_t i) const { return rows_[i]; }
  Row* mutable_row(size_t i) { return &rows_[i]; }
  const std::vector<Row>& rows() const { return rows_; }

  const Value& at(size_t row, size_t col) const { return rows_[row][col]; }

  /// Appends a row after checking arity, type compatibility (NULLs allowed in
  /// nullable columns, ints accepted in double columns).
  common::Status AppendRow(Row row);

  /// Appends without validation (hot path for the executor, which constructs
  /// well-typed rows by construction).
  void AppendRowUnchecked(Row row) { rows_.push_back(std::move(row)); }

  /// Column values as a vector (for pattern mining / stats).
  common::Result<std::vector<Value>> ColumnValues(std::string_view name) const;

  /// Projection keeping `column_names` in order.
  common::Result<Table> Project(const std::vector<std::string>& column_names) const;

  /// Bag (multiset) equality of rows, ignoring row order and column names but
  /// not column order. This is the "execution match" criterion used to grade
  /// generated SQL, as in text-to-SQL benchmarks.
  bool BagEquals(const Table& other) const;

  /// Deterministic fingerprint of the row bag (order-insensitive).
  uint64_t BagHash() const;

  /// Pretty-printed grid (for examples and debugging).
  std::string ToString(size_t max_rows = 20) const;

  /// One row serialized as "col1 is v1; col2 is v2; ..." — the row
  /// serialization the paper describes for feeding tabular data to LLMs.
  std::string SerializeRowAsText(size_t row_index) const;

 private:
  std::string name_;
  Schema schema_;
  std::vector<Row> rows_;
};

}  // namespace llmdm::data

#endif  // LLMDM_DATA_TABLE_H_
