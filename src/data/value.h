#ifndef LLMDM_DATA_VALUE_H_
#define LLMDM_DATA_VALUE_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <variant>

namespace llmdm::data {

/// Column types understood by the relational layer and the SQL engine.
enum class ColumnType {
  kNull = 0,  // only appears as the type of a bare NULL literal
  kBool,
  kInt64,
  kDouble,
  kText,
  kDate,
};

std::string_view ColumnTypeName(ColumnType type);

/// Calendar date. Stored as civil fields; ordering is lexicographic on
/// (year, month, day). Used by the column-pattern miner (date reformatting is
/// the paper's running example of a column transformation).
struct Date {
  int32_t year = 1970;
  int32_t month = 1;
  int32_t day = 1;

  auto operator<=>(const Date&) const = default;

  /// ISO "YYYY-MM-DD".
  std::string ToString() const;
};

/// Days in `month` (1-12) of the proleptic Gregorian `year`; 0 for a month
/// outside 1-12.
int DaysInMonth(int32_t year, int32_t month);

/// Parses "YYYY-MM-DD" into a Date. False for any other shape and for a day
/// the month does not have ("2023-02-30").
bool ParseIsoDate(std::string_view text, Date* out);

/// A dynamically typed scalar cell. NULL is modeled as monostate so that SQL
/// three-valued logic can distinguish it from any typed value.
class Value {
 public:
  Value() : v_(std::monostate{}) {}
  static Value Null() { return Value(); }
  static Value Bool(bool b) { return Value(std::in_place_type<bool>, b); }
  static Value Int(int64_t i) { return Value(std::in_place_type<int64_t>, i); }
  static Value Real(double d) { return Value(std::in_place_type<double>, d); }
  static Value Text(std::string s) {
    return Value(std::in_place_type<std::string>, std::move(s));
  }
  static Value MakeDate(Date d) { return Value(std::in_place_type<Date>, d); }
  static Value MakeDate(int32_t y, int32_t m, int32_t day) {
    return Value(std::in_place_type<Date>, Date{y, m, day});
  }

  bool is_null() const { return std::holds_alternative<std::monostate>(v_); }
  bool is_bool() const { return std::holds_alternative<bool>(v_); }
  bool is_int() const { return std::holds_alternative<int64_t>(v_); }
  bool is_double() const { return std::holds_alternative<double>(v_); }
  bool is_text() const { return std::holds_alternative<std::string>(v_); }
  bool is_date() const { return std::holds_alternative<Date>(v_); }
  bool is_numeric() const { return is_int() || is_double(); }

  ColumnType type() const;

  bool AsBool() const { return std::get<bool>(v_); }
  int64_t AsInt() const { return std::get<int64_t>(v_); }
  double AsDouble() const;  // widens int64 -> double
  const std::string& AsText() const { return std::get<std::string>(v_); }
  const Date& AsDate() const { return std::get<Date>(v_); }

  /// SQL-style rendering: NULL, TRUE/FALSE, numbers, bare text, ISO dates.
  std::string ToString() const;

  /// Equality with NULL == NULL (used for result-set comparison, where the
  /// bag semantics treat NULLs as identical). Numeric int/double compare by
  /// value (1 == 1.0).
  bool operator==(const Value& other) const;

  /// Total order for sorting result sets: NULL first, then by type, then by
  /// value; int/double compare numerically.
  bool operator<(const Value& other) const;

  /// Stable hash consistent with operator==.
  uint64_t Hash() const;

 private:
  using Payload =
      std::variant<std::monostate, bool, int64_t, double, std::string, Date>;
  /// Builds the alternative in place: moving a Payload temporary in made
  /// GCC 12 report its untouched storage as maybe-uninitialized under the
  /// sanitizers.
  template <typename T, typename Arg>
  Value(std::in_place_type_t<T> type, Arg&& arg)
      : v_(type, std::forward<Arg>(arg)) {}

  Payload v_;
};

}  // namespace llmdm::data

#endif  // LLMDM_DATA_VALUE_H_
