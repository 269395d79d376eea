#include "data/value.h"

#include <cctype>
#include <cmath>
#include <cstdio>

#include "common/hash.h"
#include "common/string_util.h"

namespace llmdm::data {

std::string_view ColumnTypeName(ColumnType type) {
  switch (type) {
    case ColumnType::kNull:
      return "NULL";
    case ColumnType::kBool:
      return "BOOL";
    case ColumnType::kInt64:
      return "INT";
    case ColumnType::kDouble:
      return "DOUBLE";
    case ColumnType::kText:
      return "TEXT";
    case ColumnType::kDate:
      return "DATE";
  }
  return "?";
}

std::string Date::ToString() const {
  char buf[16];
  std::snprintf(buf, sizeof(buf), "%04d-%02d-%02d", year, month, day);
  return buf;
}

int DaysInMonth(int32_t year, int32_t month) {
  static constexpr int kDays[] = {31, 28, 31, 30, 31, 30,
                                  31, 31, 30, 31, 30, 31};
  if (month < 1 || month > 12) return 0;
  const bool leap = (year % 4 == 0 && year % 100 != 0) || year % 400 == 0;
  return month == 2 && leap ? 29 : kDays[month - 1];
}

bool ParseIsoDate(std::string_view text, Date* out) {
  if (text.size() != 10 || text[4] != '-' || text[7] != '-') return false;
  // Reads the digits text[begin, begin + n) into *value.
  auto number = [text](size_t begin, size_t n, int32_t* value) {
    *value = 0;
    for (size_t i = begin; i < begin + n; ++i) {
      if (!std::isdigit(static_cast<unsigned char>(text[i]))) return false;
      *value = *value * 10 + (text[i] - '0');
    }
    return true;
  };
  Date d;
  if (!number(0, 4, &d.year) || !number(5, 2, &d.month) ||
      !number(8, 2, &d.day)) {
    return false;
  }
  if (d.day < 1 || d.day > DaysInMonth(d.year, d.month)) return false;
  *out = d;
  return true;
}

ColumnType Value::type() const {
  if (is_null()) return ColumnType::kNull;
  if (is_bool()) return ColumnType::kBool;
  if (is_int()) return ColumnType::kInt64;
  if (is_double()) return ColumnType::kDouble;
  if (is_text()) return ColumnType::kText;
  return ColumnType::kDate;
}

double Value::AsDouble() const {
  if (is_int()) return static_cast<double>(AsInt());
  return std::get<double>(v_);
}

std::string Value::ToString() const {
  if (is_null()) return "NULL";
  if (is_bool()) return AsBool() ? "TRUE" : "FALSE";
  if (is_int()) return std::to_string(AsInt());
  if (is_double()) {
    double d = std::get<double>(v_);
    // Render integral doubles without a trailing ".0"-less ambiguity but keep
    // precision for fractional values.
    if (d == std::floor(d) && std::abs(d) < 1e15) {
      return common::StrFormat("%.1f", d);
    }
    return common::StrFormat("%.6g", d);
  }
  if (is_text()) return AsText();
  return AsDate().ToString();
}

bool Value::operator==(const Value& other) const {
  if (is_null() || other.is_null()) return is_null() && other.is_null();
  if (is_numeric() && other.is_numeric()) {
    if (is_int() && other.is_int()) return AsInt() == other.AsInt();
    return AsDouble() == other.AsDouble();
  }
  return v_ == other.v_;
}

bool Value::operator<(const Value& other) const {
  // NULLs sort first.
  if (is_null() != other.is_null()) return is_null();
  if (is_null()) return false;
  if (is_numeric() && other.is_numeric()) {
    return AsDouble() < other.AsDouble();
  }
  if (v_.index() != other.v_.index()) return v_.index() < other.v_.index();
  return v_ < other.v_;
}

uint64_t Value::Hash() const {
  if (is_null()) return 0x6E756C6CULL;
  if (is_bool()) return AsBool() ? 0x74727565ULL : 0x66616C73ULL;
  if (is_numeric()) {
    // Hash int-valued doubles identically to ints (consistent with ==).
    double d = AsDouble();
    if (d == std::floor(d) && std::abs(d) < 9.2e18) {
      int64_t i = static_cast<int64_t>(d);
      return common::HashCombine(0x696E74ULL, static_cast<uint64_t>(i));
    }
    uint64_t bits;
    static_assert(sizeof(bits) == sizeof(d));
    __builtin_memcpy(&bits, &d, sizeof(bits));
    return common::HashCombine(0x646F7562ULL, bits);
  }
  if (is_text()) return common::Fnv1a(AsText());
  const Date& dt = AsDate();
  uint64_t h = common::HashCombine(0x64617465ULL, static_cast<uint64_t>(dt.year));
  h = common::HashCombine(h, static_cast<uint64_t>(dt.month));
  return common::HashCombine(h, static_cast<uint64_t>(dt.day));
}

}  // namespace llmdm::data
