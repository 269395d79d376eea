#include "core/transform/column_pattern.h"

#include <algorithm>
#include <cctype>
#include <charconv>
#include <map>

#include "common/string_util.h"
#include "data/value.h"

namespace llmdm::transform {
namespace {

const char* const kMonthNames[] = {"Jan", "Feb", "Mar", "Apr", "May", "Jun",
                                   "Jul", "Aug", "Sep", "Oct", "Nov", "Dec"};

struct CivilDate {
  int year = 0, month = 0, day = 0;
};

int MonthFromName(std::string_view name) {
  for (int m = 0; m < 12; ++m) {
    if (common::ToLower(name) == common::ToLower(kMonthNames[m])) return m + 1;
  }
  return 0;
}

/// Reads a run of ASCII digits as an int. A run that is empty, holds
/// anything but digits, or does not fit an int fails the style match; it
/// never throws, as std::stoi would on overflow.
bool ParseDigitRun(std::string_view s, int* out) {
  if (s.empty()) return false;
  for (char c : s) {
    if (!std::isdigit(static_cast<unsigned char>(c))) return false;
  }
  auto [end, ec] = std::from_chars(s.data(), s.data() + s.size(), *out);
  return ec == std::errc() && end == s.data() + s.size();
}

common::Result<CivilDate> ParseDateAs(std::string_view value,
                                      DateStyle style) {
  CivilDate d;
  auto fail = [&] {
    return common::Status::InvalidArgument("value does not match date style");
  };
  switch (style) {
    case DateStyle::kIso: {
      auto parts = common::Split(std::string(value), '-');
      if (parts.size() != 3 || !ParseDigitRun(parts[0], &d.year) ||
          !ParseDigitRun(parts[1], &d.month) ||
          !ParseDigitRun(parts[2], &d.day))
        return fail();
      break;
    }
    case DateStyle::kSlashMDY: {
      auto parts = common::Split(std::string(value), '/');
      if (parts.size() != 3 || !ParseDigitRun(parts[0], &d.month) ||
          !ParseDigitRun(parts[1], &d.day) ||
          !ParseDigitRun(parts[2], &d.year))
        return fail();
      break;
    }
    case DateStyle::kMonthDY: {
      auto parts = common::SplitWhitespace(value);
      if (parts.size() != 3 || !ParseDigitRun(parts[1], &d.day) ||
          !ParseDigitRun(parts[2], &d.year))
        return fail();
      d.month = MonthFromName(parts[0]);
      if (d.month == 0) return fail();
      break;
    }
    case DateStyle::kDMonthY: {
      auto parts = common::SplitWhitespace(value);
      if (parts.size() != 3 || !ParseDigitRun(parts[0], &d.day) ||
          !ParseDigitRun(parts[2], &d.year))
        return fail();
      d.month = MonthFromName(parts[1]);
      if (d.month == 0) return fail();
      break;
    }
  }
  // DaysInMonth is 0 for a month outside 1-12, so this rejects it too.
  if (d.year < 1000 || d.day < 1 || d.day > data::DaysInMonth(d.year, d.month))
    return fail();
  return d;
}

std::string FormatDateAs(const CivilDate& d, DateStyle style) {
  switch (style) {
    case DateStyle::kIso:
      return common::StrFormat("%04d-%02d-%02d", d.year, d.month, d.day);
    case DateStyle::kSlashMDY:
      return common::StrFormat("%d/%d/%d", d.month, d.day, d.year);
    case DateStyle::kMonthDY:
      return common::StrFormat("%s %d %d", kMonthNames[d.month - 1], d.day,
                               d.year);
    case DateStyle::kDMonthY:
      return common::StrFormat("%d %s %d", d.day, kMonthNames[d.month - 1],
                               d.year);
  }
  return "";
}

const char* DateStyleName(DateStyle style) {
  switch (style) {
    case DateStyle::kIso:
      return "iso";
    case DateStyle::kSlashMDY:
      return "slash_mdy";
    case DateStyle::kMonthDY:
      return "month_d_y";
    case DateStyle::kDMonthY:
      return "d_month_y";
  }
  return "?";
}

}  // namespace

// ---- pattern mining ---------------------------------------------------------

Pattern ValuePattern(std::string_view value) {
  Pattern out;
  size_t i = 0;
  while (i < value.size()) {
    char c = value[i];
    if (std::isdigit(static_cast<unsigned char>(c))) {
      size_t start = i;
      while (i < value.size() &&
             std::isdigit(static_cast<unsigned char>(value[i])))
        ++i;
      PatternToken tok;
      tok.kind = PatternToken::Kind::kDigits;
      tok.min_len = tok.max_len = i - start;
      out.push_back(tok);
    } else if (std::isalpha(static_cast<unsigned char>(c))) {
      size_t start = i;
      while (i < value.size() &&
             std::isalpha(static_cast<unsigned char>(value[i])))
        ++i;
      PatternToken tok;
      tok.kind = PatternToken::Kind::kLetters;
      tok.min_len = tok.max_len = i - start;
      out.push_back(tok);
    } else {
      PatternToken tok;
      tok.kind = PatternToken::Kind::kLiteral;
      tok.literal = std::string(1, c);
      out.push_back(tok);
      ++i;
    }
  }
  return out;
}

common::Result<Pattern> MineColumnPattern(
    const std::vector<std::string>& values) {
  if (values.empty()) {
    return common::Status::InvalidArgument("no values to mine a pattern from");
  }
  Pattern mined = ValuePattern(values[0]);
  for (size_t i = 1; i < values.size(); ++i) {
    Pattern p = ValuePattern(values[i]);
    if (p.size() != mined.size()) {
      return common::Status::InvalidArgument(common::StrFormat(
          "value '%s' breaks the column's token structure", values[i].c_str()));
    }
    for (size_t t = 0; t < p.size(); ++t) {
      if (p[t].kind != mined[t].kind ||
          (p[t].kind == PatternToken::Kind::kLiteral &&
           p[t].literal != mined[t].literal)) {
        return common::Status::InvalidArgument(common::StrFormat(
            "value '%s' breaks the column's token structure",
            values[i].c_str()));
      }
      mined[t].min_len = std::min(mined[t].min_len, p[t].min_len);
      mined[t].max_len = std::max(mined[t].max_len, p[t].max_len);
    }
  }
  return mined;
}

std::string PatternToString(const Pattern& pattern) {
  std::string out;
  for (const PatternToken& tok : pattern) {
    switch (tok.kind) {
      case PatternToken::Kind::kLiteral:
        out += tok.literal;
        break;
      case PatternToken::Kind::kDigits:
      case PatternToken::Kind::kLetters: {
        out += tok.kind == PatternToken::Kind::kDigits ? "<digit>" : "<letter>";
        if (tok.min_len == tok.max_len) {
          out += common::StrFormat("{%zu}", tok.min_len);
        } else {
          out += common::StrFormat("{%zu,%zu}", tok.min_len, tok.max_len);
        }
        break;
      }
    }
  }
  return out;
}

bool MatchesPattern(const Pattern& pattern, std::string_view value) {
  Pattern p = ValuePattern(value);
  if (p.size() != pattern.size()) return false;
  for (size_t i = 0; i < p.size(); ++i) {
    if (p[i].kind != pattern[i].kind) return false;
    if (pattern[i].kind == PatternToken::Kind::kLiteral) {
      if (p[i].literal != pattern[i].literal) return false;
    } else {
      if (p[i].min_len < pattern[i].min_len ||
          p[i].max_len > pattern[i].max_len)
        return false;
    }
  }
  return true;
}

// ---- transformation programs ---------------------------------------------------

common::Result<DateStyle> DetectDateStyle(std::string_view value) {
  for (DateStyle style : {DateStyle::kIso, DateStyle::kSlashMDY,
                          DateStyle::kMonthDY, DateStyle::kDMonthY}) {
    if (ParseDateAs(value, style).ok()) return style;
  }
  return common::Status::NotFound("not a recognized date format");
}

common::Result<std::string> ReformatDate(const std::string& value,
                                         DateStyle target) {
  LLMDM_ASSIGN_OR_RETURN(DateStyle source, DetectDateStyle(value));
  LLMDM_ASSIGN_OR_RETURN(CivilDate d, ParseDateAs(value, source));
  return FormatDateAs(d, target);
}

common::Result<ColumnTransform> ColumnTransform::Synthesize(
    const std::vector<std::pair<std::string, std::string>>& examples) {
  if (examples.empty()) {
    return common::Status::InvalidArgument("no examples");
  }
  // Family 1: date reformatting.
  auto from_style = DetectDateStyle(examples[0].first);
  auto to_style = DetectDateStyle(examples[0].second);
  if (from_style.ok() && to_style.ok()) {
    bool all_fit = true;
    for (const auto& [src, dst] : examples) {
      auto parsed = ParseDateAs(src, *from_style);
      all_fit = all_fit && parsed.ok() &&
                FormatDateAs(*parsed, *to_style) == dst;
    }
    if (all_fit) {
      ColumnTransform t;
      t.family_ = Family::kDate;
      t.from_style_ = *from_style;
      t.to_style_ = *to_style;
      return t;
    }
  }
  // Family 2: token rearrangement. Split source and target into alnum
  // tokens; find the permutation mapping and the output separator.
  auto tokenize = [](const std::string& s) {
    std::vector<std::string> toks;
    std::string cur;
    for (char c : s) {
      if (std::isalnum(static_cast<unsigned char>(c))) {
        cur.push_back(c);
      } else if (!cur.empty()) {
        toks.push_back(cur);
        cur.clear();
      }
    }
    if (!cur.empty()) toks.push_back(cur);
    return toks;
  };
  auto src0 = tokenize(examples[0].first);
  auto dst0 = tokenize(examples[0].second);
  if (src0.empty() || dst0.size() > src0.size()) {
    return common::Status::InvalidArgument(
        "examples fit neither transformation family");
  }
  std::vector<size_t> perm;
  for (const std::string& d : dst0) {
    auto it = std::find(src0.begin(), src0.end(), d);
    if (it == src0.end()) {
      return common::Status::InvalidArgument(
          "examples fit neither transformation family");
    }
    perm.push_back(static_cast<size_t>(it - src0.begin()));
  }
  // Output separator: first non-alnum run of the target (default space).
  std::string sep = " ";
  for (size_t i = 0; i < examples[0].second.size(); ++i) {
    if (!std::isalnum(static_cast<unsigned char>(examples[0].second[i]))) {
      size_t start = i;
      while (i < examples[0].second.size() &&
             !std::isalnum(static_cast<unsigned char>(examples[0].second[i])))
        ++i;
      sep = examples[0].second.substr(start, i - start);
      break;
    }
  }
  ColumnTransform t;
  t.family_ = Family::kTokenRearrange;
  t.permutation_ = perm;
  t.separator_ = sep;
  // Verify on all examples.
  for (const auto& [src, dst] : examples) {
    auto applied = t.Apply(src);
    if (!applied.ok() || *applied != dst) {
      return common::Status::InvalidArgument(
          "examples fit neither transformation family");
    }
  }
  return t;
}

common::Result<std::string> ColumnTransform::Apply(
    const std::string& value) const {
  if (family_ == Family::kDate) {
    LLMDM_ASSIGN_OR_RETURN(CivilDate d, ParseDateAs(value, from_style_));
    return FormatDateAs(d, to_style_);
  }
  std::vector<std::string> toks;
  std::string cur;
  for (char c : value) {
    if (std::isalnum(static_cast<unsigned char>(c))) {
      cur.push_back(c);
    } else if (!cur.empty()) {
      toks.push_back(cur);
      cur.clear();
    }
  }
  if (!cur.empty()) toks.push_back(cur);
  std::string out;
  for (size_t i = 0; i < permutation_.size(); ++i) {
    if (permutation_[i] >= toks.size()) {
      return common::Status::InvalidArgument(
          "value has fewer tokens than the learned program expects");
    }
    if (i > 0) out += separator_;
    out += toks[permutation_[i]];
  }
  return out;
}

std::string ColumnTransform::Describe() const {
  if (family_ == Family::kDate) {
    return common::StrFormat("date: %s -> %s", DateStyleName(from_style_),
                             DateStyleName(to_style_));
  }
  std::string out = "tokens: [";
  for (size_t i = 0; i < permutation_.size(); ++i) {
    if (i > 0) out += ",";
    out += std::to_string(permutation_[i]);
  }
  return out + "] sep='" + separator_ + "'";
}

// ---- pattern validator -----------------------------------------------------------

common::Result<PatternValidator> PatternValidator::FromReference(
    const std::vector<std::string>& reference) {
  LLMDM_ASSIGN_OR_RETURN(Pattern p, MineColumnPattern(reference));
  return PatternValidator(std::move(p));
}

PatternValidator::Report PatternValidator::Validate(
    const std::vector<std::string>& batch, double drift_threshold) const {
  Report report;
  report.checked = batch.size();
  for (const std::string& value : batch) {
    if (!MatchesPattern(pattern_, value)) {
      ++report.mismatched;
      if (report.examples_of_mismatch.size() < 5) {
        report.examples_of_mismatch.push_back(value);
      }
    }
  }
  report.match_rate =
      batch.empty() ? 1.0
                    : 1.0 - static_cast<double>(report.mismatched) /
                                static_cast<double>(batch.size());
  report.drifted = report.match_rate < drift_threshold;
  return report;
}

}  // namespace llmdm::transform
