#include "core/generation/sql_generator.h"

#include <algorithm>
#include <set>

#include "common/string_util.h"

namespace llmdm::generation {
namespace {

std::string QuoteText(const std::string& s) {
  std::string out = "'";
  for (char c : s) {
    if (c == '\'') out += "''";
    else out.push_back(c);
  }
  return out + "'";
}

}  // namespace

common::Result<std::vector<SqlGenerator::TableProfile>>
SqlGenerator::ProfileCatalog(sql::Database& db) {
  std::vector<TableProfile> out;
  for (const std::string& name : db.catalog().TableNames()) {
    LLMDM_ASSIGN_OR_RETURN(const data::Table* table,
                           db.catalog().GetTable(name));
    TableProfile profile;
    profile.name = table->name();
    for (const auto& col : table->schema().columns()) {
      if (col.type == data::ColumnType::kInt64) {
        profile.int_columns.push_back(col.name);
      } else if (col.type == data::ColumnType::kText) {
        profile.text_columns.push_back(col.name);
      }
    }
    // Sample literal values so predicates are selective but satisfiable.
    for (size_t r = 0; r < table->NumRows(); r += std::max<size_t>(1, table->NumRows() / 8)) {
      for (const auto& col : table->schema().columns()) {
        size_t c = *table->schema().Find(col.name);
        const data::Value& v = table->at(r, c);
        if (v.is_null()) continue;
        if (col.type == data::ColumnType::kInt64 &&
            profile.sample_ints.size() < 16) {
          profile.sample_ints.push_back(v.AsInt());
        } else if (col.type == data::ColumnType::kText &&
                   profile.sample_texts.size() < 16) {
          profile.sample_texts.push_back(v.AsText());
        }
      }
    }
    if (!profile.int_columns.empty() || !profile.text_columns.empty()) {
      out.push_back(std::move(profile));
    }
  }
  if (out.empty()) {
    return common::Status::FailedPrecondition(
        "catalog has no profileable tables");
  }
  return out;
}

std::string SqlGenerator::MakePredicate(const TableProfile& t,
                                        const std::string& alias) {
  std::string prefix = alias.empty() ? "" : alias + ".";
  if (!t.int_columns.empty() &&
      (t.text_columns.empty() || rng_.Bernoulli(0.6))) {
    const std::string& col = rng_.Choice(t.int_columns);
    int64_t value = t.sample_ints.empty()
                        ? rng_.UniformInt(0, 100)
                        : rng_.Choice(t.sample_ints);
    const char* ops[] = {">", "<", ">=", "<=", "=", "<>"};
    return common::StrFormat("%s%s %s %lld", prefix.c_str(), col.c_str(),
                             ops[rng_.NextBelow(6)], (long long)value);
  }
  if (!t.text_columns.empty() && !t.sample_texts.empty()) {
    const std::string& col = rng_.Choice(t.text_columns);
    const std::string& value = rng_.Choice(t.sample_texts);
    if (rng_.Bernoulli(0.3) && value.size() > 2) {
      return prefix + col + " LIKE " + QuoteText("%" + value.substr(1, 2) + "%");
    }
    return prefix + col + " = " + QuoteText(value);
  }
  return "1 = 1";
}

std::string SqlGenerator::MakeSimple(const TableProfile& t) {
  std::string projection = "*";
  if (!t.text_columns.empty() && rng_.Bernoulli(0.5)) {
    projection = rng_.Choice(t.text_columns);
  } else if (!t.int_columns.empty()) {
    projection = rng_.Choice(t.int_columns);
  }
  std::string sql = "SELECT " + projection + " FROM " + t.name + " WHERE " +
                    MakePredicate(t, "");
  if (rng_.Bernoulli(0.3) && projection != "*") {
    sql += " ORDER BY " + projection;
    if (rng_.Bernoulli(0.5)) sql += " DESC";
  }
  if (rng_.Bernoulli(0.3)) {
    sql += common::StrFormat(" LIMIT %lld", (long long)rng_.UniformInt(1, 20));
  }
  return sql;
}

std::string SqlGenerator::MakeAggregate(const TableProfile& t) {
  const char* aggs[] = {"COUNT(*)", "MIN", "MAX", "SUM", "AVG"};
  size_t pick = rng_.NextBelow(5);
  std::string agg;
  if (pick == 0 || t.int_columns.empty()) {
    agg = "COUNT(*)";
  } else {
    agg = std::string(aggs[pick]) + "(" + rng_.Choice(t.int_columns) + ")";
  }
  if (!t.text_columns.empty() && rng_.Bernoulli(0.5)) {
    const std::string& group_col = rng_.Choice(t.text_columns);
    std::string sql = "SELECT " + group_col + ", " + agg + " FROM " + t.name +
                      " GROUP BY " + group_col;
    if (rng_.Bernoulli(0.4)) sql += " HAVING COUNT(*) >= 1";
    return sql;
  }
  return "SELECT " + agg + " FROM " + t.name + " WHERE " + MakePredicate(t, "");
}

common::Result<std::string> SqlGenerator::MakeMultiJoin(
    const std::vector<TableProfile>& tables) {
  // Joinable pair: a table with a "<x>_id" column and a table <x> with "id"
  // (the foreign-key naming convention of the generated schemas), or any two
  // tables sharing an int column name.
  for (int attempt = 0; attempt < 30; ++attempt) {
    const TableProfile& left = tables[rng_.NextBelow(tables.size())];
    for (const std::string& col : left.int_columns) {
      if (!common::EndsWith(col, "_id")) continue;
      std::string target = col.substr(0, col.size() - 3);
      for (const TableProfile& right : tables) {
        if (common::ToLower(right.name) != common::ToLower(target)) continue;
        if (std::find(right.int_columns.begin(), right.int_columns.end(),
                      "id") == right.int_columns.end())
          continue;
        std::string projection =
            right.text_columns.empty() ? "r.id" : "r." + right.text_columns[0];
        return "SELECT " + projection + " FROM " + left.name + " l JOIN " +
               right.name + " r ON l." + col + " = r.id WHERE " +
               MakePredicate(left, "l");
      }
    }
  }
  return common::Status::NotFound("no joinable table pair in catalog");
}

common::Result<std::string> SqlGenerator::MakeSubquery(
    const std::vector<TableProfile>& tables) {
  for (int attempt = 0; attempt < 30; ++attempt) {
    const TableProfile& inner = tables[rng_.NextBelow(tables.size())];
    for (const std::string& col : inner.int_columns) {
      if (!common::EndsWith(col, "_id")) continue;
      std::string target = col.substr(0, col.size() - 3);
      for (const TableProfile& outer : tables) {
        if (common::ToLower(outer.name) != common::ToLower(target)) continue;
        std::string projection =
            outer.text_columns.empty() ? "id" : outer.text_columns[0];
        std::string negation = rng_.Bernoulli(0.3) ? " NOT" : "";
        return "SELECT " + projection + " FROM " + outer.name + " WHERE id" +
               negation + " IN (SELECT " + col + " FROM " + inner.name +
               " WHERE " + MakePredicate(inner, "") + ")";
      }
    }
  }
  return common::Status::NotFound("no subquery-compatible tables in catalog");
}

common::Result<std::vector<GeneratedSql>> SqlGenerator::Generate(
    sql::Database& db, const SqlGenConstraints& constraints,
    llm::UsageMeter* meter) {
  LLMDM_ASSIGN_OR_RETURN(std::vector<TableProfile> tables, ProfileCatalog(db));

  if (advisor_ != nullptr) {
    llm::Prompt p;
    p.task_tag = "freeform";
    p.instructions =
        "Generate diverse SQL queries satisfying the constraints.";
    p.input = db.catalog().DescribeForPrompt() +
              common::StrFormat("constraints: count=%zu multi_join=%.2f "
                                "subquery=%.2f aggregate=%.2f executable=%d",
                                constraints.count,
                                constraints.multi_join_fraction,
                                constraints.subquery_fraction,
                                constraints.aggregate_fraction,
                                constraints.require_executable ? 1 : 0);
    auto advice = advisor_->CompleteMetered(p, meter);
    if (!advice.ok()) return advice.status();
  }

  // Shape schedule honoring the requested mix.
  std::vector<GeneratedSql::Kind> schedule;
  auto add_kind = [&](GeneratedSql::Kind kind, double fraction) {
    size_t n = static_cast<size_t>(fraction * double(constraints.count) + 0.5);
    for (size_t i = 0; i < n && schedule.size() < constraints.count; ++i) {
      schedule.push_back(kind);
    }
  };
  add_kind(GeneratedSql::Kind::kMultiJoin, constraints.multi_join_fraction);
  add_kind(GeneratedSql::Kind::kSubquery, constraints.subquery_fraction);
  add_kind(GeneratedSql::Kind::kAggregate, constraints.aggregate_fraction);
  while (schedule.size() < constraints.count) {
    schedule.push_back(GeneratedSql::Kind::kSimple);
  }
  rng_.Shuffle(schedule);

  std::vector<GeneratedSql> out;
  std::set<std::string> emitted;  // diversity: no duplicates
  for (GeneratedSql::Kind kind : schedule) {
    bool done = false;
    for (size_t attempt = 0;
         attempt < constraints.max_attempts_per_query && !done; ++attempt) {
      common::Result<std::string> sql = common::Status::NotFound("");
      switch (kind) {
        case GeneratedSql::Kind::kSimple:
          sql = MakeSimple(tables[rng_.NextBelow(tables.size())]);
          break;
        case GeneratedSql::Kind::kAggregate:
          sql = MakeAggregate(tables[rng_.NextBelow(tables.size())]);
          break;
        case GeneratedSql::Kind::kMultiJoin:
          sql = MakeMultiJoin(tables);
          break;
        case GeneratedSql::Kind::kSubquery:
          sql = MakeSubquery(tables);
          break;
      }
      if (!sql.ok()) break;  // catalog cannot produce this shape
      if (emitted.count(*sql)) continue;
      GeneratedSql gen;
      gen.sql = *sql;
      gen.kind = kind;
      auto executed = db.Query(gen.sql);
      gen.executable = executed.ok();
      if (gen.executable) gen.result_rows = executed->NumRows();
      if (constraints.require_executable && !gen.executable) continue;
      emitted.insert(gen.sql);
      out.push_back(std::move(gen));
      done = true;
    }
  }
  return out;
}

common::Result<std::vector<std::pair<std::string, std::string>>>
SqlGenerator::GenerateEquivalentPairs(sql::Database& db, size_t count,
                                      llm::UsageMeter* meter) {
  LLMDM_ASSIGN_OR_RETURN(std::vector<TableProfile> tables, ProfileCatalog(db));
  (void)meter;
  std::vector<std::pair<std::string, std::string>> out;
  size_t guard = 0;
  while (out.size() < count && guard++ < count * 50) {
    const TableProfile& t = tables[rng_.NextBelow(tables.size())];
    if (t.int_columns.empty()) continue;
    const std::string& col = rng_.Choice(t.int_columns);
    std::string projection = "*";
    switch (rng_.NextBelow(3)) {
      case 0: {
        // BETWEEN <-> conjunction of range predicates.
        int64_t lo = t.sample_ints.empty() ? 0 : rng_.Choice(t.sample_ints);
        int64_t hi = lo + rng_.UniformInt(1, 100);
        std::string a = common::StrFormat(
            "SELECT %s FROM %s WHERE %s BETWEEN %lld AND %lld",
            projection.c_str(), t.name.c_str(), col.c_str(), (long long)lo,
            (long long)hi);
        std::string b = common::StrFormat(
            "SELECT %s FROM %s WHERE %s >= %lld AND %s <= %lld",
            projection.c_str(), t.name.c_str(), col.c_str(), (long long)lo,
            col.c_str(), (long long)hi);
        out.emplace_back(a, b);
        break;
      }
      case 1: {
        // IN-list <-> OR chain.
        int64_t v1 = t.sample_ints.empty() ? 1 : rng_.Choice(t.sample_ints);
        int64_t v2 = v1 + rng_.UniformInt(1, 10);
        std::string a = common::StrFormat(
            "SELECT %s FROM %s WHERE %s IN (%lld, %lld)", projection.c_str(),
            t.name.c_str(), col.c_str(), (long long)v1, (long long)v2);
        std::string b = common::StrFormat(
            "SELECT %s FROM %s WHERE %s = %lld OR %s = %lld",
            projection.c_str(), t.name.c_str(), col.c_str(), (long long)v1,
            col.c_str(), (long long)v2);
        out.emplace_back(a, b);
        break;
      }
      default: {
        // Commuted conjuncts.
        std::string p1 = MakePredicate(t, "");
        std::string p2 = MakePredicate(t, "");
        std::string a = "SELECT " + projection + " FROM " + t.name +
                        " WHERE " + p1 + " AND " + p2;
        std::string b = "SELECT " + projection + " FROM " + t.name +
                        " WHERE " + p2 + " AND " + p1;
        out.emplace_back(a, b);
        break;
      }
    }
    // Equivalence is a hard contract: verify by execution and drop pairs
    // that fail to run (e.g. vacuous predicates on empty tables still run,
    // so drops are rare).
    auto ra = db.Query(out.back().first);
    auto rb = db.Query(out.back().second);
    if (!ra.ok() || !rb.ok() || !ra->BagEquals(*rb)) {
      out.pop_back();
    }
  }
  return out;
}

}  // namespace llmdm::generation
