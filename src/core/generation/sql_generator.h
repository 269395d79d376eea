#ifndef LLMDM_CORE_GENERATION_SQL_GENERATOR_H_
#define LLMDM_CORE_GENERATION_SQL_GENERATOR_H_

#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/rng.h"
#include "llm/model.h"
#include "sql/database.h"

namespace llmdm::generation {

/// Constraints on a generation batch (Fig. 2's "SQL constraints" input).
struct SqlGenConstraints {
  size_t count = 10;
  /// Every emitted query must execute without error on the target database.
  bool require_executable = true;
  /// Target mix of query shapes (fractions of `count`, best effort).
  double multi_join_fraction = 0.3;
  double subquery_fraction = 0.2;
  double aggregate_fraction = 0.3;
  /// Generation attempts per emitted query before giving up.
  size_t max_attempts_per_query = 20;
};

/// One generated query with its classification.
struct GeneratedSql {
  std::string sql;
  enum class Kind { kSimple, kMultiJoin, kSubquery, kAggregate } kind;
  bool executable = false;
  size_t result_rows = 0;
};

/// Schema-grounded SQL generator (Sec. II-A.1, Fig. 2): reads the catalog,
/// emits diverse queries of the requested shapes, validates executability by
/// running them, and can emit semantically-equivalent query pairs for logic
/// bug detection (pivoted-query-synthesis style [20]).
///
/// The (optional) LLM is consulted once per batch with the schema + the
/// constraints — its metered cost models the Fig. 2 interaction; the
/// schema-grounded enumeration and the executability/equivalence checking
/// are exact local algorithms (they are the verification loop the paper says
/// users run around the LLM).
class SqlGenerator {
 public:
  SqlGenerator(std::shared_ptr<llm::LlmModel> advisor, uint64_t seed)
      : advisor_(std::move(advisor)), rng_(seed) {}

  /// Generates queries meeting `constraints` against `db`.
  common::Result<std::vector<GeneratedSql>> Generate(
      sql::Database& db, const SqlGenConstraints& constraints,
      llm::UsageMeter* meter = nullptr);

  /// Generates pairs of queries that must produce identical results
  /// (rewrites: IN-list <-> OR chain, BETWEEN <-> range conjunction,
  /// commuted conjuncts). Each pair is verified by execution; a mismatch
  /// would indicate a logic bug in the engine under test.
  common::Result<std::vector<std::pair<std::string, std::string>>>
  GenerateEquivalentPairs(sql::Database& db, size_t count,
                          llm::UsageMeter* meter = nullptr);

 private:
  struct TableProfile {
    std::string name;
    std::vector<std::string> int_columns;
    std::vector<std::string> text_columns;
    std::vector<int64_t> sample_ints;
    std::vector<std::string> sample_texts;
  };

  common::Result<std::vector<TableProfile>> ProfileCatalog(sql::Database& db);
  std::string MakeSimple(const TableProfile& t);
  std::string MakeAggregate(const TableProfile& t);
  common::Result<std::string> MakeMultiJoin(
      const std::vector<TableProfile>& tables);
  common::Result<std::string> MakeSubquery(
      const std::vector<TableProfile>& tables);
  std::string MakePredicate(const TableProfile& t, const std::string& alias);

  std::shared_ptr<llm::LlmModel> advisor_;
  common::Rng rng_;
};

}  // namespace llmdm::generation

#endif  // LLMDM_CORE_GENERATION_SQL_GENERATOR_H_
