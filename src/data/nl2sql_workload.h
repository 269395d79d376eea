#ifndef LLMDM_DATA_NL2SQL_WORKLOAD_H_
#define LLMDM_DATA_NL2SQL_WORKLOAD_H_

#include <optional>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/rng.h"

namespace llmdm::data {

/// The Spider-inspired stadium/concert/sports_meeting domain used by the
/// paper's Q1–Q5 running example (Sec. III-B.1, Fig. 7). The workload is a
/// family of natural-language questions with known semantics; grading is by
/// executing gold and predicted SQL on the same database.
///
/// Query shape:
///   "names of stadiums that had <event> in <year>
///    [or/and/but-did-not-have <event> in <year>]"
/// plus superlative variants ("the most number of <event> in <year>").

enum class EventKind { kConcert, kSportsMeeting };

std::string_view EventTable(EventKind kind);    // "concert" etc.
std::string_view EventPhrase(EventKind kind);   // "concerts" etc.

/// One event condition: which event table, which year.
struct EventCondition {
  EventKind event = EventKind::kConcert;
  int year = 2014;
  bool superlative = false;  // "the most number of ..."

  bool operator==(const EventCondition&) const = default;

  /// Canonical sub-question text, e.g.
  /// "stadiums that had concerts in 2014" — the decomposition unit of Fig 7.
  std::string ToSubQuestion() const;

  /// SQL returning matching stadium ids (a sub-query body).
  std::string ToIdSubquery() const;
};

/// How two conditions combine in a compound question.
enum class Combiner { kNone, kOr, kAnd, kAndNot };

/// A fully-specified NL2SQL task instance.
struct Nl2SqlQuery {
  EventCondition first;
  Combiner combiner = Combiner::kNone;
  std::optional<EventCondition> second;

  /// Natural-language rendering (the paper's phrasing).
  std::string ToNaturalLanguage() const;

  /// Gold SQL over the stadium schema.
  std::string ToGoldSql() const;

  /// Number of atomic conditions (difficulty proxy: 1 or 2, +1 if any
  /// superlative).
  int Complexity() const;

  bool operator==(const Nl2SqlQuery&) const = default;
};

/// Parses the canonical NL phrasing back into a structured query. This is
/// the "understanding" half of the simulated NL2SQL model; returns an error
/// for text outside the family (the model then reports it cannot translate).
common::Result<Nl2SqlQuery> ParseNl2SqlQuestion(const std::string& question);

/// SQL DDL + INSERTs creating a populated stadium database. `num_stadiums`
/// stadiums, events drawn across `years`.
std::string BuildStadiumDatabaseScript(size_t num_stadiums,
                                       const std::vector<int>& years,
                                       common::Rng& rng);

struct Nl2SqlWorkloadOptions {
  size_t num_queries = 20;
  /// Probability that a query is compound (two conditions).
  double compound_rate = 0.6;
  /// Controls sub-query sharing across the workload: conditions are drawn
  /// from a pool of `condition_pool` distinct (event, year) pairs; smaller
  /// pool = more shared sub-queries (the lever behind Table II / Fig 7).
  size_t condition_pool = 4;
  std::vector<int> years = {2014, 2015};
};

/// Generates a workload with controllable sub-query sharing.
std::vector<Nl2SqlQuery> GenerateNl2SqlWorkload(
    const Nl2SqlWorkloadOptions& options, common::Rng& rng);

/// The paper's exact Q1–Q5 (Sec. III-B.1).
std::vector<Nl2SqlQuery> PaperQ1ToQ5();

}  // namespace llmdm::data

#endif  // LLMDM_DATA_NL2SQL_WORKLOAD_H_
