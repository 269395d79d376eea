#include "data/nl2sql_workload.h"

#include <algorithm>

#include "common/string_util.h"

namespace llmdm::data {
namespace {

// Probability that a pool condition is superlative.
constexpr double kSuperlativeRate = 0.2;

const char* const kStadiumNames[] = {
    "Olympic",     "National",   "City Arena",  "River Park", "Sun Dome",
    "North Field", "Lake Court", "Grand Oval",  "West End",   "Harbor Bowl",
    "Summit Hall", "Valley Gym", "Metro Plaza", "Coast Ring", "Union Ground",
};
const char* const kCities[] = {
    "Beijing",  "Singapore", "Boston", "London", "Tokyo",
    "Berlin",   "Madrid",    "Sydney", "Toronto", "Mumbai",
};

}  // namespace

std::string_view EventTable(EventKind kind) {
  return kind == EventKind::kConcert ? "concert" : "sports_meeting";
}

std::string_view EventPhrase(EventKind kind) {
  return kind == EventKind::kConcert ? "concerts" : "sports meetings";
}

std::string EventCondition::ToSubQuestion() const {
  std::string out = "stadiums that had ";
  if (superlative) out += "the most number of ";
  out += EventPhrase(event);
  out += common::StrFormat(" in %d", year);
  return out;
}

std::string EventCondition::ToIdSubquery() const {
  std::string table(EventTable(event));
  if (superlative) {
    return common::StrFormat(
        "SELECT stadium_id FROM %s WHERE year = %d GROUP BY stadium_id "
        "ORDER BY COUNT(*) DESC LIMIT 1",
        table.c_str(), year);
  }
  return common::StrFormat("SELECT stadium_id FROM %s WHERE year = %d",
                           table.c_str(), year);
}

std::string Nl2SqlQuery::ToNaturalLanguage() const {
  std::string out = "What are the names of ";
  out += first.ToSubQuestion();
  if (second.has_value()) {
    switch (combiner) {
      case Combiner::kOr:
        out += " or had ";
        break;
      case Combiner::kAnd:
        out += " and had ";
        break;
      case Combiner::kAndNot:
        out += " but did not have ";
        break;
      case Combiner::kNone:
        break;
    }
    // Reuse the sub-question phrasing minus its leading "stadiums that had ".
    std::string second_text = second->ToSubQuestion();
    constexpr std::string_view kPrefix = "stadiums that had ";
    out += second_text.substr(kPrefix.size());
  }
  out += "?";
  return out;
}

std::string Nl2SqlQuery::ToGoldSql() const {
  std::string sql = "SELECT name FROM stadium WHERE id IN (" +
                    first.ToIdSubquery() + ")";
  if (second.has_value()) {
    switch (combiner) {
      case Combiner::kOr:
        sql += " OR id IN (" + second->ToIdSubquery() + ")";
        break;
      case Combiner::kAnd:
        sql += " AND id IN (" + second->ToIdSubquery() + ")";
        break;
      case Combiner::kAndNot:
        sql += " AND id NOT IN (" + second->ToIdSubquery() + ")";
        break;
      case Combiner::kNone:
        break;
    }
  }
  return sql;
}

int Nl2SqlQuery::Complexity() const {
  int c = 1;
  if (second.has_value()) ++c;
  if (first.superlative || (second.has_value() && second->superlative)) ++c;
  return c;
}

namespace {

// Parses "the most number of concerts in 2014"-style condition text.
common::Result<EventCondition> ParseCondition(std::string_view text) {
  EventCondition cond;
  constexpr std::string_view kSuperlative = "the most number of ";
  if (common::StartsWith(text, kSuperlative)) {
    cond.superlative = true;
    text.remove_prefix(kSuperlative.size());
  }
  if (common::StartsWith(text, "concerts in ")) {
    cond.event = EventKind::kConcert;
    text.remove_prefix(std::string_view("concerts in ").size());
  } else if (common::StartsWith(text, "sports meetings in ")) {
    cond.event = EventKind::kSportsMeeting;
    text.remove_prefix(std::string_view("sports meetings in ").size());
  } else {
    return common::Status::InvalidArgument("unknown event phrase: " +
                                           std::string(text));
  }
  int64_t year = 0;
  if (!common::ParseInt64(text, &year)) {
    return common::Status::InvalidArgument("bad year in condition: " +
                                           std::string(text));
  }
  cond.year = static_cast<int>(year);
  return cond;
}

}  // namespace

common::Result<Nl2SqlQuery> ParseNl2SqlQuestion(const std::string& question) {
  std::string_view rest = question;
  // Accept both "What are the names of ..." and "Show the names of ..."
  for (std::string_view prefix :
       {std::string_view("What are the names of stadiums that had "),
        std::string_view("Show the names of stadiums that had "),
        std::string_view("names of stadiums that had "),
        std::string_view("stadiums that had ")}) {
    if (common::StartsWith(rest, prefix)) {
      rest.remove_prefix(prefix.size());
      break;
    }
  }
  if (rest == question) {
    return common::Status::InvalidArgument("not a stadium question: " +
                                           question);
  }
  if (!rest.empty() && rest.back() == '?') rest.remove_suffix(1);
  rest = common::Trim(rest);

  Nl2SqlQuery query;
  // Find a combiner.
  struct Splitter {
    std::string_view text;
    Combiner combiner;
  };
  constexpr Splitter kSplitters[] = {
      {" or had ", Combiner::kOr},
      {" and had ", Combiner::kAnd},
      {" but did not have ", Combiner::kAndNot},
  };
  for (const Splitter& s : kSplitters) {
    size_t pos = rest.find(s.text);
    if (pos != std::string_view::npos) {
      LLMDM_ASSIGN_OR_RETURN(query.first, ParseCondition(rest.substr(0, pos)));
      LLMDM_ASSIGN_OR_RETURN(
          EventCondition second,
          ParseCondition(rest.substr(pos + s.text.size())));
      query.second = second;
      query.combiner = s.combiner;
      return query;
    }
  }
  LLMDM_ASSIGN_OR_RETURN(query.first, ParseCondition(rest));
  return query;
}

std::string BuildStadiumDatabaseScript(size_t num_stadiums,
                                       const std::vector<int>& years,
                                       common::Rng& rng) {
  std::string sql;
  sql +=
      "CREATE TABLE stadium (id INT PRIMARY KEY, name TEXT, capacity INT, "
      "city TEXT);\n";
  sql += "CREATE TABLE concert (id INT, stadium_id INT, year INT, "
         "attendance INT);\n";
  sql += "CREATE TABLE sports_meeting (id INT, stadium_id INT, year INT);\n";
  num_stadiums = std::min(num_stadiums, std::size(kStadiumNames));
  for (size_t i = 0; i < num_stadiums; ++i) {
    sql += common::StrFormat(
        "INSERT INTO stadium VALUES (%zu, '%s', %lld, '%s');\n", i + 1,
        kStadiumNames[i], (long long)rng.UniformInt(10, 90) * 1000,
        kCities[i % std::size(kCities)]);
  }
  int concert_id = 1, meeting_id = 1;
  for (size_t i = 0; i < num_stadiums; ++i) {
    for (int year : years) {
      // Sparse events (most stadium-years have none): conditional sets stay
      // distinctive, so a wrong year/table/combiner usually changes the
      // answer — grading by execution match then has teeth.
      int64_t concerts = std::max<int64_t>(0, rng.UniformInt(-2, 2));
      for (int64_t c = 0; c < concerts; ++c) {
        sql += common::StrFormat(
            "INSERT INTO concert VALUES (%d, %zu, %d, %lld);\n", concert_id++,
            i + 1, year, (long long)rng.UniformInt(5, 70) * 1000);
      }
      int64_t meetings = std::max<int64_t>(0, rng.UniformInt(-2, 1));
      for (int64_t m = 0; m < meetings; ++m) {
        sql += common::StrFormat(
            "INSERT INTO sports_meeting VALUES (%d, %zu, %d);\n", meeting_id++,
            i + 1, year);
      }
    }
  }
  return sql;
}

std::vector<Nl2SqlQuery> GenerateNl2SqlWorkload(
    const Nl2SqlWorkloadOptions& options, common::Rng& rng) {
  // Build the condition pool first; queries draw conditions from it, which
  // is what makes sub-queries repeat across the workload.
  std::vector<EventCondition> pool;
  for (size_t i = 0; i < options.condition_pool; ++i) {
    EventCondition cond;
    cond.event = rng.Bernoulli(0.5) ? EventKind::kConcert
                                    : EventKind::kSportsMeeting;
    cond.year = options.years[rng.NextBelow(options.years.size())];
    cond.superlative = rng.Bernoulli(kSuperlativeRate);
    // Avoid exact duplicates in the pool so the sharing ratio is controlled
    // by the pool size alone.
    bool dup = false;
    for (const auto& existing : pool) dup = dup || existing == cond;
    if (dup) {
      cond.superlative = !cond.superlative;
    }
    pool.push_back(cond);
  }
  std::vector<Nl2SqlQuery> out;
  for (size_t i = 0; i < options.num_queries; ++i) {
    Nl2SqlQuery q;
    q.first = pool[rng.NextBelow(pool.size())];
    if (rng.Bernoulli(options.compound_rate)) {
      EventCondition second = pool[rng.NextBelow(pool.size())];
      // A compound query with two identical conditions is degenerate.
      for (int attempt = 0; attempt < 4 && second == q.first; ++attempt) {
        second = pool[rng.NextBelow(pool.size())];
      }
      if (!(second == q.first)) {
        q.second = second;
        double u = rng.UniformDouble();
        q.combiner = u < 0.4 ? Combiner::kOr
                             : (u < 0.7 ? Combiner::kAnd : Combiner::kAndNot);
      }
    }
    out.push_back(std::move(q));
  }
  return out;
}

std::vector<Nl2SqlQuery> PaperQ1ToQ5() {
  EventCondition c2014{EventKind::kConcert, 2014, false};
  EventCondition m2015{EventKind::kSportsMeeting, 2015, false};
  EventCondition c2014_top{EventKind::kConcert, 2014, true};
  EventCondition m2015_top{EventKind::kSportsMeeting, 2015, true};
  std::vector<Nl2SqlQuery> out;
  // Q1: concerts 2014 OR sports meetings 2015.
  out.push_back(Nl2SqlQuery{c2014, Combiner::kOr, m2015});
  // Q2: most number of concerts in 2014.
  out.push_back(Nl2SqlQuery{c2014_top, Combiner::kNone, std::nullopt});
  // Q3: most number of sports meetings in 2015.
  out.push_back(Nl2SqlQuery{m2015_top, Combiner::kNone, std::nullopt});
  // Q4: concerts 2014 AND sports meetings 2015.
  out.push_back(Nl2SqlQuery{c2014, Combiner::kAnd, m2015});
  // Q5: concerts 2014 but NOT sports meetings 2015.
  out.push_back(Nl2SqlQuery{c2014, Combiner::kAndNot, m2015});
  return out;
}

}  // namespace llmdm::data
