#include "llm/skills.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <set>

#include "data/tabular_gen.h"
#include "text/tokenizer.h"

#include "common/string_util.h"
#include "sql/parser.h"

namespace llmdm::llm {
namespace {

// Confidence = truth probability plus self-assessment noise. Models know
// roughly, not exactly, how likely they are to be right.
double NoisyConfidence(double p_correct, common::Rng* rng) {
  double conf = p_correct + rng->Normal(0.0, 0.07);
  return std::clamp(conf, 0.02, 0.99);
}

// Parses "key is value; key is value; ..." into ordered (key, value) pairs.
std::vector<std::pair<std::string, std::string>> ParseSerializedRow(
    std::string_view text) {
  std::vector<std::pair<std::string, std::string>> out;
  for (const std::string& part : common::Split(std::string(text), ';')) {
    std::string_view trimmed = common::Trim(part);
    size_t pos = trimmed.find(" is ");
    if (pos == std::string_view::npos) continue;
    out.emplace_back(std::string(trimmed.substr(0, pos)),
                     std::string(common::Trim(trimmed.substr(pos + 4))));
  }
  return out;
}

}  // namespace

double CorrectnessProbability(double capability, double difficulty) {
  double p = 1.0 / (1.0 + std::exp(-6.0 * (capability - difficulty)));
  return std::clamp(p, 0.02, 0.995);
}

// ---- QaSkill -----------------------------------------------------------------

common::Result<SkillOutput> QaSkill::Run(const Prompt& prompt,
                                         SkillContext& ctx) {
  auto parsed = data::ParseChainQuestion(prompt.input);
  if (!parsed.ok()) {
    return SkillOutput{"I cannot answer that question.", 0.05};
  }
  const auto& [chain, subject] = *parsed;
  auto truth = kb_->AnswerChain(chain, subject);
  if (!truth.ok()) {
    return SkillOutput{"I cannot answer that question.", 0.05};
  }
  // 1 hop ~ easy, 3 hops ~ hard; a few relevant examples shave difficulty.
  double difficulty = 0.25 + 0.28 * (static_cast<double>(chain.size()) - 1.0);
  difficulty -=
      0.02 * static_cast<double>(std::min<size_t>(prompt.examples.size(), 3));
  double p = CorrectnessProbability(ctx.capability, difficulty);
  if (ctx.rng->Bernoulli(p)) {
    return SkillOutput{*truth, NoisyConfidence(p, ctx.rng)};
  }
  // Plausible wrong answer: some other entity in the same universe.
  const auto& entities = kb_->entities();
  std::string wrong = entities[ctx.rng->NextBelow(entities.size())];
  if (wrong == *truth && entities.size() > 1) {
    wrong = entities[(ctx.rng->NextBelow(entities.size() - 1) + 1) %
                     entities.size()];
  }
  return SkillOutput{wrong, NoisyConfidence(p, ctx.rng)};
}

// ---- Nl2SqlSkill --------------------------------------------------------------

common::Result<SkillOutput> Nl2SqlSkill::Run(const Prompt& prompt,
                                             SkillContext& ctx) {
  auto parsed = data::ParseNl2SqlQuestion(prompt.input);
  if (!parsed.ok()) {
    return SkillOutput{"-- cannot translate this question", 0.05};
  }
  data::Nl2SqlQuery query = *parsed;

  // Example quality matters both ways: a relevant example with well-formed
  // SQL output helps; an example demonstrating broken SQL actively misleads
  // (real LLMs imitate their demonstrations, junk included).
  int relevant = 0, misleading = 0;
  for (const FewShotExample& ex : prompt.examples) {
    if (!data::ParseNl2SqlQuestion(ex.input).ok()) continue;
    if (sql::ParseStatement(ex.output).ok()) {
      ++relevant;
    } else {
      ++misleading;
    }
  }
  // Each relevant (or misleading) example, up to 3, moves it by 0.05.
  double difficulty = 0.10 + 0.21 * static_cast<double>(query.Complexity());
  difficulty -= 0.05 * std::min(relevant, 3);
  difficulty += 0.05 * std::min(misleading, 3);
  double p = CorrectnessProbability(ctx.capability, difficulty);
  if (ctx.rng->Bernoulli(p)) {
    return SkillOutput{query.ToGoldSql(), NoisyConfidence(p, ctx.rng)};
  }

  // Corrupt the *semantics*, then re-render: the output is usually valid SQL
  // that returns the wrong rows (the realistic NL2SQL failure mode).
  double mode = ctx.rng->UniformDouble();
  if (mode < 0.35) {
    query.first.year += ctx.rng->Bernoulli(0.5) ? 1 : -1;
  } else if (mode < 0.60) {
    query.first.event = query.first.event == data::EventKind::kConcert
                            ? data::EventKind::kSportsMeeting
                            : data::EventKind::kConcert;
  } else if (mode < 0.80 && query.second.has_value()) {
    query.combiner = query.combiner == data::Combiner::kOr
                         ? data::Combiner::kAnd
                         : data::Combiner::kOr;
  } else if (mode < 0.90 && query.second.has_value()) {
    query.second.reset();
    query.combiner = data::Combiner::kNone;
  } else {
    // Outright syntax damage.
    std::string broken = query.ToGoldSql();
    broken = common::ReplaceAll(broken, "SELECT", "SELEC");
    return SkillOutput{broken, NoisyConfidence(p, ctx.rng)};
  }
  return SkillOutput{query.ToGoldSql(), NoisyConfidence(p, ctx.rng)};
}

// ---- Nl2TxnSkill ----------------------------------------------------------------

common::Result<SkillOutput> Nl2TxnSkill::Run(const Prompt& prompt,
                                             SkillContext& ctx) {
  auto parsed = data::ParseTxnRequest(prompt.input);
  if (!parsed.ok()) {
    return SkillOutput{"-- cannot translate this request", 0.05};
  }
  data::TxnRequest request = *parsed;
  double difficulty =
      0.15 + 0.15 * static_cast<double>(request.transfers.size());
  double p = CorrectnessProbability(ctx.capability, difficulty);
  bool correct = ctx.rng->Bernoulli(p);
  if (!correct) {
    double mode = ctx.rng->UniformDouble();
    size_t victim = ctx.rng->NextBelow(request.transfers.size());
    if (mode < 0.4) {
      request.transfers[victim].amount *= 10;  // fat-finger the amount
    } else if (mode < 0.7) {
      std::swap(request.transfers[victim].from,
                request.transfers[victim].to);  // reverse the direction
    } else if (request.transfers.size() > 1) {
      request.transfers.erase(request.transfers.begin() +
                              static_cast<long>(victim));  // forget a step
    } else {
      request.transfers[victim].amount += 1;
    }
  }
  std::vector<std::string> statements = data::TxnToSql(request);
  return SkillOutput{common::Join(statements, ";\n"),
                     NoisyConfidence(p, ctx.rng)};
}

// ---- TabularPredictSkill -------------------------------------------------------

common::Result<SkillOutput> TabularPredictSkill::Run(const Prompt& prompt,
                                                     SkillContext& ctx) {
  if (prompt.examples.empty()) {
    return SkillOutput{"unknown", 0.05};
  }
  auto target = ParseSerializedRow(prompt.input);
  if (target.empty()) {
    return SkillOutput{"unknown", 0.05};
  }

  // Per-key scale for numeric distance normalization.
  std::map<std::string, std::pair<double, double>> min_max;
  struct ParsedExample {
    std::vector<std::pair<std::string, std::string>> row;
    std::string output;
  };
  std::vector<ParsedExample> parsed;
  for (const FewShotExample& ex : prompt.examples) {
    parsed.push_back({ParseSerializedRow(ex.input), ex.output});
    for (const auto& [k, v] : parsed.back().row) {
      double num;
      if (common::ParseDouble(v, &num)) {
        auto it = min_max.find(k);
        if (it == min_max.end()) {
          min_max[k] = {num, num};
        } else {
          it->second.first = std::min(it->second.first, num);
          it->second.second = std::max(it->second.second, num);
        }
      }
    }
  }

  auto distance = [&](const std::vector<std::pair<std::string, std::string>>& a,
                      const std::vector<std::pair<std::string, std::string>>& b) {
    double acc = 0;
    int shared = 0;
    for (const auto& [k, va] : a) {
      for (const auto& [k2, vb] : b) {
        if (k != k2) continue;
        ++shared;
        double na, nb;
        if (common::ParseDouble(va, &na) && common::ParseDouble(vb, &nb)) {
          auto it = min_max.find(k);
          double span = 1.0;
          if (it != min_max.end()) {
            span = std::max(it->second.second - it->second.first, 1e-9);
          }
          acc += std::abs(na - nb) / span;
        } else {
          acc += (va == vb) ? 0.0 : 1.0;
        }
      }
    }
    return shared == 0 ? 1e9 : acc / shared;
  };

  // k-NN over the examples (k = 3).
  std::vector<std::pair<double, size_t>> ranked;
  for (size_t i = 0; i < parsed.size(); ++i) {
    ranked.emplace_back(distance(target, parsed[i].row), i);
  }
  std::sort(ranked.begin(), ranked.end());
  size_t k = std::min<size_t>(3, ranked.size());

  // Numeric target if every example output parses as a number.
  bool numeric_output = true;
  for (const auto& ex : parsed) {
    double v;
    numeric_output = numeric_output && common::ParseDouble(ex.output, &v);
  }

  std::string prediction;
  if (numeric_output) {
    double wsum = 0, acc = 0;
    for (size_t i = 0; i < k; ++i) {
      double w = 1.0 / (ranked[i].first + 1e-3);
      double v = 0;
      common::ParseDouble(parsed[ranked[i].second].output, &v);
      acc += w * v;
      wsum += w;
    }
    double value = acc / wsum;
    prediction = common::StrFormat("%.3f", value);
  } else {
    std::map<std::string, int> votes;
    for (size_t i = 0; i < k; ++i) ++votes[parsed[ranked[i].second].output];
    int best = -1;
    for (const auto& [label, n] : votes) {
      if (n > best) {
        best = n;
        prediction = label;
      }
    }
  }

  double difficulty =
      0.45 - 0.04 * static_cast<double>(std::min<size_t>(parsed.size(), 8));
  double p = CorrectnessProbability(ctx.capability, difficulty);
  if (ctx.rng->Bernoulli(p)) {
    return SkillOutput{prediction, NoisyConfidence(p, ctx.rng)};
  }
  // Corrupt: numeric drift or a different label.
  if (numeric_output) {
    double v = 0;
    common::ParseDouble(prediction, &v);
    double factor = 1.0 + (ctx.rng->Bernoulli(0.5) ? 1 : -1) *
                              ctx.rng->Uniform(0.25, 0.6);
    return SkillOutput{common::StrFormat("%.3f", v * factor),
                       NoisyConfidence(p, ctx.rng)};
  }
  std::vector<std::string> labels;
  for (const auto& ex : parsed) {
    if (ex.output != prediction) labels.push_back(ex.output);
  }
  if (labels.empty()) labels.push_back("unknown");
  return SkillOutput{labels[ctx.rng->NextBelow(labels.size())],
                     NoisyConfidence(p, ctx.rng)};
}

// ---- TabularGenerateSkill -------------------------------------------------------

common::Result<SkillOutput> TabularGenerateSkill::Run(const Prompt& prompt,
                                                      SkillContext& ctx) {
  if (prompt.examples.empty()) {
    return SkillOutput{"", 0.05};
  }
  // Key order from the first example; stats per key over all examples.
  auto first = ParseSerializedRow(prompt.examples[0].input);
  struct KeyStats {
    std::vector<double> numbers;
    std::vector<std::string> categories;
  };
  std::map<std::string, KeyStats> stats;
  for (const FewShotExample& ex : prompt.examples) {
    for (const auto& [k, v] : ParseSerializedRow(ex.input)) {
      double num;
      if (common::ParseDouble(v, &num)) {
        stats[k].numbers.push_back(num);
      } else {
        stats[k].categories.push_back(v);
      }
    }
  }
  std::string out;
  for (const auto& [key, ignored] : first) {
    const KeyStats& st = stats[key];
    if (!out.empty()) out += "; ";
    out += key + " is ";
    if (!st.numbers.empty()) {
      double mean = 0;
      for (double v : st.numbers) mean += v;
      mean /= static_cast<double>(st.numbers.size());
      double var = 0;
      for (double v : st.numbers) var += (v - mean) * (v - mean);
      var /= std::max<size_t>(1, st.numbers.size() - 1);
      // Low capability inflates the spread: sloppier distribution fit.
      double sloppiness = 1.0 + (1.0 - ctx.capability);
      double draw = ctx.rng->Normal(mean, std::sqrt(var) * sloppiness);
      bool integral = true;
      for (double v : st.numbers) integral = integral && v == std::floor(v);
      if (integral) {
        out += std::to_string(static_cast<int64_t>(std::llround(draw)));
      } else {
        out += common::StrFormat("%.3f", draw);
      }
    } else if (!st.categories.empty()) {
      out += st.categories[ctx.rng->NextBelow(st.categories.size())];
    } else {
      out += "unknown";
    }
  }
  return SkillOutput{out, std::clamp(ctx.capability, 0.05, 0.95)};
}

// ---- MatchSkill ---------------------------------------------------------------------

common::Result<SkillOutput> MatchSkill::Run(const Prompt& prompt,
                                            SkillContext& ctx) {
  size_t sep = prompt.input.find(" ||| ");
  if (sep == std::string::npos) {
    return SkillOutput{"no", 0.05};
  }
  std::string left = prompt.input.substr(0, sep);
  std::string right = prompt.input.substr(sep + 5);

  // Real similarity signal: token overlap blended with a char-3-gram overlap
  // (robust to the abbreviation/typo noise the ER workload injects).
  double token_sim = common::TokenJaccard(left, right);
  auto grams = [](const std::string& s) {
    std::vector<std::string> g = text::CharNgrams(common::ToLower(s), 3);
    std::set<std::string> out(g.begin(), g.end());
    return out;
  };
  std::set<std::string> ga = grams(left), gb = grams(right);
  size_t inter = 0;
  for (const auto& g : ga) inter += gb.count(g);
  double gram_sim =
      (ga.empty() && gb.empty())
          ? 1.0
          : static_cast<double>(inter) /
                static_cast<double>(ga.size() + gb.size() - inter);
  double sim = 0.5 * token_sim + 0.5 * gram_sim;

  bool verdict = sim > 0.42;
  // Boundary pairs are hard; clear-cut pairs are easy.
  double difficulty = std::clamp(0.75 - 1.8 * std::abs(sim - 0.42), 0.05, 0.75);
  double p = CorrectnessProbability(ctx.capability, difficulty);
  if (!ctx.rng->Bernoulli(p)) verdict = !verdict;
  return SkillOutput{verdict ? "yes" : "no", NoisyConfidence(p, ctx.rng)};
}

// ---- CtaSkill -----------------------------------------------------------------------

common::Result<SkillOutput> CtaSkill::Run(const Prompt& prompt,
                                          SkillContext& ctx) {
  std::vector<std::string> values;
  for (const std::string& part :
       common::Split(common::ReplaceAll(prompt.input, "||", "\x1f"), '\x1f')) {
    std::string trimmed(common::Trim(part));
    if (!trimmed.empty()) values.push_back(std::move(trimmed));
  }
  if (values.empty()) {
    return SkillOutput{"unknown", 0.05};
  }
  // Gazetteer vote = the model's world knowledge.
  std::map<std::string, int> votes;
  for (const auto& [label, known] : data::CtaGazetteer()) {
    for (const std::string& v : values) {
      for (const std::string& k : known) {
        if (common::ToLower(k) == common::ToLower(v)) ++votes[label];
      }
    }
  }
  std::string best_label = "unknown";
  int best = 0;
  for (const auto& [label, n] : votes) {
    if (n > best) {
      best = n;
      best_label = label;
    }
  }
  double coverage = static_cast<double>(best) /
                    static_cast<double>(values.size());
  // Unknown values make the task harder; full coverage makes it trivial.
  double difficulty = std::clamp(0.6 - 0.45 * coverage, 0.1, 0.7);
  // The label vocabulary comes from the few-shot examples (the paper's
  // prompt); fall back to gazetteer labels if none given.
  std::vector<std::string> vocabulary;
  for (const FewShotExample& ex : prompt.examples) {
    vocabulary.push_back(ex.output);
  }
  if (vocabulary.empty()) {
    for (const auto& [label, known] : data::CtaGazetteer()) {
      vocabulary.push_back(label);
    }
  }
  double p = CorrectnessProbability(ctx.capability, difficulty);
  if (best_label == "unknown" || !ctx.rng->Bernoulli(p)) {
    // Wrong or unsupported: pick another label from the vocabulary.
    std::vector<std::string> other;
    for (const std::string& l : vocabulary) {
      if (l != best_label) other.push_back(l);
    }
    if (!other.empty() && best_label != "unknown") {
      best_label = other[ctx.rng->NextBelow(other.size())];
    } else if (best_label == "unknown" && !vocabulary.empty()) {
      best_label = vocabulary[ctx.rng->NextBelow(vocabulary.size())];
    }
  }
  return SkillOutput{best_label, NoisyConfidence(p, ctx.rng)};
}

// ---- Sql2NlSkill ------------------------------------------------------------------

common::Result<SkillOutput> Sql2NlSkill::Run(const Prompt& prompt,
                                             SkillContext& ctx) {
  // Input: "<sql>\n=> <result value>".
  size_t sep = prompt.input.find("\n=> ");
  if (sep == std::string::npos) {
    return SkillOutput{"The query result could not be described.", 0.05};
  }
  std::string sql_text = prompt.input.substr(0, sep);
  std::string value = prompt.input.substr(sep + 4);
  auto parsed = sql::ParseSelect(sql_text);
  if (!parsed.ok() || (*parsed)->items.empty() || (*parsed)->from.empty()) {
    return SkillOutput{"The query result could not be described.", 0.05};
  }
  const sql::SelectStmt& sel = **parsed;
  const sql::Expr& item = *sel.items[0].expr;
  if (item.kind != sql::ExprKind::kAggregate) {
    return SkillOutput{"The value of " + item.ToString() + " is " + value + ".",
                       0.6};
  }
  static const std::map<std::string, std::string> kAggWords = {
      {"AVG", "average"}, {"SUM", "total"},   {"COUNT", "number"},
      {"MIN", "minimum"}, {"MAX", "maximum"},
  };
  std::string word = kAggWords.count(item.op) ? kAggWords.at(item.op) : "value";
  double p = CorrectnessProbability(ctx.capability, 0.2);
  if (!ctx.rng->Bernoulli(p)) {
    // Wrong aggregate word: a subtle but detectable description error.
    word = (word == "average") ? "total" : "average";
  }
  std::string target = item.args[0]->kind == sql::ExprKind::kStar
                           ? "rows"
                           : item.args[0]->ToString();
  std::string table = sel.from[0]->table_name;
  std::string sentence = "The " + word + " " + target + " of all the rows in the " +
                         table + " table is " + value + ".";
  return SkillOutput{sentence, NoisyConfidence(p, ctx.rng)};
}

// ---- FreeformSkill ------------------------------------------------------------------

common::Result<SkillOutput> FreeformSkill::Run(const Prompt& prompt,
                                               SkillContext& ctx) {
  // Deterministic acknowledgement summarizing the request; good enough for
  // glue prompts whose value is the metered cost, not the text.
  std::string head = prompt.input.substr(0, 96);
  return SkillOutput{"Understood: " + head,
                     std::clamp(ctx.capability, 0.05, 0.95)};
}

}  // namespace llmdm::llm
