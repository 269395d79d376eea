#include "core/optimize/decomposition.h"

#include <algorithm>

#include "text/tokenizer.h"

namespace llmdm::optimize {

common::Result<DecomposedQuery> DecomposeQuestion(const std::string& question) {
  LLMDM_ASSIGN_OR_RETURN(data::Nl2SqlQuery parsed,
                         data::ParseNl2SqlQuestion(question));
  DecomposedQuery out;
  out.sub_questions.push_back(parsed.first.ToSubQuestion());
  if (parsed.second.has_value()) {
    out.sub_questions.push_back(parsed.second->ToSubQuestion());
    out.combiner = parsed.combiner;
  }
  return out;
}

std::string RecombineSql(const std::vector<std::string>& sub_sql,
                         data::Combiner combiner) {
  if (sub_sql.empty()) return "";
  if (sub_sql.size() == 1) return sub_sql[0];
  std::string op;
  switch (combiner) {
    case data::Combiner::kOr:
      op = " UNION ";
      break;
    case data::Combiner::kAnd:
      op = " INTERSECT ";
      break;
    case data::Combiner::kAndNot:
      op = " EXCEPT ";
      break;
    case data::Combiner::kNone:
      op = " UNION ";
      break;
  }
  std::string out = sub_sql[0];
  for (size_t i = 1; i < sub_sql.size(); ++i) out += op + sub_sql[i];
  return out;
}

llm::Prompt QueryBatchOptimizer::MakeUnitPrompt(const std::string& unit) const {
  llm::Prompt p;
  p.task_tag = "nl2sql";
  p.instructions = options_.instructions;
  p.examples = options_.examples;
  p.input = unit;
  return p;
}

BatchPlan QueryBatchOptimizer::Plan(
    const std::vector<std::string>& questions) const {
  BatchPlan plan;

  // First pass: decompose everything to learn sub-question frequencies.
  std::vector<DecomposedQuery> decomposed(questions.size());
  std::map<std::string, size_t> sub_uses;
  for (size_t i = 0; i < questions.size(); ++i) {
    auto d = DecomposeQuestion(questions[i]);
    if (d.ok()) {
      decomposed[i] = std::move(*d);
      for (const std::string& s : decomposed[i].sub_questions) ++sub_uses[s];
    }
  }

  // Second pass: per query, decompose iff the amortized sub-prompt cost
  // beats the direct prompt cost. Shared sub-questions split their token
  // bill across every query that uses them.
  std::map<std::string, size_t> unit_index;
  auto add_unit = [&](const std::string& unit) {
    if (unit_index.emplace(unit, plan.unique_units.size()).second) {
      plan.unique_units.push_back(unit);
    }
  };
  size_t prompt_overhead = llm::Prompt{}.CountInputTokens() +
                           text::CountTokens(options_.instructions);
  for (const llm::FewShotExample& ex : options_.examples) {
    prompt_overhead += text::CountTokens(ex.input) +
                       text::CountTokens(ex.output);
  }

  for (size_t i = 0; i < questions.size(); ++i) {
    BatchPlan::Item item;
    item.query_index = i;
    const DecomposedQuery& d = decomposed[i];
    bool use_decomposition = false;
    if (options_.enable_decomposition && d.sub_questions.size() > 1) {
      double direct_cost = static_cast<double>(
          text::CountTokens(questions[i]) + prompt_overhead);
      double amortized = 0.0;
      for (const std::string& s : d.sub_questions) {
        double unit_cost =
            static_cast<double>(text::CountTokens(s) + prompt_overhead);
        amortized += unit_cost / static_cast<double>(sub_uses.at(s));
      }
      use_decomposition = amortized < direct_cost;
    }
    if (use_decomposition) {
      item.decomposed = true;
      item.units = d.sub_questions;
      item.combiner = d.combiner;
    } else {
      item.units = {questions[i]};
    }
    for (const std::string& u : item.units) add_unit(u);
    plan.items.push_back(std::move(item));
  }
  for (const std::string& u : plan.unique_units) {
    plan.estimated_tokens += text::CountTokens(u) + prompt_overhead;
  }
  return plan;
}

common::Result<BatchExecution> QueryBatchOptimizer::Execute(
    const BatchPlan& plan, llm::LlmModel& model,
    llm::UsageMeter* meter) const {
  BatchExecution exec;

  // Translate each unique unit. Completions are obtained per unit (the
  // simulator needs one input per call); billing depends on combination.
  std::map<std::string, std::string> unit_sql;
  std::vector<llm::Completion> completions;
  for (const std::string& unit : plan.unique_units) {
    llm::Prompt p = MakeUnitPrompt(unit);
    LLMDM_ASSIGN_OR_RETURN(llm::Completion c, model.Complete(p));
    unit_sql[unit] = c.text;
    completions.push_back(std::move(c));
  }

  const llm::ModelSpec& spec = model.spec();

  if (options_.enable_combination && !plan.unique_units.empty()) {
    // All units share instructions+examples, so one combined prompt carries
    // the shared prefix once and then every unit input.
    llm::Prompt combined = MakeUnitPrompt("");
    combined.input.clear();
    for (const std::string& unit : plan.unique_units) {
      combined.input += unit + "\n";
    }
    size_t input_tokens = combined.CountInputTokens();
    size_t output_tokens = 0;
    for (const llm::Completion& c : completions) {
      output_tokens += c.output_tokens;
    }
    common::Money cost =
        llm::PriceTokens(spec.input_price_per_1k, input_tokens) +
        llm::PriceTokens(spec.output_price_per_1k, output_tokens);
    double latency = spec.latency_ms_per_1k_tokens *
                     static_cast<double>(input_tokens + output_tokens) / 1000.0;
    if (meter != nullptr) {
      meter->Record(spec.name, input_tokens, output_tokens, cost, latency);
    }
    exec.cost = cost;
    exec.llm_calls = 1;
  } else {
    for (const llm::Completion& c : completions) {
      if (meter != nullptr) {
        meter->Record(c.model, c.input_tokens, c.output_tokens, c.cost,
                      c.latency_ms);
      }
      exec.cost += c.cost;
    }
    exec.llm_calls = completions.size();
  }

  // Client-side recombination.
  exec.sql.resize(plan.items.size());
  for (const BatchPlan::Item& item : plan.items) {
    std::vector<std::string> parts;
    for (const std::string& unit : item.units) {
      parts.push_back(unit_sql.at(unit));
    }
    exec.sql[item.query_index] =
        item.decomposed ? RecombineSql(parts, item.combiner) : parts[0];
  }
  return exec;
}

common::Result<BatchExecution> QueryBatchOptimizer::ExecuteBatched(
    const BatchPlan& plan, llm::LlmModel& model,
    llm::UsageMeter* meter) const {
  BatchExecution exec;

  std::vector<llm::Prompt> prompts;
  prompts.reserve(plan.unique_units.size());
  for (const std::string& unit : plan.unique_units) {
    prompts.push_back(MakeUnitPrompt(unit));
  }
  std::vector<common::Result<llm::Completion>> results =
      model.CompleteBatch(prompts);

  const llm::ModelSpec& spec = model.spec();

  std::map<std::string, std::string> unit_sql;
  if (meter != nullptr && !plan.unique_units.empty()) {
    meter->RecordBatchClose(spec.name, plan.unique_units.size());
  }
  for (size_t i = 0; i < plan.unique_units.size(); ++i) {
    LLMDM_ASSIGN_OR_RETURN(llm::Completion c, std::move(results[i]));
    unit_sql[plan.unique_units[i]] = c.text;
    if (meter != nullptr) {
      meter->Record(c.model, c.input_tokens, c.output_tokens, c.cost,
                    c.latency_ms);
    }
    if (c.prefix_cached_tokens > 0) {
      // Exact savings: what the cached-tier tokens would have cost at list
      // price, recovered from the discounted bill.
      common::Money saved =
          llm::PriceTokens(spec.input_price_per_1k, c.input_tokens) +
          llm::PriceTokens(spec.output_price_per_1k, c.output_tokens) -
          c.cost;
      exec.prefix_cached_tokens += c.prefix_cached_tokens;
      exec.prefix_saved += saved;
      if (meter != nullptr) {
        meter->RecordPrefixReuse(c.model, c.prefix_cached_tokens, saved);
      }
    }
    exec.cost += c.cost;
  }
  exec.llm_calls = plan.unique_units.size();

  exec.sql.resize(plan.items.size());
  for (const BatchPlan::Item& item : plan.items) {
    std::vector<std::string> parts;
    for (const std::string& unit : item.units) {
      parts.push_back(unit_sql.at(unit));
    }
    exec.sql[item.query_index] =
        item.decomposed ? RecombineSql(parts, item.combiner) : parts[0];
  }
  return exec;
}

}  // namespace llmdm::optimize
