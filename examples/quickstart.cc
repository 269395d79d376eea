// Quickstart: the three core moves of llmdm in ~60 lines.
//  1. stand up a SQL database and a simulated LLM;
//  2. translate natural language to SQL, validate, execute;
//  3. wrap the model with a semantic cache and watch the second call be free.
//
// Build & run:  cmake -B build -G Ninja && cmake --build build &&
//               ./build/examples/example_quickstart
#include <cstdio>

#include "core/optimize/semantic_cache.h"
#include "core/transform/nl2sql.h"
#include "core/validate/validators.h"
#include "data/nl2sql_workload.h"
#include "llm/simulated.h"
#include "sql/database.h"

int main() {
  using namespace llmdm;

  // 1. A relational database (the paper's stadium/concert schema) and the
  //    simulated model ladder (priced like babbage / gpt-3.5 / gpt-4).
  common::Rng rng(7);
  sql::Database db;
  auto status = db.ExecuteScript(
      data::BuildStadiumDatabaseScript(10, {2014, 2015}, rng));
  if (!status.ok()) {
    std::fprintf(stderr, "%s\n", status.status().ToString().c_str());
    return 1;
  }
  auto models = llm::CreatePaperModelLadder(nullptr, 2024);
  std::shared_ptr<llm::LlmModel> gpt4 = models[2];

  // 2. NL -> SQL -> validate -> execute.
  transform::Nl2SqlEngine engine(gpt4, nullptr);
  llm::UsageMeter meter;
  std::string question =
      "What are the names of stadiums that had concerts in 2014 but did not "
      "have sports meetings in 2015?";
  auto translated = engine.Translate(question, db, &meter);
  if (!translated.ok()) {
    std::fprintf(stderr, "%s\n", translated.status().ToString().c_str());
    return 1;
  }
  std::printf("Q: %s\nSQL: %s\n", question.c_str(), translated->sql.c_str());
  auto verdict = validate::SqlValidator::ValidateExecutes(translated->sql, db);
  std::printf("validation: %s (%s)\n", verdict.accepted ? "ok" : "REJECTED",
              verdict.reason.c_str());
  if (translated->executed) {
    std::printf("%s", translated->result.ToString().c_str());
  }
  std::printf("spent so far: %s\n\n", meter.ToString().c_str());

  // 3. Semantic caching: a repeated (or near-identical) question is served
  //    from the cache at zero cost.
  optimize::SemanticCache::Options cache_options;
  cache_options.similarity_threshold = 0.99;
  optimize::SemanticCache cache(cache_options);
  optimize::CachedLlm cached(gpt4, &cache);
  llm::Prompt prompt = llm::MakePrompt("nl2sql", question);
  auto first = cached.Complete(prompt);
  auto second = cached.Complete(prompt);
  std::printf("first call cost: %s; second call cost: %s (cache hits: %zu)\n",
              first->cost.ToString(4).c_str(), second->cost.ToString(4).c_str(),
              cached.cache_hits());
  return 0;
}
