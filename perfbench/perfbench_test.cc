// Checks that the timing decorators the traced runs install change nothing:
// CompleteBatch reaches the endpoint's own CompleteBatch (so shared-prefix
// billing survives the wrapper), and batch_prefix commits the same spend and
// the same answers with and without them.
//
//   perfbench_test        (exit status 0 = pass)
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "common.h"
#include "llm/prompt.h"
#include "llm/simulated.h"
#include "workloads.h"

namespace {

int failures = 0;

void Expect(bool ok, const std::string& what) {
  if (!ok) {
    ++failures;
    std::fprintf(stderr, "FAIL: %s\n", what.c_str());
  }
}

void DecoratorForwardsCompleteBatch() {
  auto models = llmdm::llm::CreatePaperModelLadder(nullptr, perfbench::kModelSeed);
  perfbench::CallTimes times;
  perfbench::TimingLlm timed(models[2], &times);
  const std::string head(200, 'h');
  std::vector<llmdm::llm::Prompt> prompts;
  for (int i = 0; i < 4; ++i) {
    prompts.push_back(llmdm::llm::MakePrompt(
        "freeform", head + " question " + std::to_string(i)));
  }
  auto direct = models[2]->CompleteBatch(prompts);
  auto wrapped = timed.CompleteBatch(prompts);
  Expect(direct.size() == wrapped.size(), "batch sizes differ");
  size_t cached = 0;
  for (size_t i = 0; i < direct.size() && i < wrapped.size(); ++i) {
    Expect(direct[i].ok() && wrapped[i].ok(), "batch member failed");
    if (!direct[i].ok() || !wrapped[i].ok()) continue;
    Expect(direct[i]->text == wrapped[i]->text, "batch text differs");
    Expect(direct[i]->cost.micros() == wrapped[i]->cost.micros(),
           "batch cost differs");
    Expect(direct[i]->prefix_cached_tokens == wrapped[i]->prefix_cached_tokens,
           "prefix-cached tokens differ");
    cached += wrapped[i]->prefix_cached_tokens;
  }
  Expect(cached > 0, "no prefix reuse through the decorator");
  Expect(times.calls.load() == prompts.size() && times.batch_calls.load() == 1,
         "decorator did not count the batch");
}

void BatchPrefixUnchangedByTracing() {
  perfbench::RunConfig config;
  config.seed = 7;
  config.seconds = 0.5;
  const perfbench::Report plain = perfbench::RunBatchPrefix(config);
  config.trace = true;
  const perfbench::Report traced = perfbench::RunBatchPrefix(config);
  Expect(plain.failed == 0 && traced.failed == 0,
         "batch_prefix correctness gates failed");
  Expect(plain.attempted == traced.attempted && plain.attempted > 0,
         "different request counts");
  Expect(plain.spend_micros == traced.spend_micros,
         "spend differs with the decorators");
  Expect(plain.metrics.at("usd_per_1k").value ==
             traced.metrics.at("usd_per_1k").value,
         "usd_per_1k differs with the decorators");
  Expect(plain.answers_digest == traced.answers_digest,
         "answers differ with the decorators");
  Expect(traced.metrics.at("llm.prefix_cached_ratio").value > 0.0,
         "no prefix reuse in the traced run");
}

}  // namespace

int main() {
  DecoratorForwardsCompleteBatch();
  BatchPrefixUnchangedByTracing();
  if (failures == 0) std::printf("perfbench_test: all checks passed\n");
  return failures == 0 ? 0 : 1;
}
