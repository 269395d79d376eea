#include "llm/model.h"

#include "llm/deadline.h"

namespace llmdm::llm {

common::Money PriceTokens(common::Money per_1k, size_t tokens) {
  return common::Money::FromMicros(per_1k.micros() *
                                   static_cast<int64_t>(tokens) / 1000);
}

common::Money EffectiveInputPrice(const ModelSpec& spec, bool batching) {
  return batching && spec.cached_input_price_per_1k.micros() > 0
             ? spec.cached_input_price_per_1k
             : spec.input_price_per_1k;
}

common::Result<Completion> LlmModel::CompleteMetered(const Prompt& prompt,
                                                     UsageMeter* meter) {
  // The request's budget is enforced here, at the call boundary, so every
  // layer stacked above (cascade rungs, pipeline stages, retries) fails fast
  // once the request is out of time instead of starting doomed work.
  if (prompt.deadline != nullptr && prompt.deadline->Exhausted()) {
    return common::Status::Timeout("request deadline exhausted before call to " +
                                   name());
  }
  auto result = Complete(prompt);
  if (result.ok()) {
    if (meter != nullptr) {
      meter->Record(result->model, result->input_tokens, result->output_tokens,
                    result->cost, result->latency_ms);
    }
    if (prompt.deadline != nullptr) prompt.deadline->Charge(result->latency_ms);
  }
  return result;
}

std::vector<common::Result<Completion>> LlmModel::CompleteBatch(
    const std::vector<Prompt>& prompts) {
  // Base endpoints have no prefix sharing to exploit: a batch is the same
  // calls back to back, with the same per-prompt deadline enforcement as
  // CompleteMetered (metering stays with the caller — see header).
  std::vector<common::Result<Completion>> out;
  out.reserve(prompts.size());
  for (const Prompt& prompt : prompts) {
    out.push_back(CompleteMetered(prompt, nullptr));
  }
  return out;
}

std::vector<ModelSpec> PaperModelSpecs() {
  // Cached-input (KV-hit prefix) tokens bill at 10% of the list input price,
  // the discount tier providers quote for prompt caching. Only the batched
  // path consults it, so the single-call tables are unaffected.
  std::vector<ModelSpec> specs(3);
  specs[0].name = "sim-babbage-002";
  specs[0].capability = 0.35;
  specs[0].input_price_per_1k = common::Money::FromDollars(0.0004);
  specs[0].output_price_per_1k = common::Money::FromDollars(0.0004);
  specs[0].cached_input_price_per_1k = common::Money::FromDollars(0.00004);
  specs[0].latency_ms_per_1k_tokens = 150.0;

  specs[1].name = "sim-gpt-3.5-turbo";
  specs[1].capability = 0.72;
  specs[1].input_price_per_1k = common::Money::FromDollars(0.001);
  specs[1].output_price_per_1k = common::Money::FromDollars(0.002);
  specs[1].cached_input_price_per_1k = common::Money::FromDollars(0.0001);
  specs[1].latency_ms_per_1k_tokens = 400.0;

  specs[2].name = "sim-gpt-4";
  specs[2].capability = 0.95;
  specs[2].input_price_per_1k = common::Money::FromDollars(0.03);
  specs[2].output_price_per_1k = common::Money::FromDollars(0.06);
  specs[2].cached_input_price_per_1k = common::Money::FromDollars(0.003);
  specs[2].latency_ms_per_1k_tokens = 1200.0;
  return specs;
}

}  // namespace llmdm::llm
