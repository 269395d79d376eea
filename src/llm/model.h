#ifndef LLMDM_LLM_MODEL_H_
#define LLMDM_LLM_MODEL_H_

#include <string>
#include <vector>

#include "common/money.h"
#include "common/result.h"
#include "llm/prompt.h"
#include "llm/usage.h"

namespace llmdm::llm {

/// Static description of a model tier: how capable it is and what it costs.
/// The prices of the paper's three tiers (Sec. III-B.1 quotes GPT-3.5-Turbo
/// at $0.001/1k input tokens and GPT-4 at $0.03/1k) are reproduced in
/// PaperModelSpecs().
struct ModelSpec {
  std::string name;
  /// Abstract capability in [0,1]; drives the simulated accuracy curve
  /// (see skills.h for the capability->accuracy mapping).
  double capability = 0.5;
  common::Money input_price_per_1k;
  common::Money output_price_per_1k;
  /// Discounted input price for prompt-prefix tokens already resident in the
  /// serving engine's KV cache (the "cached input" tier real providers bill
  /// at ~10% of list). Only consulted on the batched path
  /// (LlmModel::CompleteBatch), where a prefix trie identifies tokens an
  /// earlier batch member has already prefilled. Zero (the default) disables
  /// the discount: cached tokens bill at the list input price and the
  /// single-call cost model is unchanged.
  common::Money cached_input_price_per_1k;
  /// Simulated wall-clock per 1k tokens processed (bigger models are slower).
  double latency_ms_per_1k_tokens = 500.0;
};

/// Bills `tokens` at a per-1k-token price, in whole micros rounded down. The
/// one billing rule of every ledger (model, serve, cache), so spend
/// reconciles across them to the micro.
common::Money PriceTokens(common::Money per_1k, size_t tokens);

/// The per-1k input price a call pays: the cached tier when the deployment
/// batches and `spec` has one (an exact-duplicate prompt in a batch bills its
/// whole input cached), list otherwise.
common::Money EffectiveInputPrice(const ModelSpec& spec, bool batching);

/// One completion returned by a model.
struct Completion {
  std::string text;
  /// The model's own estimate that `text` is correct, in [0,1]. Real systems
  /// derive this from logprobs; cascades (Fig. 6) consume it.
  double confidence = 0.5;
  size_t input_tokens = 0;
  size_t output_tokens = 0;
  /// Of input_tokens, how many were served from a shared-prefix KV cache and
  /// billed at ModelSpec::cached_input_price_per_1k instead of list. Only
  /// nonzero on the batched path; `cost` already reflects the discount.
  size_t prefix_cached_tokens = 0;
  common::Money cost;
  double latency_ms = 0.0;
  std::string model;
  /// True when the completion was cut off before finishing (the simulator's
  /// analogue of finish_reason == "length"/"content_filter"). Unlike garbled
  /// text, truncation is visible to the client, so retry layers act on it.
  bool truncated = false;
};

/// Abstract LLM endpoint. The library is written against this interface so a
/// real HTTP-backed client could be dropped in; this repo ships SimulatedLlm.
class LlmModel {
 public:
  virtual ~LlmModel() = default;

  virtual const ModelSpec& spec() const = 0;
  const std::string& name() const { return spec().name; }

  virtual common::Result<Completion> Complete(const Prompt& prompt) = 0;

  /// Complete() plus usage metering (meter may be null). Virtual so
  /// decorators that make several inner calls per logical completion
  /// (retries, fallbacks) can meter every attempt into the same ledger.
  virtual common::Result<Completion> CompleteMetered(const Prompt& prompt,
                                                     UsageMeter* meter);

  /// One model invocation per prompt, executed as a batch: endpoints that
  /// model KV-cache prefix reuse (SimulatedLlm) price the longest prompt
  /// prefix shared with an earlier batch member once, at
  /// ModelSpec::cached_input_price_per_1k, and skip its prefill latency —
  /// setting Completion::prefix_cached_tokens and discounting
  /// Completion::cost accordingly. The base implementation is a plain loop
  /// (no sharing). Per-prompt deadlines are checked before and charged after
  /// each member's call, exactly as in CompleteMetered; results are
  /// positionally aligned with `prompts`. Deliberately unmetered: the serve
  /// layer meters each member into its own scratch ledger so hedging's
  /// winner-commit accounting keeps working per request.
  virtual std::vector<common::Result<Completion>> CompleteBatch(
      const std::vector<Prompt>& prompts);
};

/// The three model tiers the paper benchmarks (Table I): sim-babbage-002,
/// sim-gpt-3.5-turbo, sim-gpt-4, with the paper's quoted prices.
std::vector<ModelSpec> PaperModelSpecs();

}  // namespace llmdm::llm

#endif  // LLMDM_LLM_MODEL_H_
