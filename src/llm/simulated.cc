#include "llm/simulated.h"

#include <algorithm>

#include "common/hash.h"
#include "llm/deadline.h"
#include "llm/prefix_trie.h"
#include "text/tokenizer.h"

namespace llmdm::llm {

void SimulatedLlm::RegisterSkill(std::unique_ptr<Skill> skill) {
  std::string tag(skill->tag());
  skills_[tag] = std::move(skill);
}

common::Result<Completion> SimulatedLlm::Complete(const Prompt& prompt) {
  auto it = skills_.find(prompt.task_tag);
  Skill* skill;
  if (it != skills_.end()) {
    skill = it->second.get();
  } else {
    auto fallback = skills_.find("freeform");
    if (fallback == skills_.end()) {
      return common::Status::Unimplemented("no skill for task tag '" +
                                           prompt.task_tag + "'");
    }
    skill = fallback->second.get();
  }

  // Deterministic per-call noise stream: same (model, prompt, salt) -> same
  // draw; different salts -> independent draws.
  uint64_t h = common::Fnv1a(spec_.name, seed_);
  h = common::HashCombine(h, common::Fnv1a(prompt.input));
  h = common::HashCombine(h, common::Fnv1a(prompt.instructions));
  h = common::HashCombine(h, prompt.sample_salt);
  common::Rng rng(h);

  SkillContext ctx;
  ctx.capability = spec_.capability;
  ctx.rng = &rng;
  LLMDM_ASSIGN_OR_RETURN(SkillOutput out, skill->Run(prompt, ctx));

  Completion completion;
  completion.text = std::move(out.text);
  completion.confidence = out.confidence;
  completion.model = spec_.name;
  completion.input_tokens = prompt.CountInputTokens();
  completion.output_tokens = text::CountTokens(completion.text);
  completion.cost =
      PriceTokens(spec_.input_price_per_1k, completion.input_tokens) +
      PriceTokens(spec_.output_price_per_1k, completion.output_tokens);
  completion.latency_ms =
      spec_.latency_ms_per_1k_tokens *
      static_cast<double>(completion.input_tokens + completion.output_tokens) /
      1000.0;
  return completion;
}

std::vector<common::Result<Completion>> SimulatedLlm::CompleteBatch(
    const std::vector<Prompt>& prompts) {
  const bool discount = spec_.cached_input_price_per_1k.micros() > 0;
  PrefixTrie trie;
  std::vector<common::Result<Completion>> out;
  out.reserve(prompts.size());
  for (const Prompt& prompt : prompts) {
    // Same per-member deadline contract as CompleteMetered: fail fast before
    // the call, charge the (discounted) latency after. A member that dies
    // here never ran prefill, so its prompt does not enter the trie.
    if (prompt.deadline != nullptr && prompt.deadline->Exhausted()) {
      out.push_back(common::Status::Timeout(
          "request deadline exhausted before call to " + spec_.name));
      continue;
    }
    auto result = Complete(prompt);
    if (!result.ok()) {
      out.push_back(result.status());
      continue;
    }
    Completion completion = std::move(*result);
    if (discount) {
      const std::string rendered = prompt.Render();
      const size_t shared_chars = trie.Insert(rendered);
      // The shared character prefix re-tokenized: the batch-order trie walk
      // is deterministic, so so is this count. Clamped — a sub-word
      // tokenizer can split a truncated prefix into more pieces than the
      // full render bills for.
      const size_t cached = std::min(
          text::CountTokens(std::string_view(rendered).substr(0, shared_chars)),
          completion.input_tokens);
      const size_t fresh = completion.input_tokens - cached;
      completion.prefix_cached_tokens = cached;
      completion.cost = PriceTokens(spec_.input_price_per_1k, fresh) +
                        PriceTokens(spec_.cached_input_price_per_1k, cached) +
                        PriceTokens(spec_.output_price_per_1k,
                                    completion.output_tokens);
      // Prefill for the cached prefix is skipped: only fresh input + decode
      // spend time in the slot.
      completion.latency_ms =
          spec_.latency_ms_per_1k_tokens *
          static_cast<double>(fresh + completion.output_tokens) / 1000.0;
    }
    if (prompt.deadline != nullptr) {
      prompt.deadline->Charge(completion.latency_ms);
    }
    out.push_back(std::move(completion));
  }
  return out;
}

std::vector<std::shared_ptr<LlmModel>> CreatePaperModelLadder(
    const data::KnowledgeBase* kb, uint64_t seed) {
  std::vector<std::shared_ptr<LlmModel>> out;
  for (const ModelSpec& spec : PaperModelSpecs()) {
    auto model = std::make_shared<SimulatedLlm>(spec, seed);
    if (kb != nullptr) {
      model->RegisterSkill(std::make_unique<QaSkill>(kb));
    }
    model->RegisterSkill(std::make_unique<Nl2SqlSkill>());
    model->RegisterSkill(std::make_unique<Nl2TxnSkill>());
    model->RegisterSkill(std::make_unique<MatchSkill>());
    model->RegisterSkill(std::make_unique<CtaSkill>());
    model->RegisterSkill(std::make_unique<TabularPredictSkill>());
    model->RegisterSkill(std::make_unique<TabularGenerateSkill>());
    model->RegisterSkill(std::make_unique<Sql2NlSkill>());
    model->RegisterSkill(std::make_unique<FreeformSkill>());
    out.push_back(std::move(model));
  }
  return out;
}

}  // namespace llmdm::llm
