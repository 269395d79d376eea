#include "llm/prompt.h"

#include "common/hash.h"
#include "text/tokenizer.h"

namespace llmdm::llm {

namespace {

// The prefix (everything before the "[input] " line) of Render(). Split out
// so token metering can count it once per distinct prefix (see
// CountInputTokens) instead of re-rendering it on every metered call.
std::string RenderPrefix(const Prompt& p) {
  std::string out;
  if (!p.system.empty()) {
    out += "[system] " + p.system + "\n";
  }
  if (!p.instructions.empty()) {
    out += "[task] " + p.instructions + "\n";
  }
  for (const FewShotExample& ex : p.examples) {
    out += "[example] input: " + ex.input + "\n[example] output: " + ex.output +
           "\n";
  }
  return out;
}

/// Folds `part` into the FNV-1a state `key` as its 8-byte little-endian
/// length, then its bytes. A list of parts folded this way hashes a byte
/// stream that decodes back to exactly that list, whatever bytes the parts
/// contain.
uint64_t HashPart(uint64_t key, std::string_view part) {
  const uint64_t size = part.size();
  for (int shift = 0; shift < 64; shift += 8) {
    key = common::Fnv1aByte(key, static_cast<unsigned char>(size >> shift));
  }
  return common::Fnv1a(part, key);
}

}  // namespace

std::string Prompt::Render() const {
  std::string out = RenderPrefix(*this);
  out += "[input] " + input + "\n";
  return out;
}

size_t Prompt::CountInputTokens() const {
  // The tokenizer splits at whitespace and every rendered section ends in
  // '\n', so section counts are additive: count(prefix + input line) ==
  // count(prefix) + count(input line). The prefix (system + instructions +
  // few-shot examples) is identical across the calls a metered workload
  // makes, so its count is memoized under a hash of the parts. Each part is
  // hashed behind its length (HashPart), so two prompts share a key only on
  // a true 64-bit collision.
  uint64_t key = HashPart(common::Fnv1a(""), system);
  key = HashPart(key, instructions);
  for (const FewShotExample& ex : examples) {
    key = HashPart(key, ex.input);
    key = HashPart(key, ex.output);
  }
  size_t prefix_tokens;
  if (auto cached = text::LookupTokenCount(key); cached.has_value()) {
    prefix_tokens = *cached;
  } else {
    prefix_tokens = text::CountTokens(RenderPrefix(*this));
    text::StoreTokenCount(key, prefix_tokens);
  }
  // "[input] " contributes a fixed token count ('[', "input", ']'), and the
  // surrounding space/newline contribute none.
  static const size_t kInputMarkTokens = text::CountTokens("[input]");
  return prefix_tokens + kInputMarkTokens + text::CountTokens(input);
}

Prompt MakePrompt(std::string task_tag, std::string input) {
  Prompt p;
  p.task_tag = std::move(task_tag);
  p.input = std::move(input);
  return p;
}

}  // namespace llmdm::llm
