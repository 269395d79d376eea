#ifndef LLMDM_TEXT_TOKENIZER_H_
#define LLMDM_TEXT_TOKENIZER_H_

#include <cctype>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace llmdm::text {

/// A byte that belongs to a word token (vs punctuation/whitespace).
inline bool IsWordByte(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) || c == '_';
}

/// Deterministic sub-word tokenizer used for (a) metering simulated LLM API
/// costs and (b) producing bag-of-token features for embeddings.
///
/// The scheme approximates BPE statistics without a learned merge table:
/// words and punctuation are split lexically, then words longer than
/// `kMaxPieceLen` are chunked. On English-like text this yields roughly
/// 1.3 tokens per word, matching the ~4 chars/token rule of thumb that the
/// paper's quoted per-1k-token prices assume.
class Tokenizer {
 public:
  /// Maximum characters per word piece before chunking.
  static constexpr size_t kMaxPieceLen = 6;

  /// Splits `input` into word pieces and punctuation tokens.
  std::vector<std::string> Tokenize(std::string_view input) const;

  /// Token count without materializing the pieces (fast path for metering).
  size_t CountTokens(std::string_view input) const;

  /// Visits every token as a `string_view` into `input`, in Tokenize()
  /// order, without allocating. Word pieces alias the input bytes; callers
  /// that want case folding fold bytes as they consume them (see
  /// HashingEmbedder::EmbedInto). `visitor` is invoked as
  /// `visitor(piece, is_word)`.
  template <typename Visitor>
  void VisitTokens(std::string_view input, Visitor&& visitor) const {
    size_t i = 0;
    while (i < input.size()) {
      char c = input[i];
      if (std::isspace(static_cast<unsigned char>(c))) {
        ++i;
        continue;
      }
      if (IsWordByte(c)) {
        size_t start = i;
        while (i < input.size() && IsWordByte(input[i])) ++i;
        std::string_view word = input.substr(start, i - start);
        for (size_t off = 0; off < word.size(); off += kMaxPieceLen) {
          visitor(word.substr(off, kMaxPieceLen), true);
        }
      } else {
        visitor(input.substr(i, 1), false);
        ++i;
      }
    }
  }
};

/// Counts tokens with the default tokenizer; convenience for cost metering.
size_t CountTokens(std::string_view input);

/// Process-wide memo for token counts of recurring text, keyed by a
/// caller-computed 64-bit hash. The metering boundary counts the same
/// system/few-shot prompt prefix on every call; hashing the parts is much
/// cheaper than re-rendering and re-counting them, so Prompt::
/// CountInputTokens caches the prefix count here. Direct-mapped and
/// fixed-size (a hot prefix set is small); thread-safe. The full 64-bit key
/// is stored and verified, so two texts only alias if their hashes collide.
std::optional<size_t> LookupTokenCount(uint64_t key);
void StoreTokenCount(uint64_t key, size_t count);

/// Memo statistics for tests and the perf bench (hits, misses since start).
struct TokenCountCacheStats {
  size_t hits = 0;
  size_t misses = 0;
};
TokenCountCacheStats GetTokenCountCacheStats();

/// Character n-grams of length n (with boundary markers). Used by the
/// embedder for robustness to small rewordings.
std::vector<std::string> CharNgrams(std::string_view input, size_t n);

}  // namespace llmdm::text

#endif  // LLMDM_TEXT_TOKENIZER_H_
