#ifndef LLMDM_EMBED_EMBEDDER_H_
#define LLMDM_EMBED_EMBEDDER_H_

#include <cstdint>
#include <string_view>
#include <vector>

namespace llmdm::embed {

using Vector = std::vector<float>;

/// Cosine similarity in [-1, 1]. Zero vectors yield 0.
float CosineSimilarity(const Vector& a, const Vector& b);

/// Normalizes to unit length in place (no-op on the zero vector).
void L2Normalize(Vector* v);

/// Deterministic text embedder: signed feature hashing of word tokens and
/// character 3/4-grams into a fixed-dimension space, L2-normalized.
///
/// This stands in for the learned embedding models the paper assumes
/// (Sec. II-D, III-B.2, III-C): what the vector database, semantic cache and
/// prompt store need from an embedder is that (a) paraphrases and
/// shared-subclause queries land near each other and (b) unrelated text lands
/// far away — character n-grams plus word features give exactly that for the
/// synthetic workloads, with zero model weights and full determinism.
class HashingEmbedder {
 public:
  struct Options {
    size_t dimension = 256;
    /// Weight of word-level features relative to character n-grams.
    float word_weight = 2.0f;
    /// Hash seed; two embedders with different seeds produce incompatible
    /// spaces (used in tests to verify space mismatch detection).
    uint64_t seed = 0x5EEDF00DULL;
  };

  HashingEmbedder() : HashingEmbedder(Options{}) {}
  explicit HashingEmbedder(const Options& options) : options_(options) {}

  size_t dimension() const { return options_.dimension; }

  /// Embeds text into a unit-length vector.
  Vector Embed(std::string_view text) const;

  /// Embed() into a caller-owned buffer, reusing its capacity: the hot-path
  /// variant for the sharded semantic cache and the perf bench, which embed
  /// per lookup. Produces bit-identical vectors to Embed() while allocating
  /// nothing in steady state beyond `out`'s (reused) storage: the text is
  /// case-folded once into a per-thread padded buffer that keeps its
  /// capacity, word pieces and n-gram windows are hashed straight off it,
  /// and each 4-gram hash extends the 3-gram hash at its position (see
  /// common::Fnv1aByte).
  void EmbedInto(std::string_view text, Vector* out) const;

  /// EmbedInto() against a raw buffer of dimension() floats, for callers
  /// that embed many texts into one contiguous arena without a Vector per
  /// text (perfbench's scan replay). Bit-identical to Embed().
  void EmbedInto(std::string_view text, float* out) const;

  /// Convenience: cosine similarity of two texts under this embedder.
  float Similarity(std::string_view a, std::string_view b) const;

 private:
  Options options_;
};

}  // namespace llmdm::embed

#endif  // LLMDM_EMBED_EMBEDDER_H_
