#include "embed/embedder.h"

#include <cctype>
#include <cmath>
#include <string>

#include "common/hash.h"
#include "text/tokenizer.h"
#include "vectordb/kernels.h"

namespace llmdm::embed {

namespace {

// EmbedInto's per-thread scratch keeps its capacity up to this many text
// bytes; typical prompts are far shorter.
constexpr size_t kMaxKeptScratchBytes = 64 << 10;

}  // namespace

// CosineSimilarity routes through the dispatched kernels (vectordb/kernels.h).
// The kernels' lane-equivalent reduction contract makes the result
// bit-identical across scalar/AVX2/NEON, so similarity-threshold decisions
// (semantic cache, cascade gating) do not depend on the host ISA.

float CosineSimilarity(const Vector& a, const Vector& b) {
  size_t n = std::min(a.size(), b.size());
  float dot = vectordb::kernels::Dot(a.data(), b.data(), n);
  float na = vectordb::kernels::Dot(a.data(), a.data(), a.size());
  float nb = vectordb::kernels::Dot(b.data(), b.data(), b.size());
  if (na == 0 || nb == 0) return 0;
  return dot / (std::sqrt(na) * std::sqrt(nb));
}

void L2Normalize(Vector* v) {
  float norm = 0;
  for (float x : *v) norm += x * x;
  if (norm == 0) return;
  norm = std::sqrt(norm);
  for (float& x : *v) x /= norm;
}

Vector HashingEmbedder::Embed(std::string_view text) const {
  Vector v;
  EmbedInto(text, &v);
  return v;
}

void HashingEmbedder::EmbedInto(std::string_view text, Vector* out) const {
  out->resize(options_.dimension);
  EmbedInto(text, out->data());
}

void HashingEmbedder::EmbedInto(std::string_view text, float* out) const {
  float* const v = out;
  std::fill_n(v, options_.dimension, 0.0f);
  auto bucket_add = [&](uint64_t h, float weight) {
    size_t bucket = h % options_.dimension;
    // One independent bit decides the sign so that colliding features cancel
    // rather than pile up (standard signed feature hashing).
    float sign = ((h >> 61) & 1) ? 1.0f : -1.0f;
    v[bucket] += sign * weight;
  };

  // Fold once: '^' + lower(text) + '$' (what CharNgrams materializes) goes
  // into a per-thread buffer that keeps its capacity, so every feature below
  // reads folded bytes instead of calling std::tolower per window byte, and
  // the steady state allocates nothing.
  thread_local std::string padded;
  thread_local std::vector<uint64_t> gram4;
  padded.resize(text.size() + 2);
  padded.front() = '^';
  for (size_t i = 0; i < text.size(); ++i) {
    padded[i + 1] = static_cast<char>(
        std::tolower(static_cast<unsigned char>(text[i])));
  }
  padded.back() = '$';
  const auto* folded = reinterpret_cast<const unsigned char*>(padded.data());

  // Word features: hash-equivalent to Fnv1a("w:" + lowercased_piece, seed)
  // by seeding with the "w:" prefix and extending with the piece's folded
  // bytes — no per-feature string is ever built. Feature order (all word
  // pieces, then 3-grams, then 4-grams) matches the accumulation order the
  // seed implementation used, so the float sums are bit-identical.
  const uint64_t word_seed = common::Fnv1a("w:", options_.seed);
  text::Tokenizer().VisitTokens(text, [&](std::string_view piece,
                                          bool /*is_word*/) {
    // Pieces are views into `text`; the same bytes sit one past their
    // offset in the padded buffer.
    const unsigned char* p = folded + 1 + (piece.data() - text.data());
    uint64_t h = word_seed;
    for (size_t k = 0; k < piece.size(); ++k) h = common::Fnv1aByte(h, p[k]);
    bucket_add(h, options_.word_weight);
  });

  // Character n-grams over the padded buffer, window by window. FNV-1a is
  // byte-sequential, so the 4-gram at i is one step past the 3-gram at i.
  // The 4-grams are applied after every 3-gram, the order the float sums
  // depend on.
  const uint64_t gram_seed = common::Fnv1a("g:", options_.seed);
  const size_t padded_len = padded.size();
  gram4.clear();
  for (size_t i = 0; i + 3 <= padded_len; ++i) {
    uint64_t h = common::Fnv1aByte(gram_seed, folded[i]);
    h = common::Fnv1aByte(h, folded[i + 1]);
    h = common::Fnv1aByte(h, folded[i + 2]);
    bucket_add(h, 1.0f);
    if (i + 4 <= padded_len) {
      gram4.push_back(common::Fnv1aByte(h, folded[i + 3]));
    }
  }
  for (uint64_t h : gram4) bucket_add(h, 1.0f);
  // A rare huge input (a wire frame may carry megabytes) must not pin its
  // scratch on this thread for good.
  if (padded.capacity() > kMaxKeptScratchBytes) {
    std::string().swap(padded);
    std::vector<uint64_t>().swap(gram4);
  }
  // Normalize in place with the same sequential accumulation L2Normalize
  // performs, so this path stays bit-identical to Embed().
  float norm = 0;
  for (size_t i = 0; i < options_.dimension; ++i) norm += v[i] * v[i];
  if (norm == 0) return;
  norm = std::sqrt(norm);
  for (size_t i = 0; i < options_.dimension; ++i) v[i] /= norm;
}

float HashingEmbedder::Similarity(std::string_view a, std::string_view b) const {
  return CosineSimilarity(Embed(a), Embed(b));
}

}  // namespace llmdm::embed
