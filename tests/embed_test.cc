#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/hash.h"
#include "common/string_util.h"
#include "embed/embedder.h"
#include "text/tokenizer.h"

namespace llmdm::embed {
namespace {

TEST(Tokenizer, SplitsWordsAndPunct) {
  text::Tokenizer tok;
  auto pieces = tok.Tokenize("SELECT name, id FROM t;");
  EXPECT_EQ(pieces, (std::vector<std::string>{"SELECT", "name", ",", "id",
                                              "FROM", "t", ";"}));
}

TEST(Tokenizer, ChunksLongWords) {
  text::Tokenizer tok;
  auto pieces = tok.Tokenize("internationalization");
  EXPECT_GT(pieces.size(), 2u);
  std::string joined;
  for (const auto& p : pieces) joined += p;
  EXPECT_EQ(joined, "internationalization");
}

TEST(Tokenizer, CountMatchesTokenize) {
  text::Tokenizer tok;
  const char* samples[] = {
      "", "hello world", "a,b,,c", "the quick brown fox jumps over 42 dogs!",
      "SELECT COUNT(*) FROM stadium WHERE capacity > 50000",
  };
  for (const char* s : samples) {
    EXPECT_EQ(tok.CountTokens(s), tok.Tokenize(s).size()) << s;
  }
}

TEST(Tokenizer, CharNgrams) {
  auto grams = text::CharNgrams("ab", 3);
  // "^ab$" -> {"^ab", "ab$"}
  EXPECT_EQ(grams, (std::vector<std::string>{"^ab", "ab$"}));
}

// The seed implementation of Embed(), kept verbatim as a reference: word
// features via materialized lowercased tokens, n-gram features via
// materialized CharNgrams strings. EmbedInto() must reproduce its output
// bit for bit (same features, same accumulation order) while allocating
// none of those temporaries.
Vector ReferenceEmbed(std::string_view text,
                      const HashingEmbedder::Options& options) {
  Vector v(options.dimension, 0.0f);
  auto add_feature = [&](std::string_view feature, float weight) {
    uint64_t h = common::Fnv1a(feature, options.seed);
    size_t bucket = h % options.dimension;
    float sign = ((h >> 61) & 1) ? 1.0f : -1.0f;
    v[bucket] += sign * weight;
  };
  for (const std::string& token : text::Tokenizer().Tokenize(text)) {
    add_feature("w:" + common::ToLower(token), options.word_weight);
  }
  for (size_t n : {3u, 4u}) {
    for (const std::string& gram : text::CharNgrams(text, n)) {
      add_feature("g:" + gram, 1.0f);
    }
  }
  L2Normalize(&v);
  return v;
}

TEST(Embedder, EmbedIntoBitIdenticalToReference) {
  std::vector<std::string> samples = {
      "",
      "a",
      "ab",
      "abc",
      "AbCd",
      "hello world",
      "MiXeD CaSe QuErY with PUNCTUATION!?; and_underscores",
      "internationalization of disproportionately long tokens",
      "SELECT COUNT(*) FROM stadium WHERE capacity > 50000;",
      "What are the names of stadiums that had concerts in 2014?",
      "  leading and trailing whitespace   ",
      "tabs\tand\nnewlines\r\nmixed",
      "numbers 1234567890123 and s1mb0l1c_w0rds",
      // Case flips at every byte, so every 3- and 4-gram window straddles
      // a change.
      "aBcDeFgHiJkLmNoPqRsTuVwXyZ AbCdEfGhIjKlMnOpQrStUvWxYz",
      "ABCdefGHIjklMNOpqr stuVWXyz",
      // Bytes >= 0x80 (UTF-8 and stray high bytes), next to folded ASCII.
      "Caf\xc3\xa9 NA\xc3\x8fVE \xff\x80\xfe\xc0 X\xe2\x82\xacY",
      "\x80",
      "\xff\xfe" "AB",  // split: 'A' and 'B' are hex digits
  };
  // Long samples: 3,000 bytes with every byte class, and one past the
  // embedder's per-thread scratch cap, so the buffer is released and
  // regrown between samples.
  const std::string chunk =
      "The Quick BROWN fox, 42 Jumps_over; \xc3\xa9\xff ";
  std::string long_text;
  while (long_text.size() < 3000) long_text += chunk;
  long_text.resize(3000);
  samples.push_back(long_text);
  std::string huge_text;
  while (huge_text.size() < 70000) huge_text += chunk;
  samples.push_back(huge_text);
  // Dim 100 is not a power of two. Its word weight is not a short binary
  // fraction, so partial bucket sums round and a change in feature order
  // shows: with weights 1, 1.5 and 2 every partial sum is exact.
  for (auto& options :
       {HashingEmbedder::Options{}, HashingEmbedder::Options{64, 1.5f, 99},
        HashingEmbedder::Options{100, 0.3f, 7}}) {
    HashingEmbedder e(options);
    for (const std::string& s : samples) {
      const std::string label =
          "dim=" + std::to_string(options.dimension) +
          " len=" + std::to_string(s.size()) + " text=" + s.substr(0, 40);
      Vector expected = ReferenceEmbed(s, options);
      Vector via_embed = e.Embed(s);
      Vector reused;
      e.EmbedInto(s, &reused);
      EXPECT_EQ(via_embed, expected) << label;  // exact float equality
      EXPECT_EQ(reused, expected) << label;
      // The buffer really is reused: embedding again into the same vector
      // (now non-empty, wrong values) must fully overwrite it.
      e.EmbedInto("something else entirely", &reused);
      e.EmbedInto(s, &reused);
      EXPECT_EQ(reused, expected) << label;
    }
  }
}

TEST(Embedder, DeterministicAndNormalized) {
  HashingEmbedder e;
  Vector a = e.Embed("hello world");
  Vector b = e.Embed("hello world");
  EXPECT_EQ(a, b);
  float norm = 0;
  for (float x : a) norm += x * x;
  EXPECT_NEAR(norm, 1.0f, 1e-4f);
}

TEST(Embedder, SelfSimilarityIsOne) {
  HashingEmbedder e;
  EXPECT_NEAR(e.Similarity("some query text", "some query text"), 1.0f, 1e-5f);
}

TEST(Embedder, ParaphraseCloserThanUnrelated) {
  HashingEmbedder e;
  std::string base = "Show the names of stadiums that had concerts in 2014";
  std::string paraphrase =
      "What are the names of stadiums that had concerts in 2014?";
  std::string unrelated = "The patient was prescribed antibiotics for fever";
  EXPECT_GT(e.Similarity(base, paraphrase), 0.75f);
  EXPECT_LT(e.Similarity(base, unrelated), 0.35f);
  EXPECT_GT(e.Similarity(base, paraphrase), e.Similarity(base, unrelated));
}

TEST(Embedder, DifferentSeedsDifferentSpaces) {
  HashingEmbedder::Options o1, o2;
  o2.seed = 12345;
  HashingEmbedder e1(o1), e2(o2);
  Vector a = e1.Embed("query");
  Vector b = e2.Embed("query");
  EXPECT_LT(CosineSimilarity(a, b), 0.9f);
}

TEST(Distances, BasicIdentities) {
  Vector a{1, 0, 0}, b{0, 1, 0};
  EXPECT_FLOAT_EQ(CosineSimilarity(a, a), 1.0f);
  EXPECT_FLOAT_EQ(CosineSimilarity(a, b), 0.0f);
  Vector z{0, 0, 0};
  EXPECT_FLOAT_EQ(CosineSimilarity(a, z), 0.0f);
}

TEST(Distances, Normalize) {
  Vector v{3, 4};
  L2Normalize(&v);
  EXPECT_FLOAT_EQ(v[0], 0.6f);
  EXPECT_FLOAT_EQ(v[1], 0.8f);
  Vector z{0, 0};
  L2Normalize(&z);  // must not divide by zero
  EXPECT_FLOAT_EQ(z[0], 0.0f);
}

}  // namespace
}  // namespace llmdm::embed
