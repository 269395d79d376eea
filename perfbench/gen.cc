#include "gen.h"

#include <algorithm>
#include <cctype>
#include <sstream>

namespace perfbench {

namespace {

constexpr const char* kOnsets[] = {"b", "d", "f", "g", "k", "l", "m", "n",
                                   "p", "r", "s", "t", "v", "z", "h", "j"};
constexpr const char* kVowels[] = {"a", "e", "i", "o", "u"};

std::vector<std::string> SplitWords(const std::string& text) {
  std::vector<std::string> words;
  std::istringstream in(text);
  for (std::string w; in >> w;) words.push_back(w);
  return words;
}

std::string JoinWords(const std::vector<std::string>& words) {
  std::string out;
  for (const std::string& w : words) {
    if (!out.empty()) out += ' ';
    out += w;
  }
  return out;
}

}  // namespace

std::vector<std::string> MakeVocab(llmdm::common::Rng& rng, size_t n,
                                   std::unordered_set<std::string>* used) {
  std::vector<std::string> vocab;
  vocab.reserve(n);
  while (vocab.size() < n) {
    std::string word;
    const int64_t syllables = rng.UniformInt(2, 3);
    for (int64_t s = 0; s < syllables; ++s) {
      word += kOnsets[rng.NextBelow(std::size(kOnsets))];
      word += kVowels[rng.NextBelow(std::size(kVowels))];
    }
    if (used->insert(word).second) vocab.push_back(std::move(word));
  }
  return vocab;
}

std::string Sentence(llmdm::common::Rng& rng,
                     const std::vector<std::string>& vocab, size_t min_words,
                     size_t max_words) {
  const int64_t words = rng.UniformInt(static_cast<int64_t>(min_words),
                                       static_cast<int64_t>(max_words));
  std::string out;
  for (int64_t i = 0; i < words; ++i) {
    if (i > 0) out += ' ';
    out += rng.Choice(vocab);
  }
  return out;
}

std::string Paraphrase(llmdm::common::Rng& rng, const std::string& source,
                       const llmdm::embed::HashingEmbedder& embedder,
                       double min_similarity) {
  std::vector<std::string> words = SplitWords(source);
  for (int attempt = 0; attempt < 4 && words.size() >= 2; ++attempt) {
    std::vector<std::string> edited = words;
    const size_t i = rng.NextBelow(edited.size() - 1);
    std::swap(edited[i], edited[i + 1]);
    std::string candidate = JoinWords(edited);
    if (candidate != source &&
        embedder.Similarity(candidate, source) >= min_similarity) {
      return candidate;
    }
  }
  // Upper-casing a word keeps the token count and the (case-folded)
  // embedding, so the result is always a distinct text with similarity 1.
  std::vector<std::string> edited = words;
  std::string& w = edited[edited.size() - 1];
  for (char& c : w) c = static_cast<char>(std::toupper(static_cast<unsigned char>(c)));
  return JoinWords(edited);
}

}  // namespace perfbench
