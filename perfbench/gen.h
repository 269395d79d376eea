// Seeded text for the two wire workloads. Every prompt they send is a pure
// function of --seed; the program under test only ever sees the generated
// text. (batch_prefix draws its prompts from data::GenerateNl2SqlWorkload
// instead.) The stadium family cannot serve here: its questions differ by a
// year or an event word and embed at 0.93-0.975 similarity, so at the
// cache's default threshold (0.9) thousands of them would answer each
// other, and wire_unique must never hit.
#ifndef PERFBENCH_GEN_H_
#define PERFBENCH_GEN_H_

#include <cstdint>
#include <string>
#include <unordered_set>
#include <vector>

#include "common/rng.h"
#include "embed/embedder.h"

namespace perfbench {

/// Pronounceable random words of 2-3 syllables (4-6 letters, so each one is
/// a single tokenizer piece). `used` keeps vocabularies of different
/// request classes disjoint.
std::vector<std::string> MakeVocab(llmdm::common::Rng& rng, size_t n,
                                   std::unordered_set<std::string>* used);

/// `min_words`..`max_words` words drawn uniformly from `vocab`.
std::string Sentence(llmdm::common::Rng& rng,
                     const std::vector<std::string>& vocab, size_t min_words,
                     size_t max_words);

/// A different text whose embedding stays within `min_similarity` of
/// `source` under `embedder`: two adjacent words swapped, or, failing that,
/// the last word upper-cased (the case-folding embedder maps it to the same
/// vector).
std::string Paraphrase(llmdm::common::Rng& rng, const std::string& source,
                       const llmdm::embed::HashingEmbedder& embedder,
                       double min_similarity);

}  // namespace perfbench

#endif  // PERFBENCH_GEN_H_
