#ifndef LLMDM_DATA_QA_WORKLOAD_H_
#define LLMDM_DATA_QA_WORKLOAD_H_

#include <map>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/rng.h"

namespace llmdm::data {

/// A functional fact graph: relation(subject) = object, over generated person
/// entities. Multi-hop questions compose relations, mirroring HotpotQA's
/// multi-hop structure (the Table I workload substitution — see DESIGN.md).
class KnowledgeBase {
 public:
  /// Generates a knowledge base with `num_entities` people and a fixed
  /// relation vocabulary (advisor, manager, coauthor, mentor, neighbor).
  /// Every relation is total and functional so that chain questions have a
  /// unique gold answer.
  static KnowledgeBase Generate(size_t num_entities, common::Rng& rng);

  const std::vector<std::string>& entities() const { return entities_; }
  const std::vector<std::string>& relations() const { return relations_; }

  /// relation(subject), e.g. Lookup("advisor", "Alice Adams").
  common::Result<std::string> Lookup(const std::string& relation,
                                     const std::string& subject) const;

  /// Follows a chain: AnswerChain({"manager","advisor"}, "Alice") =
  /// manager(advisor(Alice)). The chain is applied right-to-left, matching
  /// the phrasing "the manager of the advisor of Alice".
  common::Result<std::string> AnswerChain(
      const std::vector<std::string>& chain, const std::string& subject) const;

  /// All facts rendered one per line ("The advisor of X is Y.") — the
  /// context corpus a retrieval-augmented answerer would consume.
  std::string Describe() const;

 private:
  std::vector<std::string> entities_;
  std::vector<std::string> relations_;
  // (relation, subject) -> object
  std::map<std::pair<std::string, std::string>, std::string> facts_;
};

/// One QA benchmark item.
struct QaItem {
  std::string question;
  std::string answer;
  int hops = 1;  // difficulty proxy: 1..3
};

/// Renders the canonical question for a relation chain, e.g.
/// {"manager","advisor"} + "Alice" -> "Who is the manager of the advisor of
/// Alice?".
std::string RenderChainQuestion(const std::vector<std::string>& chain,
                                const std::string& subject);

/// Parses a chain question back into (chain, subject); inverse of
/// RenderChainQuestion. This is how the simulated QA skill "understands" the
/// question.
common::Result<std::pair<std::vector<std::string>, std::string>>
ParseChainQuestion(const std::string& question);

/// Generates `n` questions over `kb` with hop counts drawn from
/// `hop_weights` (index i = weight of (i+1)-hop questions).
std::vector<QaItem> GenerateQaWorkload(const KnowledgeBase& kb, size_t n,
                                       const std::vector<double>& hop_weights,
                                       common::Rng& rng);

}  // namespace llmdm::data

#endif  // LLMDM_DATA_QA_WORKLOAD_H_
