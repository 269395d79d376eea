#ifndef LLMDM_LLM_SKILLS_H_
#define LLMDM_LLM_SKILLS_H_

#include <memory>
#include <string>
#include <string_view>

#include "common/result.h"
#include "common/rng.h"
#include "data/nl2sql_workload.h"
#include "data/qa_workload.h"
#include "data/txn_workload.h"
#include "llm/prompt.h"

namespace llmdm::llm {

/// Per-call execution context handed to a skill: which model tier is
/// "thinking" and a deterministic noise stream derived from
/// (prompt, model, sample_salt) — the same prompt to the same model with the
/// same salt always behaves identically, while different salts are
/// independent draws (simulated temperature sampling).
struct SkillContext {
  double capability = 0.5;
  common::Rng* rng = nullptr;
};

/// A skill's answer: the text plus the model's self-estimated confidence.
struct SkillOutput {
  std::string text;
  double confidence = 0.5;
};

/// Maps (capability, difficulty) to the probability the simulated model gets
/// the task right: a logistic curve in (capability - difficulty). This single
/// function is the entire "model quality" assumption of the reproduction —
/// bigger models win, hard tasks lose, smoothly.
double CorrectnessProbability(double capability, double difficulty);

/// A task competence of the simulated LLM. Skills implement genuine task
/// logic (graph walks, SQL translation, nearest-neighbour ICL) and then
/// corrupt their own output with probability 1 - CorrectnessProbability.
class Skill {
 public:
  virtual ~Skill() = default;
  virtual std::string_view tag() const = 0;
  virtual common::Result<SkillOutput> Run(const Prompt& prompt,
                                          SkillContext& ctx) = 0;
};

/// "qa": multi-hop question answering over a KnowledgeBase. Difficulty grows
/// with hop count. Wrong answers are plausible entities, not garbage —
/// exactly the failure mode that makes cascade decision models necessary.
class QaSkill : public Skill {
 public:
  /// `kb` must outlive the skill.
  explicit QaSkill(const data::KnowledgeBase* kb) : kb_(kb) {}

  std::string_view tag() const override { return "qa"; }
  common::Result<SkillOutput> Run(const Prompt& prompt,
                                  SkillContext& ctx) override;

 private:
  const data::KnowledgeBase* kb_;
};

/// "nl2sql": translates the stadium-family NL questions into SQL. Difficulty
/// grows with the number of conditions and superlatives; relevant few-shot
/// examples lower it (which is why decomposition + good examples wins in
/// Table II). Corruptions produce executable-but-wrong or syntactically
/// broken SQL.
class Nl2SqlSkill : public Skill {
 public:
  std::string_view tag() const override { return "nl2sql"; }
  common::Result<SkillOutput> Run(const Prompt& prompt,
                                  SkillContext& ctx) override;
};

/// "nl2txn": translates a multi-transfer payment request into the SQL
/// statement sequence of a transaction (Sec. II-B.1 NL2Transaction).
/// Output: statements joined by ";\n". Corruptions drop a statement or
/// damage an amount — exactly the failures atomic execution must catch.
class Nl2TxnSkill : public Skill {
 public:
  std::string_view tag() const override { return "nl2txn"; }
  common::Result<SkillOutput> Run(const Prompt& prompt,
                                  SkillContext& ctx) override;
};

/// "tabular_predict": in-context learning over serialized rows
/// ("age is 63; bmi is 31.2; ..."): k-nearest-neighbour regression /
/// classification against the prompt's examples. More examples = easier.
class TabularPredictSkill : public Skill {
 public:
  std::string_view tag() const override { return "tabular_predict"; }
  common::Result<SkillOutput> Run(const Prompt& prompt,
                                  SkillContext& ctx) override;
};

/// "tabular_generate": synthesizes a new serialized row mimicking the
/// marginal distributions of the examples (numeric: fitted normal;
/// categorical: frequency draw). Low capability = sloppier fit.
class TabularGenerateSkill : public Skill {
 public:
  std::string_view tag() const override { return "tabular_generate"; }
  common::Result<SkillOutput> Run(const Prompt& prompt,
                                  SkillContext& ctx) override;
};

/// "match": generic semantic matching — input "A ||| B", output "yes"/"no".
/// Serves entity resolution and schema matching (Sec. II-C.1). The skill
/// computes a real string/token similarity and decides; pairs near the
/// decision boundary are hard (small models flip on them), obvious pairs are
/// easy — the accuracy structure ER benchmarks actually show.
class MatchSkill : public Skill {
 public:
  std::string_view tag() const override { return "match"; }
  common::Result<SkillOutput> Run(const Prompt& prompt,
                                  SkillContext& ctx) override;
};

/// "cta": column type annotation (Sec. II-C.1's exact prompt pattern).
/// Input: "v1||v2||v3"; few-shot examples carry the label vocabulary. The
/// skill's world knowledge is the CtaGazetteer; difficulty rises when the
/// values are ambiguous or absent from it.
class CtaSkill : public Skill {
 public:
  std::string_view tag() const override { return "cta"; }
  common::Result<SkillOutput> Run(const Prompt& prompt,
                                  SkillContext& ctx) override;
};

/// "sql2nl": renders an aggregate SQL query + its result as a natural
/// language sentence (the table-understanding helper of Sec. II-C.2).
/// Input format: "<sql>\n=> <value>".
class Sql2NlSkill : public Skill {
 public:
  std::string_view tag() const override { return "sql2nl"; }
  common::Result<SkillOutput> Run(const Prompt& prompt,
                                  SkillContext& ctx) override;
};

/// "freeform": deterministic fallback for glue prompts; echoes a summary.
class FreeformSkill : public Skill {
 public:
  std::string_view tag() const override { return "freeform"; }
  common::Result<SkillOutput> Run(const Prompt& prompt,
                                  SkillContext& ctx) override;
};

}  // namespace llmdm::llm

#endif  // LLMDM_LLM_SKILLS_H_
