#ifndef LLMDM_DATA_TABULAR_GEN_H_
#define LLMDM_DATA_TABULAR_GEN_H_

#include <string>
#include <vector>

#include "common/rng.h"
#include "data/table.h"

namespace llmdm::data {

/// Synthetic healthcare-style tabular data (the paper's running domain for
/// transformation, labeling and privacy: Secs. II-B, III-B.1, III-D).
/// The label ("has_heart_disease") is a noisy logistic function of the
/// features, so ICL-style nearest-neighbour labeling and DP-SGD training
/// both have real signal to find.
struct PatientDataOptions {
  size_t num_rows = 200;
};

Table GeneratePatientTable(const PatientDataOptions& options,
                           common::Rng& rng);

/// Blanks out `fraction` of the values in `column` (sets them to NULL);
/// returns the indices of the blanked rows. Used by the missing-field
/// annotation experiments.
std::vector<size_t> InjectMissing(Table* table, const std::string& column,
                                  double fraction, common::Rng& rng);

/// A "dirty" textual rendering of an entity: abbreviations, case damage,
/// token swaps and typos, controlled by `severity` in [0,1]. Used to build
/// entity-resolution workloads where the matcher has to look through noise.
std::string PerturbEntityText(const std::string& text, double severity,
                              common::Rng& rng);

/// One entity-resolution pair: two descriptions plus the gold verdict.
struct ErPair {
  std::string left;
  std::string right;
  bool is_match = false;
};

/// Generates an ER workload over synthetic product entities: matches are
/// dirty variants of the same product, non-matches are distinct products
/// (including hard negatives from the same brand).
std::vector<ErPair> GenerateErWorkload(size_t num_pairs, double dirt,
                                       common::Rng& rng);

/// Column-type-annotation example: a set of cell values and the gold type
/// label, mirroring the paper's CTA prompt (country/person/date/...).
struct CtaExample {
  std::vector<std::string> values;
  std::string label;
};

std::vector<CtaExample> GenerateCtaWorkload(size_t num_examples,
                                            common::Rng& rng);

/// The label vocabulary used by GenerateCtaWorkload.
std::vector<std::string> CtaLabels();

/// label -> known values of that type. This doubles as the simulated LLM's
/// "world knowledge" for column type annotation (a hosted LLM knows that
/// "Basketball" is a sport from pre-training; the simulator knows it from
/// this gazetteer).
const std::vector<std::pair<std::string, std::vector<std::string>>>&
CtaGazetteer();

}  // namespace llmdm::data

#endif  // LLMDM_DATA_TABULAR_GEN_H_
