#ifndef LLMDM_CORE_PRIVACY_FEDERATED_H_
#define LLMDM_CORE_PRIVACY_FEDERATED_H_

#include <string>
#include <vector>

#include "common/result.h"
#include "common/rng.h"
#include "ml/logistic.h"

namespace llmdm::privacy {

/// One federated client: its private shard and local training configuration.
struct FederatedClient {
  std::string name;
  ml::Dataset shard;
  size_t local_epochs = 2;
};

/// Federated averaging trainer (Sec. III-D's data-collaboration path):
/// clients train locally on private shards; only parameters travel; the
/// server averages them (weighted by shard size). Optional per-round
/// adaptive client weighting down-weights clients whose updates diverge from
/// the consensus — the "RL technique to adjust FL strategies" knob in its
/// simplest effective form.
class FederatedTrainer {
 public:
  struct Options {
    size_t rounds = 10;
    bool adaptive_weighting = false;
    uint64_t seed = 5;
  };

  explicit FederatedTrainer(const Options& options) : options_(options) {}

  struct RoundStats {
    size_t round = 0;
    double global_accuracy = 0.0;  // on `evaluation`
  };

  struct Report {
    ml::LogisticRegression global_model;
    std::vector<RoundStats> rounds;
    double final_accuracy = 0.0;
  };

  common::Result<Report> Train(const std::vector<FederatedClient>& clients,
                               const ml::Dataset& evaluation) const;

 private:
  Options options_;
};

/// Splits a dataset into `num_clients` heterogeneous shards: each client's
/// label distribution is skewed by `heterogeneity` in [0,1] (0 = IID).
std::vector<FederatedClient> MakeHeterogeneousClients(
    const ml::Dataset& dataset, size_t num_clients, double heterogeneity,
    common::Rng& rng);

}  // namespace llmdm::privacy

#endif  // LLMDM_CORE_PRIVACY_FEDERATED_H_
