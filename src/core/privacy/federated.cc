#include "core/privacy/federated.h"

#include <algorithm>
#include <cmath>

#include "common/string_util.h"

namespace llmdm::privacy {

common::Result<FederatedTrainer::Report> FederatedTrainer::Train(
    const std::vector<FederatedClient>& clients,
    const ml::Dataset& evaluation) const {
  if (clients.empty()) {
    return common::Status::InvalidArgument("no federated clients");
  }
  Report report;
  ml::LogisticRegression global;
  size_t dim = clients[0].shard.dim();
  global.SetParameters(std::vector<double>(dim, 0.0), 0.0);

  for (size_t round = 0; round < options_.rounds; ++round) {
    std::vector<ml::LogisticRegression> locals;
    std::vector<size_t> sizes;
    for (const FederatedClient& client : clients) {
      // Local training warm-started from the global parameters: continue GD
      // from the server state (the FedAvg local step).
      ml::LogisticRegression local = global;
      ml::LogisticRegression::TrainOptions opts;
      opts.epochs = client.local_epochs;
      opts.seed = options_.seed + round * 1000 +
                  static_cast<uint64_t>(sizes.size());
      // Train() resets parameters; emulate warm start by blending the fresh
      // local fit with the incoming global parameters.
      ml::LogisticRegression fresh;
      fresh.Train(client.shard, opts);
      std::vector<double> blended(dim);
      for (size_t d = 0; d < dim; ++d) {
        blended[d] = 0.5 * global.weights()[d] + 0.5 * fresh.weights()[d];
      }
      local.SetParameters(std::move(blended),
                          0.5 * global.bias() + 0.5 * fresh.bias());
      locals.push_back(std::move(local));
      sizes.push_back(client.shard.size());
    }

    if (options_.adaptive_weighting && locals.size() > 2) {
      // Down-weight divergent clients: weight by inverse distance to the
      // coordinate-wise median model.
      std::vector<double> median(dim, 0.0);
      for (size_t d = 0; d < dim; ++d) {
        std::vector<double> coords;
        for (const auto& m : locals) coords.push_back(m.weights()[d]);
        std::nth_element(coords.begin(), coords.begin() + coords.size() / 2,
                         coords.end());
        median[d] = coords[coords.size() / 2];
      }
      for (size_t i = 0; i < locals.size(); ++i) {
        double dist = 0;
        for (size_t d = 0; d < dim; ++d) {
          double delta = locals[i].weights()[d] - median[d];
          dist += delta * delta;
        }
        double weight = 1.0 / (1.0 + std::sqrt(dist));
        sizes[i] = std::max<size_t>(
            1, static_cast<size_t>(static_cast<double>(sizes[i]) * weight));
      }
    }
    global = ml::FederatedAverage(locals, sizes);
    RoundStats stats;
    stats.round = round;
    stats.global_accuracy = global.Accuracy(evaluation);
    report.rounds.push_back(stats);
  }
  report.final_accuracy = global.Accuracy(evaluation);
  report.global_model = std::move(global);
  return report;
}

std::vector<FederatedClient> MakeHeterogeneousClients(
    const ml::Dataset& dataset, size_t num_clients, double heterogeneity,
    common::Rng& rng) {
  std::vector<FederatedClient> clients(num_clients);
  for (size_t i = 0; i < num_clients; ++i) {
    clients[i].name = common::StrFormat("client_%zu", i);
    clients[i].shard.feature_names = dataset.feature_names;
  }
  for (size_t i = 0; i < dataset.size(); ++i) {
    size_t target;
    if (rng.Bernoulli(heterogeneity)) {
      // Skewed routing: label 1 concentrates on the first half of clients.
      size_t half = std::max<size_t>(1, num_clients / 2);
      target = dataset.labels[i] == 1 ? rng.NextBelow(half)
                                      : half + rng.NextBelow(num_clients - half);
    } else {
      target = rng.NextBelow(num_clients);
    }
    clients[target].shard.features.push_back(dataset.features[i]);
    clients[target].shard.labels.push_back(dataset.labels[i]);
  }
  return clients;
}

}  // namespace llmdm::privacy
