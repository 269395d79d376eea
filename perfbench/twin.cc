#include <algorithm>

#include "common/hash.h"
#include "workloads.h"

namespace perfbench {

void SubmitToTwin(
    const std::shared_ptr<llmdm::llm::LlmModel>& model,
    const std::vector<llmdm::serve::Request>& requests,
    const std::function<void(const llmdm::serve::Response&)>& sink) {
  // A fresh twin per chunk: the server's admission bookkeeping grows with
  // every request it has seen, and the reference answers (text, model,
  // cost) depend on neither arrival time nor history.
  constexpr size_t kChunk = 4096;
  for (size_t begin = 0; begin < requests.size(); begin += kChunk) {
    llmdm::serve::Server::Options options;
    options.worker_threads = 2;
    options.shed_policy = llmdm::serve::ShedPolicy::kNone;
    options.retain_responses = false;
    options.response_sink = sink;
    llmdm::serve::Server twin(model, options);
    const size_t end = std::min(requests.size(), begin + kChunk);
    for (size_t i = begin; i < end; ++i) {
      llmdm::serve::Request r = requests[i];
      r.arrival_vms = 0.0;
      r.tenant.clear();
      twin.Submit(r);
    }
    twin.Drain();
  }
}

uint64_t MixOutcome(uint64_t id, uint64_t text_hash, uint64_t model_hash,
                    int64_t cost_micros) {
  uint64_t h = llmdm::common::HashCombine(id, text_hash);
  h = llmdm::common::HashCombine(h, model_hash);
  return llmdm::common::HashCombine(h, static_cast<uint64_t>(cost_micros));
}

}  // namespace perfbench
