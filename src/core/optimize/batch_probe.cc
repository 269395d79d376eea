#include "core/optimize/batch_probe.h"

#include <optional>
#include <utility>
#include <vector>

#include "common/money.h"
#include "core/optimize/semantic_cache.h"
#include "llm/prompt.h"

namespace llmdm::optimize {

serve::BatchCacheProbe MakeBatchCacheProbe(SemanticCache* cache,
                                           llm::ModelSpec spec) {
  return [cache, spec = std::move(spec)](
             const std::vector<const serve::Request*>& batch)
             -> std::vector<serve::BatchProbeOutcome> {
    std::vector<serve::BatchProbeOutcome> out(batch.size());
    for (size_t i = 0; i < batch.size(); ++i) {
      const serve::Request& req = *batch[i];
      // The avoided input cost of a hit, priced exactly as CachedLlm's
      // per-call probe prices it — so the savings ledger doesn't depend on
      // whether a request went through the batched or the per-call path.
      const size_t input_tokens =
          llm::MakePrompt(req.skill, req.input).CountInputTokens();
      std::optional<SemanticCache::Hit> hit =
          cache->Lookup(req.input,
                        llm::PriceTokens(spec.input_price_per_1k, input_tokens),
                        spec.output_price_per_1k);
      if (!hit.has_value()) continue;
      out[i].hit = true;
      out[i].response = std::move(hit->response);
      out[i].model = spec.name + "+cache";
    }
    return out;
  };
}

}  // namespace llmdm::optimize
