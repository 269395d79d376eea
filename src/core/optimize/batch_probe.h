#ifndef LLMDM_CORE_OPTIMIZE_BATCH_PROBE_H_
#define LLMDM_CORE_OPTIMIZE_BATCH_PROBE_H_

#include "llm/model.h"
#include "serve/server.h"

namespace llmdm::optimize {

class SemanticCache;

/// Builds a serve::BatchCacheProbe over `cache`: one SubmitBatch worth of
/// requests is looked up with SemanticCache::Lookup, one request at a time
/// in arrival order, before any of them is admitted. Hit responses are
/// labeled `spec.name + "+cache"` and the cache's savings ledger is
/// credited with the avoided input cost priced from `spec`, mirroring what
/// CachedLlm::Complete books on a hit.
///
/// The cache must outlive the returned callable (which the Server stores in
/// its Options). This lives in optimize/ rather than serve/ so the server
/// keeps no dependency on the caching layer: it only ever sees the
/// std::function.
///
/// `price_at_cached_tier`: credit each hit's avoided input spend at
/// `spec.cached_input_price_per_1k` instead of list. Set this when the
/// server runs with continuous batching on — the call a hit avoided would
/// have ridden a batch, and an exact-duplicate prompt in a batch bills its
/// whole input at the cached tier, so crediting list price would overstate
/// the savings. Defaults off, preserving the historical (list-price)
/// ledger for unbatched deployments.
serve::BatchCacheProbe MakeBatchCacheProbe(SemanticCache* cache,
                                           llm::ModelSpec spec,
                                           bool price_at_cached_tier = false);

}  // namespace llmdm::optimize

#endif  // LLMDM_CORE_OPTIMIZE_BATCH_PROBE_H_
