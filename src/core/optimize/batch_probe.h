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
/// credited with the avoided input cost at `spec`'s list input price,
/// mirroring what CachedLlm::Complete books on a hit.
///
/// The cache must outlive the returned callable (which the Server stores in
/// its Options). This lives in optimize/ rather than serve/ so the server
/// keeps no dependency on the caching layer: it only ever sees the
/// std::function.
serve::BatchCacheProbe MakeBatchCacheProbe(SemanticCache* cache,
                                           llm::ModelSpec spec);

}  // namespace llmdm::optimize

#endif  // LLMDM_CORE_OPTIMIZE_BATCH_PROBE_H_
