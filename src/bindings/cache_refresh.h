// Write-through RefreshHook factories shared by the cache-backed bindings: keep a
// ClientCache coherent with every view the store surfaces (reads) or every acknowledged
// write. The invocation pipeline calls the hook once per successful full-value response;
// cache-level views are skipped (the cache does not need to learn its own answers).
//
// Lives in the bindings layer: it adapts the store-side ClientCache to the
// pipeline-side RefreshHook contract, and the stores must not depend upward on it.
#ifndef ICG_BINDINGS_CACHE_REFRESH_H_
#define ICG_BINDINGS_CACHE_REFRESH_H_

#include "src/correctables/binding.h"
#include "src/stores/causal_store.h"  // ClientCache

namespace icg {

// Both hooks understand the batched shapes too: a kMultiGet view (or kMultiPut ack)
// refreshes the cache entry by entry, so one batched round-trip leaves the cache exactly
// as coherent as the per-key requests it replaced.
RefreshHook CacheReadRefresh(ClientCache* cache);
RefreshHook CacheWriteRefresh(ClientCache* cache);

// The cache-level view of a batched read: one entry per key in request order (see
// MultiLookup).
OpResult CacheMultiLookup(ClientCache* cache, const std::vector<std::string>& keys);

}  // namespace icg

#endif  // ICG_BINDINGS_CACHE_REFRESH_H_
