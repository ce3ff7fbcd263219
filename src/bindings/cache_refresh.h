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

// Single-key hooks: a kGet view refreshes its key, a kPut ack installs the written value
// under the acknowledged version. The cache-backed bindings plan no batched operations.
RefreshHook CacheReadRefresh(ClientCache* cache);
RefreshHook CacheWriteRefresh(ClientCache* cache);

}  // namespace icg

#endif  // ICG_BINDINGS_CACHE_REFRESH_H_
