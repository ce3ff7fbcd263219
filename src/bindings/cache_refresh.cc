#include "src/bindings/cache_refresh.h"

namespace icg {

RefreshHook CacheReadRefresh(ClientCache* cache) {
  return [cache](const Operation& op, const OpResult& result, ConsistencyLevel level) {
    if (level == ConsistencyLevel::kCache) {
      return;
    }
    if (op.type == OpType::kMultiGet) {
      // A batched read refreshes every key it covered, each under its own entry's
      // version: installing the batch-wide max would wedge the version-guarded cache
      // against later legitimate refreshes of slower keys.
      for (size_t i = 0; i < op.keys.size(); ++i) {
        if (result.entries[i].found) {
          cache->Refresh(op.keys[i], result.entries[i]);
        }
      }
      return;
    }
    if (!result.found) {
      return;
    }
    cache->Refresh(op.key, result);
  };
}

RefreshHook CacheWriteRefresh(ClientCache* cache) {
  return [cache](const Operation& op, const OpResult& ack, ConsistencyLevel) {
    if (op.type == OpType::kMultiPut) {
      // Entries applied in order: refresh in the same order, each under its own
      // acknowledged version, so a later write to the same key within the batch wins in
      // the cache exactly as it did in the store.
      for (size_t i = 0; i < op.keys.size() && i < op.values.size(); ++i) {
        OpResult cached;
        cached.found = true;
        cached.value = op.values[i];
        cached.version = ack.entries[i].version;
        cache->Refresh(op.keys[i], cached);
      }
      return;
    }
    OpResult cached;
    cached.found = true;
    cached.value = op.value;
    cached.version = ack.version;
    cache->Refresh(op.key, cached);
  };
}

OpResult CacheMultiLookup(ClientCache* cache, const std::vector<std::string>& keys) {
  return MultiLookup(keys, [cache](const std::string& key) { return cache->Get(key); });
}

}  // namespace icg
