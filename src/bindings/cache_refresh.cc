#include "src/bindings/cache_refresh.h"

namespace icg {

RefreshHook CacheReadRefresh(ClientCache* cache) {
  return [cache](const Operation& op, const OpResult& result, ConsistencyLevel level) {
    if (level == ConsistencyLevel::kCache || !result.found) {
      return;
    }
    cache->Refresh(op.key, result);
  };
}

RefreshHook CacheWriteRefresh(ClientCache* cache) {
  return [cache](const Operation& op, const OpResult& ack, ConsistencyLevel) {
    OpResult cached;
    cached.found = true;
    cached.value = op.value;
    cached.version = ack.version;
    cache->Refresh(op.key, cached);
  };
}

}  // namespace icg
