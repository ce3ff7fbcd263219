#include "src/bindings/cached_pb_binding.h"

#include "src/bindings/cache_refresh.h"

namespace icg {

InvocationPlan CachedPbBinding::PlanInvocation(const Operation& op, const LevelSet& levels) {
  InvocationPlan plan;
  switch (op.type) {
    case OpType::kGet:
      if (levels.Contains(ConsistencyLevel::kCache)) {
        // Cache view: resolves synchronously. A miss is reported as found=false at the
        // CACHE level so the caller still sees one view per requested level.
        plan.AddStep(ConsistencyLevel::kCache,
                     [cache = cache_](const Operation& get, LevelEmitter emit) {
                       emit(ConsistencyLevel::kCache, cache->Get(get.key).value_or(OpResult{}));
                     });
      }
      if (levels.Contains(ConsistencyLevel::kWeak)) {
        plan.AddStep(ConsistencyLevel::kWeak,
                     [client = client_](const Operation& get, LevelEmitter emit) {
                       client->ReadWeak(get.key, EmitAt(std::move(emit), ConsistencyLevel::kWeak));
                     });
      }
      if (levels.Contains(ConsistencyLevel::kStrong)) {
        plan.AddStep(ConsistencyLevel::kStrong,
                     [client = client_](const Operation& get, LevelEmitter emit) {
                       client->ReadStrong(get.key,
                                          EmitAt(std::move(emit), ConsistencyLevel::kStrong));
                     });
      }
      plan.refresh = CacheReadRefresh(cache_);
      return plan;
    case OpType::kPut:
      plan.AddStep(levels.strongest(), [client = client_, level = levels.strongest()](
                                           const Operation& put, LevelEmitter emit) {
        client->Write(put.key, put.value, EmitAt(std::move(emit), level));
      });
      // Write-through: the pipeline refreshes the cache only when the store acknowledges.
      plan.refresh = CacheWriteRefresh(cache_);
      return plan;
    default:
      return InvocationPlan::Rejected(
          Status::InvalidArgument("cached-pb binding supports key-value operations only"));
  }
}

}  // namespace icg
