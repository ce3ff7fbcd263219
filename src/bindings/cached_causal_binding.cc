#include "src/bindings/cached_causal_binding.h"

#include "src/bindings/cache_refresh.h"

namespace icg {

InvocationPlan CachedCausalBinding::PlanInvocation(const Operation& op,
                                                   const LevelSet& levels) {
  InvocationPlan plan;
  switch (op.type) {
    case OpType::kGet:
      if (levels.Contains(ConsistencyLevel::kCache)) {
        plan.AddStep(ConsistencyLevel::kCache,
                     [cache = cache_](const Operation& get, LevelEmitter emit) {
                       emit(ConsistencyLevel::kCache, cache->Get(get.key).value_or(OpResult{}));
                     });
      }
      if (levels.Contains(ConsistencyLevel::kCausal)) {
        if (disconnected_) {
          plan.AddStep(ConsistencyLevel::kCausal, [](const Operation&, LevelEmitter emit) {
            emit(ConsistencyLevel::kCausal,
                 Status::Unavailable("disconnected: causal store unreachable"));
          });
        } else {
          plan.AddStep(ConsistencyLevel::kCausal,
                       [client = client_](const Operation& get, LevelEmitter emit) {
                         client->Read(get.key,
                                      EmitAt(std::move(emit), ConsistencyLevel::kCausal));
                       });
        }
      }
      plan.refresh = CacheReadRefresh(cache_);
      return plan;
    case OpType::kPut:
      if (disconnected_) {
        return InvocationPlan::Rejected(
            Status::Unavailable("disconnected: causal store unreachable"));
      }
      plan.AddStep(levels.strongest(), [client = client_, level = levels.strongest()](
                                           const Operation& put, LevelEmitter emit) {
        client->Write(put.key, put.value, EmitAt(std::move(emit), level));
      });
      plan.refresh = CacheWriteRefresh(cache_);
      return plan;
    default:
      return InvocationPlan::Rejected(
          Status::InvalidArgument("cached-causal binding supports key-value operations only"));
  }
}

}  // namespace icg
