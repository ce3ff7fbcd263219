// Binding over a causally consistent store complemented by a client-side cache (§5.2):
// invoke() reveals two views — one from cache (very fast, possibly stale) and one from
// the causally consistent store. Supports cache-bypassing (invokeStrong -> CAUSAL only)
// and direct cache access (invokeWeak -> CACHE only), e.g., for disconnected mobile
// operation. Coherence is write-through.
#ifndef ICG_BINDINGS_CACHED_CAUSAL_BINDING_H_
#define ICG_BINDINGS_CACHED_CAUSAL_BINDING_H_

#include <string>
#include <vector>

#include "src/correctables/binding.h"
#include "src/stores/causal_store.h"

namespace icg {

class CachedCausalBinding : public Binding {
 public:
  CachedCausalBinding(CausalClient* client, ClientCache* cache)
      : client_(client), cache_(cache) {}

  std::string Name() const override { return "cached-causal"; }

  std::vector<ConsistencyLevel> SupportedLevels() const override {
    return {ConsistencyLevel::kCache, ConsistencyLevel::kCausal};
  }

  // Plans single-key operations only, so with a batch window open this binding's reads
  // and writes still take the pipeline's same-tick path.
  InvocationPlan PlanInvocation(const Operation& op, const LevelSet& levels) override;

  // Disconnected operation: reads resolve from cache only; writes fail fast.
  void SetDisconnected(bool disconnected) { disconnected_ = disconnected; }

 private:
  CausalClient* client_;
  ClientCache* cache_;
  bool disconnected_ = false;
};

}  // namespace icg

#endif  // ICG_BINDINGS_CACHED_CAUSAL_BINDING_H_
