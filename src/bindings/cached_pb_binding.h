// Three-level binding for the smartphone news reader (§4.4, Listing 6): a local cache, a
// nearby backup, and a distant primary. One invoke() fans out into three actual requests:
//
//   CACHE  -> the client-side cache, resolving almost immediately;
//   WEAK   -> the closest backup replica, a fresher view;
//   STRONG -> the primary, the most up-to-date view, arriving last.
//
// Coherence is write-through: writes go to the primary and refresh the cache on ack;
// every read view also refreshes the cache, so the cache holds the freshest view seen.
#ifndef ICG_BINDINGS_CACHED_PB_BINDING_H_
#define ICG_BINDINGS_CACHED_PB_BINDING_H_

#include <string>
#include <vector>

#include "src/correctables/binding.h"
#include "src/stores/causal_store.h"  // ClientCache
#include "src/stores/pb_store.h"

namespace icg {

class CachedPbBinding : public Binding {
 public:
  CachedPbBinding(PbClient* client, ClientCache* cache) : client_(client), cache_(cache) {}

  std::string Name() const override { return "cached-primary-backup"; }

  std::vector<ConsistencyLevel> SupportedLevels() const override {
    return {ConsistencyLevel::kCache, ConsistencyLevel::kWeak, ConsistencyLevel::kStrong};
  }

  // Plans single-key operations only, so with a batch window open this binding's reads
  // and writes still take the pipeline's same-tick path.
  InvocationPlan PlanInvocation(const Operation& op, const LevelSet& levels) override;

 private:
  PbClient* client_;
  ClientCache* cache_;
};

}  // namespace icg

#endif  // ICG_BINDINGS_CACHED_PB_BINDING_H_
