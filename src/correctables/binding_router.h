// BindingRouter: per-key routing across sharded storage endpoints (Dynamo/Cassandra
// style), expressed as a Binding so the whole Correctables stack works unchanged on top.
//
// The router owns N child bindings — one per coordinator endpoint — and delegates each
// invocation to the shard owning its key. Because routing stays per-key, every guarantee
// the InvocationPipeline enforces per Correctable (weakest-first monotone views, §5.2
// confirmations, timeouts) survives partitioned traffic: an invocation only ever talks
// to one shard's endpoint, whose level sequence is exactly a flat binding's. Batched
// operations are shard-local or rejected: CoalescingScope() returns the key's shard
// (qualified by the ring epoch), so the pipeline never lets operations bound for
// different coordinators — or different ring generations — share one batch.
//
// Two properties turn the static router into a *live* one:
//
//   * ApplyRing installs a new shard set + routing function under a strictly increasing
//     epoch (stale installations are rejected). In-flight invocations keep the child
//     bindings they were planned against alive through their shared_ptr captures, so a
//     removed coordinator drains naturally; *pending* batched cohorts re-route at flush
//     time because the pipeline re-consults CoalescingScope then — and the epoch in the
//     scope string guarantees a cohort formed under the old ring never merges with
//     post-rebalance traffic.
//   * per-shard backpressure: SetShardQueueLimit bounds each child's outstanding
//     invocations. A shard at its limit sheds new work with a retryable OVERLOADED
//     status (surfaced through the pipeline like any rejection), so a hot shard degrades
//     alone instead of queueing the whole client.
#ifndef ICG_CORRECTABLES_BINDING_ROUTER_H_
#define ICG_CORRECTABLES_BINDING_ROUTER_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "src/correctables/binding.h"

namespace icg {

// Maps a key to the index of the shard (child binding) owning it. Must return a value in
// [0, num_shards) and be stable between ring installations.
using ShardFn = std::function<size_t(const std::string& key)>;

// One consistent read of a router's backpressure state: every per-shard row and the
// epoch come from the same ring generation (LoadSnapshot is a single call on the
// router's thread, so it can never straddle an ApplyRing), and `retired_sheds` carries
// the shed totals of every counter block retired by past ring changes. That makes
// total_sheds() monotone across epochs — the property a controller differencing
// consecutive snapshots needs, since per-index reads before and after a membership
// change are incomparable (indices reshuffle and departed blocks vanish).
struct RouterLoadSnapshot {
  struct Shard {
    size_t outstanding = 0;
    int64_t sheds = 0;
  };

  uint64_t epoch = 0;
  std::vector<Shard> shards;        // current ring order
  int64_t retired_sheds = 0;        // sheds of blocks retired by past ApplyRing calls

  size_t total_outstanding() const {
    size_t total = 0;
    for (const Shard& shard : shards) total += shard.outstanding;
    return total;
  }
  // Monotone across ring changes: retired blocks' sheds are folded in at retirement.
  int64_t total_sheds() const {
    int64_t total = retired_sheds;
    for (const Shard& shard : shards) total += shard.sheds;
    return total;
  }
};

class BindingRouter : public Binding {
 public:
  // All shards must support an identical level vector (the router advertises it as its
  // own); `shard_of` must map every key into [0, shards.size()).
  BindingRouter(std::vector<std::shared_ptr<Binding>> shards, ShardFn shard_of,
                uint64_t epoch = 0);

  std::string Name() const override;
  std::vector<ConsistencyLevel> SupportedLevels() const override;
  InvocationPlan PlanInvocation(const Operation& op, const LevelSet& levels) override;
  std::string CoalescingScope(const Operation& op) const override;

  // Batching capabilities pass through to the shard bindings (identical by the
  // constructor contract, like SupportedLevels). Batched operations are strictly
  // shard-local: a kMultiGet or kMultiPut whose keys span shards is rejected — the
  // pipeline's scope-keyed queues never produce one, so a rejection flags a caller
  // bypassing the scheduler.
  bool SupportsBatchedReads() const override;
  bool SupportsBatchedWrites() const override;

  // Installs a new shard set + routing function under `epoch`. Epochs must strictly
  // increase: a stale installation (epoch <= ring_epoch()) is rejected with CONFLICT and
  // leaves the current ring untouched. Shards present in both generations (matched by
  // binding identity) keep their outstanding/shed accounting; departed shards stay alive
  // through in-flight invocations' captures, but their counter blocks are retired
  // atomically with the swap — outstanding zeroed, late decrements clamped — so a shard
  // that never answers (crashed coordinator) cannot underflow or pin phantom load.
  Status ApplyRing(uint64_t epoch, std::vector<std::shared_ptr<Binding>> shards,
                   ShardFn shard_of);
  uint64_t ring_epoch() const { return epoch_; }

  // Bounds each shard's outstanding invocations; 0 (the default) disables shedding.
  // Applies to everything the router plans, including batched cohort flushes — a shed
  // flush fails exactly that cohort's waiters with a retryable OVERLOADED status.
  void SetShardQueueLimit(size_t limit) { queue_limit_ = limit; }
  size_t shard_queue_limit() const { return queue_limit_; }

  size_t num_shards() const { return shards_.size(); }
  // The shard index `key` routes to (bounds-checked against num_shards()).
  size_t ShardIndexFor(const std::string& key) const;
  Binding& shard(size_t index) const { return *shards_.at(index).binding; }

  // Backpressure observability, per current-ring shard index. Outstanding counts decay
  // as finals (values, confirmations, or errors) arrive; an invocation whose store never
  // answers at the final level pins its slot until it does.
  size_t ShardOutstanding(size_t index) const { return shards_.at(index).counters->outstanding; }
  int64_t ShardSheds(size_t index) const { return shards_.at(index).counters->sheds; }
  int64_t TotalSheds() const;

  // Consistent snapshot of epoch + every shard's outstanding/sheds + the retired-shed
  // aggregate, for controllers and tests that must never read torn across an ApplyRing.
  RouterLoadSnapshot LoadSnapshot() const;

 private:
  // Heap-shared so emit-wrappers of in-flight invocations outlive ring changes: a
  // departed shard's decrements land on its retired counter block, never on a stale
  // index of the new ring.
  //
  // A block leaving the ring is *retired* atomically with ApplyRing: its outstanding
  // count is zeroed (a removed or crashed shard will never drain normally — a count
  // left behind would pin phantom load forever) and decrements are clamped at zero, so
  // a late terminal from an in-flight invocation — or one that never answers at all,
  // like a crashed coordinator's — can neither underflow the counter nor corrupt a
  // live shard's accounting.
  struct ShardCounters {
    size_t outstanding = 0;
    int64_t sheds = 0;
    bool retired = false;

    void Release() {
      if (outstanding > 0) {  // clamp: retirement may have zeroed it already
        outstanding--;
      }
    }
  };
  struct Shard {
    std::shared_ptr<Binding> binding;
    std::shared_ptr<ShardCounters> counters;
  };

  // Wraps the plan's final-covering steps so `counters->outstanding` drops exactly once
  // when the strongest requested level is emitted (value, confirmation, or error).
  static void TrackOutstanding(InvocationPlan& plan, ConsistencyLevel strongest,
                               std::shared_ptr<ShardCounters> counters);
  bool ShedIfOverloaded(size_t shard_index);
  // The one shard-local planning path: admission-check the shard (`what` names the
  // shed work in the error message), delegate the plan, and claim an outstanding slot.
  InvocationPlan PlanOnShard(size_t shard, const Operation& op, const LevelSet& levels,
                             const char* what);

  std::vector<Shard> shards_;
  ShardFn shard_of_;
  uint64_t epoch_ = 0;
  size_t queue_limit_ = 0;
  // Sheds folded in from counter blocks retired by ApplyRing (see RouterLoadSnapshot).
  int64_t retired_sheds_ = 0;
};

}  // namespace icg

#endif  // ICG_CORRECTABLES_BINDING_ROUTER_H_
