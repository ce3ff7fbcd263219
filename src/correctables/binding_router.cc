#include "src/correctables/binding_router.h"

#include <algorithm>
#include <cassert>
#include <utility>

namespace icg {
BindingRouter::BindingRouter(std::vector<std::shared_ptr<Binding>> shards, ShardFn shard_of,
                             uint64_t epoch)
    : shard_of_(std::move(shard_of)), epoch_(epoch) {
  assert(!shards.empty());
  assert(shard_of_ != nullptr);
#ifndef NDEBUG
  const std::vector<ConsistencyLevel> levels = shards.front()->SupportedLevels();
  for (const auto& shard : shards) {
    assert(shard->SupportedLevels() == levels &&
           "router shards must support identical level vectors");
  }
#endif
  shards_.reserve(shards.size());
  for (auto& binding : shards) {
    shards_.push_back(Shard{std::move(binding), std::make_shared<ShardCounters>()});
  }
}

Status BindingRouter::ApplyRing(uint64_t epoch, std::vector<std::shared_ptr<Binding>> shards,
                                ShardFn shard_of) {
  if (epoch <= epoch_) {
    return Status::Conflict("stale ring installation: epoch " + std::to_string(epoch) +
                            " <= current " + std::to_string(epoch_));
  }
  if (shards.empty()) {
    return Status::InvalidArgument("a ring needs at least one shard");
  }
  if (shard_of == nullptr) {
    return Status::InvalidArgument("a ring needs a shard function");
  }
#ifndef NDEBUG
  const std::vector<ConsistencyLevel> levels = shards.front()->SupportedLevels();
  for (const auto& shard : shards) {
    assert(shard->SupportedLevels() == levels &&
           "router shards must support identical level vectors");
  }
#endif
  std::vector<Shard> next;
  next.reserve(shards.size());
  for (auto& binding : shards) {
    // A shard surviving the membership change keeps its counter block: its in-flight
    // invocations must still drain against the slots they occupy.
    std::shared_ptr<ShardCounters> counters;
    for (Shard& old : shards_) {
      if (old.binding == binding) {
        counters = old.counters;
        break;
      }
    }
    if (counters == nullptr) {
      counters = std::make_shared<ShardCounters>();
    }
    counters->retired = false;  // a re-admitted binding rejoins with live accounting
    next.push_back(Shard{std::move(binding), std::move(counters)});
  }
  // Retire the blocks of departed shards atomically with the ring swap: a removed (or
  // crashed) coordinator's in-flight invocations may never emit a terminal, so the
  // outstanding count they'd pin is dropped here; any terminal that *does* arrive late
  // clamps at zero (ShardCounters::Release) instead of underflowing.
  for (Shard& old : shards_) {
    bool survives = false;
    for (const Shard& kept : next) {
      if (kept.counters == old.counters) {
        survives = true;
        break;
      }
    }
    if (!survives) {
      old.counters->retired = true;
      old.counters->outstanding = 0;
      // Fold the departing block's sheds into the cross-epoch aggregate and zero the
      // block, so snapshot totals stay monotone across ring changes without double
      // counting if the same block is ever re-admitted.
      retired_sheds_ += old.counters->sheds;
      old.counters->sheds = 0;
    }
  }
  shards_ = std::move(next);
  shard_of_ = std::move(shard_of);
  epoch_ = epoch;
  return Status::Ok();
}

std::string BindingRouter::Name() const {
  return "router(" + shards_.front().binding->Name() + " x" + std::to_string(shards_.size()) +
         ")";
}

std::vector<ConsistencyLevel> BindingRouter::SupportedLevels() const {
  return shards_.front().binding->SupportedLevels();
}

size_t BindingRouter::ShardIndexFor(const std::string& key) const {
  const size_t index = shard_of_(key);
  assert(index < shards_.size());
  return index < shards_.size() ? index : 0;
}

std::string BindingRouter::CoalescingScope(const Operation& op) const {
  // One scope per (ring epoch, shard), for reads and writes alike: a key's read and its
  // write must land on the same coordinator, so they share one scope string — and a
  // rebalance bumps the epoch, so cohorts formed under the old ring never absorb
  // post-change traffic (the pipeline re-consults this at flush time anyway).
  return std::to_string(epoch_) + ":" + std::to_string(ShardIndexFor(op.key));
}

bool BindingRouter::SupportsBatchedReads() const {
  // Every shard must be able to serve a flushed multiget: capabilities may legitimately
  // differ across heterogeneous backends, and advertising the front shard's alone would
  // queue batches a slower shard then rejects.
  for (const auto& shard : shards_) {
    if (!shard.binding->SupportsBatchedReads()) {
      return false;
    }
  }
  return true;
}

bool BindingRouter::SupportsBatchedWrites() const {
  for (const auto& shard : shards_) {
    if (!shard.binding->SupportsBatchedWrites()) {
      return false;
    }
  }
  return true;
}

RouterLoadSnapshot BindingRouter::LoadSnapshot() const {
  // Single-threaded with ApplyRing (both run on the client's loop), so reading epoch,
  // shard rows, and the retired aggregate in one call is consistent by construction:
  // every row belongs to the epoch reported.
  RouterLoadSnapshot snapshot;
  snapshot.epoch = epoch_;
  snapshot.retired_sheds = retired_sheds_;
  snapshot.shards.reserve(shards_.size());
  for (const Shard& shard : shards_) {
    snapshot.shards.push_back(
        RouterLoadSnapshot::Shard{shard.counters->outstanding, shard.counters->sheds});
  }
  return snapshot;
}

int64_t BindingRouter::TotalSheds() const {
  int64_t total = 0;
  for (const Shard& shard : shards_) {
    total += shard.counters->sheds;
  }
  return total;
}

bool BindingRouter::ShedIfOverloaded(size_t shard_index) {
  if (queue_limit_ == 0) {
    return false;
  }
  ShardCounters& counters = *shards_[shard_index].counters;
  if (counters.outstanding < queue_limit_) {
    return false;
  }
  counters.sheds++;
  return true;
}

void BindingRouter::TrackOutstanding(InvocationPlan& plan, ConsistencyLevel strongest,
                                     std::shared_ptr<ShardCounters> counters) {
  // The slot is claimed only when a step covering the strongest level was actually
  // wrapped: its first emission at that level — value, confirmation, or error — is the
  // invocation's terminal response and releases the slot. A plan covering no such step
  // is rejected by the pipeline before any step runs; claiming a slot for it up front
  // would leak the slot forever.
  auto done = std::make_shared<bool>(false);
  bool wrapped_any = false;
  for (FetchStep& step : plan.steps) {
    if (std::find(step.levels.begin(), step.levels.end(), strongest) == step.levels.end()) {
      continue;
    }
    wrapped_any = true;
    LevelFetcher inner = std::move(step.fetch);
    step.fetch = [inner = std::move(inner), strongest, counters, done](
                     const Operation& op, LevelEmitter emit) {
      LevelEmitter wrapped([emit = std::move(emit), strongest, counters, done](
                               ConsistencyLevel level, StatusOr<OpResult> result,
                               ResponseKind kind) {
        if (level == strongest && !*done) {
          *done = true;
          counters->Release();
        }
        emit(level, std::move(result), kind);
      });
      inner(op, std::move(wrapped));
    };
  }
  if (wrapped_any) {
    counters->outstanding++;
  }
}

InvocationPlan BindingRouter::PlanOnShard(size_t shard, const Operation& op,
                                          const LevelSet& levels, const char* what) {
  if (ShedIfOverloaded(shard)) {
    return InvocationPlan::Rejected(Status::Overloaded(
        "shard " + std::to_string(shard) + " is over its queue limit; retry " + what));
  }
  InvocationPlan plan = shards_[shard].binding->PlanInvocation(op, levels);
  if (plan.reject.ok()) {
    TrackOutstanding(plan, levels.strongest(), shards_[shard].counters);
  }
  return plan;
}

InvocationPlan BindingRouter::PlanInvocation(const Operation& op, const LevelSet& levels) {
  if (op.type != OpType::kMultiGet && op.type != OpType::kMultiPut) {
    // Single-key operations (and queue ops, routed by queue name) delegate wholesale:
    // the owning shard's plan *is* the router's plan, so refresh hooks, span steps, and
    // confirmation behaviour pass through untouched.
    return PlanOnShard(ShardIndexFor(op.key), op, levels, "the invocation");
  }
  // A batched flush must already be shard-local (the pipeline queues reads and writes
  // per coalescing scope and regroups on flush). Enforce it: spanning shards would send
  // half a batch to the wrong coordinator.
  if (op.keys.empty()) {
    return InvocationPlan::Rejected(
        Status::InvalidArgument("a batch through the router needs at least one key"));
  }
  const size_t shard = ShardIndexFor(op.keys.front());
  for (const std::string& key : op.keys) {
    if (ShardIndexFor(key) != shard) {
      return InvocationPlan::Rejected(Status::InvalidArgument(
          "batched operations must not cross shard boundaries (key '" + key +
          "' is not on shard " + std::to_string(shard) + ")"));
    }
  }
  return PlanOnShard(shard, op, levels, "the batch");
}

}  // namespace icg
