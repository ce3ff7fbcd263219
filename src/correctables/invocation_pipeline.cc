#include "src/correctables/invocation_pipeline.h"

#include <algorithm>
#include <cassert>
#include <utility>

#include "src/common/logging.h"

namespace icg {
namespace {

bool StepDeclares(const LevelVec& declared, ConsistencyLevel level) {
  return std::find(declared.begin(), declared.end(), level) != declared.end();
}

// Coalescing key: operations join the same batch only if key, level set, and the
// binding's routing scope all match (different level sets need different view
// sequences; different scopes mean different store endpoints, so sharing a round-trip
// would send one waiter's read to the wrong coordinator). Builds into `out` so a
// persistent scratch buffer absorbs the construction.
void BatchKeyInto(std::string& out, const Binding& binding, const Operation& op,
                  const LevelVec& levels) {
  out.clear();
  out += binding.CoalescingScope(op);
  out.push_back('\0');
  out += op.key;
  out.push_back('\0');
  for (const ConsistencyLevel level : levels) {
    out += ConsistencyLevelName(level);
    out.push_back(',');
  }
}

// A plan whose steps never declare the strongest requested level could not possibly
// close the Correctable; catch the binding bug up front instead of hanging forever.
bool PlanCoversFinal(const InvocationPlan& plan, ConsistencyLevel strongest) {
  for (const FetchStep& step : plan.steps) {
    if (StepDeclares(step.levels, strongest)) {
      return true;
    }
  }
  return false;
}

// Shared per-plan execution state, kept alive by the step emitters.
struct PlanRun {
  std::shared_ptr<const Operation> op;
  RefreshHook refresh;
  // Points at the pipeline's cached name (pipeline path) or at owned_name (raw
  // SubmitOperation path): referenced only by the undeclared-level debug log, so the
  // hot path never constructs a name string.
  const std::string* binding_name = nullptr;
  std::string owned_name;
  LevelEmitter::Sink sink;  // receives declaration-checked, refresh-applied emissions
};

// The one definition of "run a plan", shared by the stateful pipeline and the raw
// Binding::SubmitOperation path: runs every fetch step, enforcing the step's declared
// levels (an emission at an undeclared level is a binding bug and is dropped) and one
// entry per key in every value (anything else fails), and applying the plan's
// write-through refresh hook before forwarding to the sink.
void RunPlanSteps(std::shared_ptr<PlanRun> run, SmallVec<FetchStep, 2>& steps) {
  for (FetchStep& step : steps) {
    LevelEmitter emit([run, declared = std::move(step.levels)](
                          ConsistencyLevel level, StatusOr<OpResult>&& result,
                          ResponseKind kind) {
      if (!StepDeclares(declared, level)) {
        ICG_DEBUG << "binding " << *run->binding_name << " emitted undeclared level "
                  << ConsistencyLevelName(level) << "; dropped";
        return;
      }
      if (result.ok() && kind == ResponseKind::kValue &&
          result.value().entries.size() != run->op->keys.size()) {
        // Readers index a batched result's entries by key position.
        result = Status::Internal("binding " + *run->binding_name +
                                  " answered without one entry per key");
      }
      if (run->refresh && result.ok() && kind == ResponseKind::kValue) {
        run->refresh(*run->op, result.value(), level);
      }
      run->sink(level, std::move(result), kind);
    });
    step.fetch(*run->op, std::move(emit));
  }
}

}  // namespace

InvocationPipeline::InvocationPipeline(Binding* binding, EventLoop* loop, ClientStats* stats)
    : binding_(binding), loop_(loop), stats_(stats),
      supported_levels_(binding->SupportedLevels()),
      binding_name_(binding->Name()),
      scheduler_(loop, [this](BatchScheduler::Cohort cohort) {
        OnCohortFlush(std::move(cohort));
      }) {
  assert(binding_ != nullptr);
  assert(stats_ != nullptr);
}

Correctable<OpResult> InvocationPipeline::Submit(Operation op, LevelVec levels) {
  if (!ValidLevelSelection(levels, supported_levels_)) {
    stats_->errors++;
    return Correctable<OpResult>::Failed(Status::InvalidArgument(
        "invalid consistency level selection " + LevelsToString(levels) + " for binding " +
        binding_->Name()));
  }

  // Stamp writes with the client's monotone clock (loop-less clients keep the legacy
  // coordinator-stamped behaviour): program order per writer survives batching windows
  // and live ring changes because the stamp, not the apply instant, decides LWW.
  if (op.type == OpType::kPut && loop_ != nullptr) {
    last_write_stamp_ = std::max<SimTime>(loop_->Now(), last_write_stamp_ + 1);
    op.timestamp = last_write_stamp_;
  }

  auto inv = PooledMakeShared<Invocation>(loop_, levels.back());
  auto correctable = inv->source.GetCorrectable();
  // Arm the timeout before launching so even a binding that never emits is covered.
  ArmTimeout(inv);

  // Cross-tick batching: with a window open, reads and writes queue per coalescing
  // scope — writes use the very same scope key as reads (Binding::CoalescingScope), so
  // a routed write can never batch across shard boundaries — and flush as one batched
  // store submission. Bindings that cannot serve multiget/multiput keep the legacy path.
  if (scheduler_.enabled()) {
    const bool batch_read = op.type == OpType::kGet && binding_->SupportsBatchedReads();
    const bool batch_write = op.type == OpType::kPut && binding_->SupportsBatchedWrites();
    if (batch_read || batch_write) {
      std::string scope = binding_->CoalescingScope(op);
      scheduler_.Admit(batch_read, std::move(scope), levels, std::move(op), inv);
      return correctable;
    }
  }

  const bool coalescable = loop_ != nullptr && op.type == OpType::kGet;
  if (coalescable) {
    // Joinability ends with the tick: once virtual time advances, every remaining entry
    // (e.g. a batch whose final response was lost) is dead weight — drop them all so the
    // map never outgrows one tick's worth of distinct reads. In-flight batches keep
    // living through the shared_ptrs captured in their emitters.
    if (loop_->Now() != batch_tick_) {
      batch_tick_ = loop_->Now();
      open_batches_.clear();
    }
    BatchKeyInto(scratch_key_, *binding_, op, levels);
    auto it = open_batches_.find(scratch_key_);
    if (it != open_batches_.end()) {
      const std::shared_ptr<Batch>& batch = it->second;
      if (!batch->done) {
        // Piggyback on the in-flight round-trip: no new store request is issued.
        stats_->coalesced_reads++;
        if (batch->waiters.size() == 1) {
          stats_->batched_invocations++;
        }
        batch->waiters.push_back({inv});
        // Catch up on anything the batch already surfaced this tick (synchronous
        // levels, e.g. the client cache, resolve during the leader's submission).
        for (const Batch::Emission& e : batch->history) {
          Deliver(*inv, e.level, e.result, e.kind);
        }
        return correctable;
      }
      open_batches_.erase(it);
    }
  }

  auto batch = PooledMakeShared<Batch>();
  batch->op = std::move(op);
  batch->level_set = LevelSet(std::move(levels));
  batch->coalescable = coalescable;
  batch->waiters.push_back({std::move(inv)});
  if (coalescable) {
    batch->map_key = scratch_key_;  // short keys stay in SSO storage
    open_batches_[batch->map_key] = batch;
  }
  Launch(batch);
  return correctable;
}

void InvocationPipeline::ArmTimeout(const std::shared_ptr<Invocation>& inv) {
  if (timeout_ <= 0 || loop_ == nullptr) {
    return;
  }
  ClientStats* stats = stats_;
  inv->timer = loop_->Schedule(timeout_, [stats, inv]() {
    if (inv->source.Fail(Status::Timeout("no final view within timeout"))) {
      stats->timeouts++;
    }
  });
}

void InvocationPipeline::CancelTimeout(Invocation& inv) {
  if (inv.timer != 0 && loop_ != nullptr) {
    loop_->Cancel(inv.timer);
    inv.timer = 0;
  }
}

void InvocationPipeline::Launch(const std::shared_ptr<Batch>& batch) {
  InvocationPlan plan = binding_->PlanInvocation(batch->op, batch->level_set);
  const ConsistencyLevel strongest = batch->level_set.strongest();
  if (!plan.reject.ok()) {
    OnEmission(batch, strongest, std::move(plan.reject), ResponseKind::kValue);
    return;
  }
  if (!PlanCoversFinal(plan, strongest)) {
    OnEmission(batch, strongest,
               Status::Internal("plan from binding '" + binding_->Name() +
                                "' does not cover the strongest requested level"),
               ResponseKind::kValue);
    return;
  }
  auto run = PooledMakeShared<PlanRun>();
  // Aliasing constructor: the run shares the batch's operation instead of copying it.
  run->op = std::shared_ptr<const Operation>(batch, &batch->op);
  run->refresh = std::move(plan.refresh);
  run->binding_name = &binding_name_;
  run->sink = [this, batch](ConsistencyLevel level, StatusOr<OpResult>&& result,
                            ResponseKind kind) {
    OnEmission(batch, level, std::move(result), kind);
  };
  RunPlanSteps(std::move(run), plan.steps);
}

void InvocationPipeline::OnEmission(const std::shared_ptr<Batch>& batch,
                                    ConsistencyLevel level, StatusOr<OpResult> result,
                                    ResponseKind kind) {
  if (!batch->level_set.Contains(level)) {
    ICG_DEBUG << "binding " << binding_->Name() << " emitted unrequested level "
              << ConsistencyLevelName(level) << "; dropped";
    return;
  }
  if (level == batch->level_set.strongest()) {
    batch->done = true;
    if (!batch->map_key.empty()) {
      auto it = open_batches_.find(batch->map_key);
      if (it != open_batches_.end() && it->second == batch) {
        open_batches_.erase(it);
      }
      batch->map_key.clear();
    }
  }
  // Record for same-tick late joiners. The final emission itself is never recorded:
  // setting `done` above just made joining impossible, so nobody could replay it — and
  // streaming tails (e.g. blockchain confirmations) stop accumulating the same way.
  if (batch->coalescable && !batch->done) {
    batch->history.push_back(Batch::Emission{level, result, kind});
  }
  // Deliver to the waiters present when this response arrived. A waiter holding an entry
  // index takes its own entry of a value; errors and confirmations go whole to every
  // waiter. The last waiter is handed the result itself (no copy).
  const size_t present = batch->waiters.size();
  if (!batch->coalescable) {
    const bool per_entry = result.ok() && kind == ResponseKind::kValue;
    // Only coalescable batches are joinable, so this waiter list cannot grow (or
    // reallocate) under the loop: deliver by reference, skipping the shared_ptr copies.
    for (size_t i = 0; i < present; ++i) {
      const Batch::Waiter& waiter = batch->waiters[i];
      if (waiter.entry >= 0 && per_entry) {
        Deliver(*waiter.invocation, level,
                result.value().entries[static_cast<size_t>(waiter.entry)], kind);
      } else if (i + 1 == present) {
        Deliver(*waiter.invocation, level, std::move(result), kind);
      } else {
        Deliver(*waiter.invocation, level, result, kind);
      }
    }
    return;
  }
  // A callback may submit a new same-tick read that joins this batch mid-loop; such
  // joiners already received this emission through the history replay, so the bound must
  // not move. Copy the shared_ptr per iteration: push_back may reallocate under us.
  for (size_t i = 0; i < present; ++i) {
    std::shared_ptr<Invocation> inv = batch->waiters[i].invocation;
    if (i + 1 == present) {
      Deliver(*inv, level, std::move(result), kind);
    } else {
      Deliver(*inv, level, result, kind);
    }
  }
}

void InvocationPipeline::OnCohortFlush(BatchScheduler::Cohort cohort) {
  // Re-consult the binding's scope per queued operation: a ring rebalance may have moved
  // keys while the window was open. Operations whose scope changed flush in their own
  // re-routed group, so a batched submission never spans scopes.
  std::map<std::string, std::vector<BatchScheduler::Pending>> groups;
  std::vector<std::string> order;  // first-arrival order, for deterministic launches
  for (auto& pending : cohort.ops) {
    std::string scope = binding_->CoalescingScope(pending.op);
    auto [it, inserted] = groups.emplace(std::move(scope), std::vector<BatchScheduler::Pending>());
    if (inserted) {
      order.push_back(it->first);
    }
    it->second.push_back(std::move(pending));
  }
  for (const std::string& scope : order) {
    if (cohort.is_read) {
      FlushReadGroup(cohort.levels, std::move(groups[scope]));
    } else {
      FlushWriteGroup(cohort.levels, std::move(groups[scope]));
    }
  }
}

void InvocationPipeline::FlushReadGroup(const LevelVec& levels,
                                        std::vector<BatchScheduler::Pending> ops) {
  if (ops.size() > 1) {
    stats_->cross_tick_batches++;
    stats_->batched_invocations++;
    stats_->coalesced_reads += static_cast<int64_t>(ops.size()) - 1;
  }
  auto batch = PooledMakeShared<Batch>();
  batch->level_set = LevelSet(levels);
  std::vector<std::string> keys;  // one entry per distinct key, in first-arrival order
  std::map<std::string, int> entry_of;
  batch->waiters.reserve(ops.size());
  for (auto& pending : ops) {
    auto [it, inserted] = entry_of.emplace(pending.op.key, static_cast<int>(keys.size()));
    if (inserted) {
      keys.push_back(std::move(pending.op.key));
    }
    batch->waiters.push_back(
        {std::static_pointer_cast<Invocation>(std::move(pending.waiter)), it->second});
  }
  // Waiters are delivered grouped by key (arrival order within a key), and their callbacks
  // may submit follow-up operations: this order is part of the schedule.
  std::stable_sort(batch->waiters.begin(), batch->waiters.end(),
                   [](const Batch::Waiter& a, const Batch::Waiter& b) {
                     return a.entry < b.entry;
                   });
  if (keys.size() == 1) {
    // One distinct key: an ordinary read whose result every waiter takes whole.
    batch->op = Operation::Get(std::move(keys[0]));
    for (Batch::Waiter& waiter : batch->waiters) {
      waiter.entry = -1;
    }
  } else {
    batch->op = Operation::MultiGet(std::move(keys));
  }
  Launch(batch);
}

void InvocationPipeline::FlushWriteGroup(const LevelVec& levels,
                                         std::vector<BatchScheduler::Pending> ops) {
  auto batch = PooledMakeShared<Batch>();
  batch->level_set = LevelSet(levels);
  if (ops.size() == 1) {
    // A lone queued write launches exactly like an unbatched one (just window-delayed).
    batch->op = std::move(ops.front().op);
    batch->waiters.push_back({std::static_pointer_cast<Invocation>(std::move(ops.front().waiter))});
    Launch(batch);
    return;
  }
  stats_->cross_tick_batches++;
  stats_->batched_writes += static_cast<int64_t>(ops.size());

  // Arrival order is program order: the multiput applies entries in vector order, so two
  // queued writes to the same key land in submission order. Waiter i takes entry i.
  std::vector<std::string> keys;
  std::vector<std::string> values;
  std::vector<SimTime> timestamps;
  keys.reserve(ops.size());
  values.reserve(ops.size());
  timestamps.reserve(ops.size());
  for (auto& pending : ops) {
    keys.push_back(std::move(pending.op.key));
    values.push_back(std::move(pending.op.value));
    timestamps.push_back(pending.op.timestamp);  // submission-time stamps ride along
    batch->waiters.push_back({std::static_pointer_cast<Invocation>(std::move(pending.waiter)),
                              static_cast<int>(batch->waiters.size())});
  }
  batch->op = Operation::MultiPut(std::move(keys), std::move(values));
  batch->op.timestamps = std::move(timestamps);
  Launch(batch);
}

void InvocationPipeline::Deliver(Invocation& inv, ConsistencyLevel level,
                                 StatusOr<OpResult> result, ResponseKind kind) {
  const bool is_final_level = (level == inv.strongest);
  if (!result.ok()) {
    // Errors at preliminary levels are tolerated: a stronger view may still arrive.
    if (!is_final_level) {
      ICG_DEBUG << "preliminary level " << ConsistencyLevelName(level)
                << " failed: " << result.status().ToString();
      return;
    }
    if (inv.source.state() != CorrectableState::kUpdating) {
      return;
    }
    stats_->errors++;
    if (result.status().code() == StatusCode::kOverloaded) {
      stats_->overload_sheds++;  // backpressure shed: retryable by contract
    }
    CancelTimeout(inv);
    inv.source.Fail(result.status());
    return;
  }

  if (!is_final_level) {
    if (inv.source.Update(std::move(result).value(), level)) {
      stats_->views_delivered++;
    } else {
      stats_->stale_views_dropped++;
    }
    return;
  }

  if (inv.source.state() != CorrectableState::kUpdating) {
    return;  // duplicate finals (streaming levels after close) are ignored
  }
  CancelTimeout(inv);
  if (kind == ResponseKind::kConfirmation) {
    stats_->confirmations++;
    if (inv.source.CloseConfirmed(level)) {
      stats_->views_delivered++;
    }
    return;
  }
  // A full final: if a preliminary was delivered and differs, record the divergence
  // (this is the client-observable misspeculation signal of Figure 7).
  if (inv.source.HasView() && !(inv.source.LatestView().value == result.value())) {
    stats_->divergences++;
  }
  if (inv.source.Close(std::move(result).value(), level)) {
    stats_->views_delivered++;
  }
}

// Binding::SubmitOperation lives here rather than in a binding translation unit so the
// raw fan-out path and the pipeline share RunPlanSteps, the one definition of "run a
// plan" (rejection, coverage validation, declaration enforcement, refresh write-through).
void Binding::SubmitOperation(const Operation& op, const LevelVec& levels,
                              ResponseCallback callback) {
  LevelSet set(levels);
  InvocationPlan plan = PlanInvocation(op, set);
  if (!plan.reject.ok()) {
    callback(std::move(plan.reject), set.strongest(), ResponseKind::kValue);
    return;
  }
  if (!PlanCoversFinal(plan, set.strongest())) {
    callback(Status::Internal("plan from binding '" + Name() +
                              "' does not cover the strongest requested level"),
             set.strongest(), ResponseKind::kValue);
    return;
  }
  auto run = PooledMakeShared<PlanRun>();
  run->op = std::make_shared<const Operation>(op);
  run->refresh = std::move(plan.refresh);
  run->owned_name = Name();
  run->binding_name = &run->owned_name;
  run->sink = [callback](ConsistencyLevel level, StatusOr<OpResult>&& result,
                         ResponseKind kind) {
    callback(std::move(result), level, kind);
  };
  RunPlanSteps(std::move(run), plan.steps);
}

}  // namespace icg
