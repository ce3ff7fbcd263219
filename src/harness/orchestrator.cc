#include "src/harness/orchestrator.h"

#include <algorithm>
#include <cassert>
#include <map>
#include <string>
#include <vector>

namespace icg {

const char* ControlActionName(ControlActionKind kind) {
  switch (kind) {
    case ControlActionKind::kNone: return "none";
    case ControlActionKind::kWidenWindow: return "widen";
    case ControlActionKind::kShrinkWindow: return "shrink";
    case ControlActionKind::kScaleOut: return "scale-out";
    case ControlActionKind::kScaleIn: return "scale-in";
  }
  return "?";
}

ControlAction OrchestratorPolicy::Emit(ControlActionKind kind, size_t detail) {
  ++actions_;
  cooldown_ = options_.cooldown_intervals;
  return ControlAction{kind, detail};
}

ControlAction OrchestratorPolicy::Decide(const ControlSample& sample) {
  ++intervals_;
  if (sample.shards.empty()) {
    // Degenerate window: nothing to judge, and no episode to extend.
    shed_streak_ = 0;
    cool_streak_ = 0;
    return {};
  }

  // Order-invariant aggregates: sums over the shard vector, never positional reads.
  size_t total_outstanding = 0;
  for (const ShardSignal& shard : sample.shards) {
    total_outstanding += shard.outstanding;
  }
  const double per_shard = static_cast<double>(total_outstanding) /
                           static_cast<double>(sample.shards.size());

  // Streaks advance every interval — cooldown gates emission, not observation, so a
  // saturation episode keeps accumulating evidence while an earlier action settles.
  const bool shedding = sample.shed_delta > 0;
  shed_streak_ = shedding ? shed_streak_ + 1 : 0;
  const bool cool = !shedding && per_shard <= options_.cool_outstanding_per_shard;
  cool_streak_ = cool ? cool_streak_ + 1 : 0;

  if (cooldown_ > 0) {
    --cooldown_;
    return {};
  }

  // 1) Sustained sheds: the ring is refusing work — capacity before batching.
  if (shed_streak_ >= options_.shed_intervals_to_scale_out && sample.spare_replicas > 0 &&
      sample.shards.size() < options_.max_coordinators) {
    shed_streak_ = 0;
    return Emit(ControlActionKind::kScaleOut, 0);
  }

  // 2) Saturation: deep per-shard queues (or sheds with nothing to promote) — climb
  // the window ladder to cut msgs/op.
  const size_t ladder = std::min(options_.window_ladder.size(), sample.window_ladder_size);
  if ((per_shard >= options_.widen_outstanding_per_shard || shedding) &&
      sample.window_index + 1 < ladder) {
    return Emit(ControlActionKind::kWidenWindow, sample.window_index + 1);
  }

  // 3) Idle: shallow queues and a clean interval — step back down for latency.
  if (!shedding && per_shard <= options_.shrink_outstanding_per_shard &&
      sample.window_index > 0) {
    return Emit(ControlActionKind::kShrinkWindow, sample.window_index - 1);
  }

  // 4) Sustained cool: retire the coordinator owning the least keyspace. Strictly
  // unreachable when shed_delta > 0 — shedding reset the cool streak above.
  if (cool_streak_ >= options_.cool_intervals_to_scale_in &&
      sample.shards.size() > options_.min_coordinators) {
    const ShardSignal* victim = nullptr;
    for (const ShardSignal& shard : sample.shards) {
      if (victim == nullptr || shard.primary_share < victim->primary_share ||
          (shard.primary_share == victim->primary_share && shard.shard < victim->shard)) {
        victim = &shard;
      }
    }
    cool_streak_ = 0;
    return Emit(ControlActionKind::kScaleIn, victim->shard);
  }

  return {};
}

Orchestrator::Orchestrator(LoopGroup* group, ShardedCassandraStack* stack,
                           OrchestratorOptions options)
    : group_(group), stack_(stack), options_(options), policy_(options) {
  assert(group_ != nullptr && stack_ != nullptr);
  assert(!options_.window_ladder.empty());
  // Join the ladder at the stack's current window (rung 0 if it is off-ladder).
  const SimDuration current = stack_->batch_window();
  for (size_t i = 0; i < options_.window_ladder.size(); ++i) {
    if (options_.window_ladder[i] == current) {
      window_index_ = i;
      break;
    }
  }
}

void Orchestrator::Start() {
  if (running_) {
    return;
  }
  running_ = true;
  // Baseline the shed aggregate so the first tick's delta covers exactly one interval.
  last_total_sheds_ = TotalSheds();
  const uint64_t generation = ++generation_;
  group_->ScheduleDriverTask(group_->Now() + options_.control_interval,
                             [this, generation]() {
                               if (running_ && generation == generation_) {
                                 Tick();
                               }
                             });
}

void Orchestrator::Stop() {
  running_ = false;
  ++generation_;  // a pending tick sees the bump and dies quietly
}

bool Orchestrator::IsLiveSpare(const KvReplica& replica) const {
  // A crashed replica is no spare: promoting it would route a shard's keys to a dead
  // node until the failure detector evicted it again.
  const auto& ring = stack_->coordinator_ids();
  return !replica.crashed() && std::find(ring.begin(), ring.end(), replica.id()) == ring.end();
}

int64_t Orchestrator::TotalSheds() const {
  int64_t total = 0;
  for (const auto& endpoint : stack_->endpoints()) {
    total += endpoint->router->LoadSnapshot().total_sheds();
  }
  return total;
}

ControlSample Orchestrator::Sample() {
  ControlSample sample;
  sample.ring_epoch = stack_->ring_epoch();
  sample.window_index = window_index_;
  sample.window_ladder_size = options_.window_ladder.size();

  // Aggregate every endpoint's router: each client queues and sheds independently, and
  // the controller judges the deployment as a whole. InstallRing keeps all endpoints
  // on the stack's epoch, so per-index sums line up.
  const size_t n_shards = stack_->coordinator_ids().size();
  std::vector<size_t> outstanding(n_shards, 0);
  int64_t total_sheds = 0;
  for (const auto& endpoint : stack_->endpoints()) {
    const RouterLoadSnapshot snapshot = endpoint->router->LoadSnapshot();
    for (size_t i = 0; i < snapshot.shards.size() && i < n_shards; ++i) {
      outstanding[i] += snapshot.shards[i].outstanding;
    }
    total_sheds += snapshot.total_sheds();
  }
  sample.shed_delta = total_sheds - last_total_sheds_;
  last_total_sheds_ = total_sheds;

  // Keyspace share per coordinator: seeded estimate, a pure function of the ring.
  const std::map<NodeId, double> shares = stack_->shard_map().PrimaryLoadEstimate(
      options_.load_estimate_samples, options_.load_estimate_seed);
  sample.shards.reserve(n_shards);
  for (size_t i = 0; i < n_shards; ++i) {
    ShardSignal signal;
    signal.shard = i;
    signal.outstanding = outstanding[i];
    const auto it = shares.find(stack_->coordinator_ids()[i]);
    signal.primary_share = it != shares.end() ? it->second : 0.0;
    sample.shards.push_back(signal);
  }
  for (const auto& replica : stack_->cluster->replicas()) {
    if (IsLiveSpare(*replica)) {
      ++sample.spare_replicas;
    }
  }
  return sample;
}

void Orchestrator::Record(ControlActionKind kind, size_t detail,
                          const ControlSample& sample) {
  OrchestratorEvent event;
  event.at = group_->Now();
  event.kind = kind;
  event.detail = detail;
  event.ring_epoch = stack_->ring_epoch();
  event.shed_delta = sample.shed_delta;
  size_t total_outstanding = 0;
  for (const ShardSignal& shard : sample.shards) {
    total_outstanding += shard.outstanding;
  }
  event.total_outstanding = total_outstanding;
  events_.push_back(event);
}

void Orchestrator::Apply(const ControlAction& action, const ControlSample& sample) {
  switch (action.kind) {
    case ControlActionKind::kNone:
      break;
    case ControlActionKind::kWidenWindow:
    case ControlActionKind::kShrinkWindow:
      window_index_ = action.detail;
      stack_->SetBatchWindow(options_.window_ladder[window_index_]);
      Record(action.kind, action.detail, sample);
      break;
    case ControlActionKind::kScaleOut: {
      // First live spare in cluster order: deterministic, and under
      // PlaceShardsAcrossLoops every replica already owns the lane it will coordinate on.
      NodeId promoted = kInvalidNode;
      for (const auto& replica : stack_->cluster->replicas()) {
        if (IsLiveSpare(*replica)) {
          promoted = replica->id();
          break;
        }
      }
      if (promoted == kInvalidNode) {
        break;  // raced a concurrent membership change; nothing to promote
      }
      stack_->AddCoordinator(promoted);
      Record(action.kind, static_cast<size_t>(promoted), sample);
      break;
    }
    case ControlActionKind::kScaleIn: {
      if (action.detail >= stack_->coordinator_ids().size() ||
          stack_->coordinator_ids().size() <= 1) {
        break;
      }
      const NodeId retired = stack_->coordinator_ids()[action.detail];
      stack_->RemoveCoordinator(retired);
      Record(action.kind, static_cast<size_t>(retired), sample);
      break;
    }
  }
}

void Orchestrator::Tick() {
  ++ticks_;
  const ControlSample sample = Sample();
  const ControlAction action = policy_.Decide(sample);
  Apply(action, sample);
  const uint64_t generation = generation_;
  group_->ScheduleDriverTask(group_->Now() + options_.control_interval,
                             [this, generation]() {
                               if (running_ && generation == generation_) {
                                 Tick();
                               }
                             });
}

std::string Orchestrator::EventLogFingerprint() const {
  std::string fingerprint;
  for (const OrchestratorEvent& event : events_) {
    fingerprint += std::to_string(event.at);
    fingerprint += ':';
    fingerprint += ControlActionName(event.kind);
    fingerprint += ':';
    fingerprint += std::to_string(event.detail);
    fingerprint += ":e";
    fingerprint += std::to_string(event.ring_epoch);
    fingerprint += ";";
  }
  return fingerprint;
}

}  // namespace icg
