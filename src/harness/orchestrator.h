// The self-driving control plane: a periodic virtual-time control loop that watches
// the load signals the deployment already exposes and drives its knobs itself.
//
//   signals                       decisions                  actuators
//   -------                       ---------                  ---------
//   RouterLoadSnapshot            OrchestratorPolicy         SetBatchWindow
//     per-shard outstanding   ->    pure, order-invariant ->   (batch-window ladder)
//     aggregate shed deltas         hysteresis + streaks     AddCoordinator /
//   PrimaryLoadEstimate             + cooldown; at most        RemoveCoordinator
//     per-shard keyspace share      ONE action / interval      (versioned ApplyRing)
//
// OrchestratorPolicy is the pure decision function — it consumes one ControlSample per
// interval and returns at most one ControlAction, with every aggregate computed
// order-invariantly and every tie broken deterministically, so the metamorphic suite
// can probe it directly. Orchestrator is the harness glue: it samples the running
// deployment, applies the decision, and reschedules itself through
// LoopGroup::ScheduleDriverTask, so every actuation runs on the driver thread between
// rounds — the same contract as manual membership changes.
//
// Determinism argument: every input is virtual-time state (router snapshots,
// PrimaryLoadEstimate under a fixed seed, which replicas have crashed) — never a
// wall-clock metric like barrier_wait_ns — and ticks fire on the barrier schedule,
// which is itself a pure function of virtual-time state. So the controller's action
// log is bit-identical across LoopGroup widths 0/2/4/8; the orchestrator oracle
// enforces this with EventLogFingerprint().
//
// The batch-window ladder defaults to {0, 1ms, 5ms, 20ms} — the BENCH_batch_window
// operating points, where msgs/op falls 6.31 -> 4.88 -> 3.19 -> 1.53 for a p50 cost of
// a few ms: each widen step buys roughly a third fewer round-trips, so the controller
// climbs under saturation and steps back down one rung at a time when idle.
#ifndef ICG_HARNESS_ORCHESTRATOR_H_
#define ICG_HARNESS_ORCHESTRATOR_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "src/common/types.h"
#include "src/harness/deployment.h"
#include "src/sim/loop_group.h"

namespace icg {

enum class ControlActionKind {
  kNone = 0,
  kWidenWindow,   // climb one rung of the batch-window ladder
  kShrinkWindow,  // descend one rung
  kScaleOut,      // promote a spare replica into the coordinator ring
  kScaleIn,       // retire the coldest coordinator from the ring
};

const char* ControlActionName(ControlActionKind kind);

struct ControlAction {
  ControlActionKind kind = ControlActionKind::kNone;
  // kWidenWindow/kShrinkWindow: the new ladder index. kScaleIn: the shard index whose
  // coordinator should retire. Otherwise 0.
  size_t detail = 0;
};

// One shard's signals within a sample. `primary_share` is that coordinator's share of
// the keyspace per Partitioner::PrimaryLoadEstimate (seeded, so width-identical).
struct ShardSignal {
  size_t shard = 0;
  size_t outstanding = 0;
  double primary_share = 0.0;
};

// Everything the policy sees for one control interval. All fields derive from
// virtual-time state; shard order must not affect the decision (the metamorphic suite
// feeds reversed vectors).
struct ControlSample {
  uint64_t ring_epoch = 0;
  std::vector<ShardSignal> shards;
  // Aggregate sheds since the previous sample, from RouterLoadSnapshot::total_sheds()
  // — monotone across ring changes, so the delta is epoch-safe.
  int64_t shed_delta = 0;
  size_t spare_replicas = 0;  // live cluster replicas not currently coordinating
  size_t window_index = 0;    // current rung on the batch-window ladder
  size_t window_ladder_size = 0;
};

struct OrchestratorOptions {
  // Virtual time between control ticks. 250 ms gives the WAN topology (~90 ms worst
  // RTT) a full round trip of settling between consecutive decisions.
  SimDuration control_interval = Millis(250);
  // Batch-window rungs, ascending (see file comment for the bench-derived default).
  std::vector<SimDuration> window_ladder = {0, Millis(1), Millis(5), Millis(20)};
  // Hysteresis bands on mean outstanding-per-shard: widen at or above the high band,
  // shrink at or below the low band. The gap between them is what prevents the window
  // from oscillating when load sits between the rungs.
  double widen_outstanding_per_shard = 16.0;
  double shrink_outstanding_per_shard = 2.0;
  // Consecutive shedding intervals before scaling the ring out: one interval of sheds
  // may be a transient burst; two means the queue limit is genuinely too tight.
  int shed_intervals_to_scale_out = 2;
  // Consecutive cool intervals (no sheds AND outstanding at or under the cool band)
  // before scaling in. Deliberately the slow direction: growing too late sheds work,
  // shrinking too early immediately re-sheds it.
  int cool_intervals_to_scale_in = 6;
  double cool_outstanding_per_shard = 1.0;
  // Decide() calls to sit out after emitting an action, letting its effect reach the
  // counters before the next judgement.
  int cooldown_intervals = 2;
  size_t min_coordinators = 1;
  size_t max_coordinators = 64;
  // PrimaryLoadEstimate sampling (harness-side): fixed count + seed keep the estimate
  // a pure function of the ring, identical at every width.
  int load_estimate_samples = 128;
  uint64_t load_estimate_seed = 42;
};

// The pure decision core. Holds only deterministic episode state (streaks, cooldown);
// feeding the same sample sequence always yields the same action sequence.
class OrchestratorPolicy {
 public:
  OrchestratorPolicy() : OrchestratorPolicy(OrchestratorOptions{}) {}
  explicit OrchestratorPolicy(OrchestratorOptions options) : options_(std::move(options)) {}

  // One control interval: returns at most one action. Streaks update every call (even
  // under cooldown, so a saturation episode is never under-counted); the cooldown only
  // gates *emission*. Priority when several conditions hold: scale-out (sheds mean
  // work is being refused — capacity first), then widen (cut msgs/op under
  // saturation), then shrink, then scale-in (the most disruptive, and the slowest to
  // qualify). Monotone by construction: a strictly higher shed_delta can only extend
  // the shed streak and reset the cool streak, so it never triggers scale-in.
  ControlAction Decide(const ControlSample& sample);

  const OrchestratorOptions& options() const { return options_; }
  int64_t intervals_observed() const { return intervals_; }
  int64_t actions_emitted() const { return actions_; }

 private:
  ControlAction Emit(ControlActionKind kind, size_t detail);

  OrchestratorOptions options_;
  int64_t intervals_ = 0;
  int64_t actions_ = 0;
  int cooldown_ = 0;
  int shed_streak_ = 0;  // consecutive intervals with shed_delta > 0
  int cool_streak_ = 0;  // consecutive intervals cool enough to justify scale-in
};

// One applied control decision, for logs, tests, and the width-sweep fingerprint.
struct OrchestratorEvent {
  SimTime at = 0;
  ControlActionKind kind = ControlActionKind::kNone;
  size_t detail = 0;
  uint64_t ring_epoch = 0;  // after the action applied
  int64_t shed_delta = 0;
  size_t total_outstanding = 0;
};

// Harness glue: samples the deployment, lets the policy decide, actuates, repeats.
// Construct after placing the stack, then Start(); call Stop() before draining the
// world with RunAll (the tick is self-rescheduling, like the failure detector's probe
// timer). The orchestrator must outlive the group's last round.
class Orchestrator {
 public:
  Orchestrator(LoopGroup* group, ShardedCassandraStack* stack,
               OrchestratorOptions options = {});

  // Baselines the shed counters and schedules the first tick one control interval
  // from now. Driver thread, between rounds.
  void Start();
  // Stops the loop: the already-scheduled tick (if any) becomes a no-op.
  void Stop();
  bool running() const { return running_; }

  size_t window_index() const { return window_index_; }
  SimDuration current_window() const { return options_.window_ladder.at(window_index_); }
  const OrchestratorPolicy& policy() const { return policy_; }
  const std::vector<OrchestratorEvent>& events() const { return events_; }
  int64_t ticks() const { return ticks_; }

  // Compact encoding of the applied-action log (time/kind/detail/epoch per event) —
  // what the width-sweep oracle compares bit-for-bit.
  std::string EventLogFingerprint() const;

 private:
  void Tick();
  ControlSample Sample();
  void Apply(const ControlAction& action, const ControlSample& sample);
  // A replica outside the coordinator ring that has not crashed: what a scale-out may
  // promote.
  bool IsLiveSpare(const KvReplica& replica) const;
  int64_t TotalSheds() const;
  void Record(ControlActionKind kind, size_t detail, const ControlSample& sample);

  LoopGroup* group_;
  ShardedCassandraStack* stack_;
  OrchestratorOptions options_;
  OrchestratorPolicy policy_;

  bool running_ = false;
  uint64_t generation_ = 0;  // Stop() bumps it; a stale tick sees the mismatch and dies
  size_t window_index_ = 0;
  int64_t last_total_sheds_ = 0;
  int64_t ticks_ = 0;
  std::vector<OrchestratorEvent> events_;
};

}  // namespace icg

#endif  // ICG_HARNESS_ORCHESTRATOR_H_
