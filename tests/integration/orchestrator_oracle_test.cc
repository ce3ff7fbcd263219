// Self-driving control plane oracle: ONE sharded-Cassandra world (5 replicas, 2
// starting coordinators, every replica on its own LoopGroup lane) under a seeded
// randomized multi-client load whose offered rate ramps 10x mid-run and then decays.
// The Orchestrator runs as a real control loop inside the deployment — sampling router
// snapshots and keyspace shares every 250ms of virtual time, widening/shrinking the
// batch window, scaling coordinators out on sustained sheds and back in as the ring
// cools — while the full ICG contract is enforced through every controller action:
// weakest-first monotone delivery, exactly one terminal per admitted invocation, no
// views after a terminal, per-key program order into replica state. Overload sheds are
// the one sanctioned "failure": they surface synchronously as retryable kOverloaded
// errors and the workload retries them with a virtual-time backoff.
//
// The trial runs at thread widths 0, 2, and 4 (and 8 when ICG_ORACLE_WIDTH8=1 — the
// TSan job sets it). Every width must produce a bit-for-bit identical fingerprint,
// INCLUDING the orchestrator's applied-action log: same actions, same virtual
// timestamps, same ring epochs. On top of determinism the trial asserts the episode
// shape — the ramp provokes sheds and at least one scale-out, the controller returns
// the deployment to a quiescent config once load settles (no actions at all in the
// final settle window), and each knob flips direction at most once per episode
// (out...out,in...in — never out,in,out thrash).
//
// The RNG seed comes from ICG_ORACLE_SEED (default 12345); CI sweeps several seeds.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/harness/deployment.h"
#include "src/harness/executors.h"
#include "src/harness/orchestrator.h"
#include "src/sim/loop_group.h"
#include "tests/integration/oracle_support.h"

namespace icg {
namespace {

constexpr int kReplicas = 5;
constexpr int kStartCoordinators = 2;
constexpr int kKeys = 24;
constexpr int kClients = 3;
constexpr size_t kQueueLimit = 8;
constexpr SimDuration kRetryBackoff = Millis(50);

// The ONE sanctioned terminal error is a retryable overload shed — backpressure is how
// the deployment signals the controller, so the oracle admits it (and the workload
// retries it) but nothing else may fail.
struct AutoscaleTrial : ShardedTrial {
  explicit AutoscaleTrial(uint64_t seed)
      : ShardedTrial(seed * 19, kStartCoordinators, kRegions5, BatchConfig{}, KvConfig{},
                     AllowedErrors::kOverloadOnly) {
    stack.SetShardQueueLimit(kQueueLimit);
    Preload("akey", kKeys);
  }
};

// min_coordinators = kStartCoordinators gives the scale-in cascade a floor the episode
// must return to.
OrchestratorOptions AutoscaleOptions() {
  OrchestratorOptions options;
  options.min_coordinators = kStartCoordinators;
  return options;
}

// Offered load: ~80 ops/s for 2s, a 10x ramp (~800 ops/s) for 1.5s, then ~80 ops/s
// again for 2s. Writes are key-partitioned per client so per-key program order stays a
// checkable invariant even with shed-and-retry in the mix. Each shed retry bumps
// `shed_attempts`.
void ScheduleRamp(ShardedTrial& trial, uint64_t seed, int64_t& shed_attempts) {
  const LoadShape phases[] = {
      {0, Seconds(2), 160, kKeys, "akey"},
      {Seconds(2), Millis(1500), 1200, kKeys, "akey"},
      {Seconds(2) + Millis(1500), Seconds(2), 160, kKeys, "akey"},
  };
  Rng rng(seed * 53);
  EventLoop* front = &trial.world.loop();
  int writes = 0;
  for (const LoadShape& phase : phases) {
    for (int i = 0; i < phase.ops; ++i) {
      const RandomOp op = DrawOp(rng, phase, kClients, writes);
      // Sheds surface at admission (queue over limit) and at cohort flush (the window
      // held the op while the shard went over); both retry, so program order lists
      // exactly the admitted writes.
      CorrectableClient* client = trial.clients[op.client];
      front->Schedule(op.at, [&trial, &shed_attempts, front, client, op]() {
        trial.checker.StartRetryingSheds(*client, *front, op.kind, op.key, op.value,
                                         kRetryBackoff, [&shed_attempts]() { ++shed_attempts; });
      });
    }
  }
}

std::string RunAutoscaleTrial(int threads, uint64_t seed) {
  SCOPED_TRACE("autoscale threads=" + std::to_string(threads) +
               " seed=" + std::to_string(seed));
  LoopGroup group({.threads = threads, .quantum = Millis(2)});
  AutoscaleTrial trial(seed);
  int64_t shed_attempts = 0;

  PlaceShardsAcrossLoops(group, trial.world, trial.stack);
  EXPECT_EQ(group.size(), kReplicas + 1);

  Orchestrator orchestrator(&group, &trial.stack, AutoscaleOptions());
  orchestrator.Start();
  EXPECT_EQ(orchestrator.window_index(), 0u);  // batching starts disabled (rung 0)
  ScheduleRamp(trial, seed, shed_attempts);

  // Drive well past the load so the controller can finish the whole episode: widen and
  // scale out through the ramp, then shrink and scale back in as the ring cools.
  group.RunUntil(Seconds(12));
  orchestrator.Stop();
  group.RunAll();
  EXPECT_EQ(group.pending_messages(), 0u);
  EXPECT_GT(group.metrics().Value("channel_messages"), 0);

  // Per-key program order across every controller action: each replica converged to
  // the last admitted write whatever the ring did in between.
  ExpectKvContract(trial, "autoscale");

  // Episode shape. The ramp must overflow the shard queues and provoke a scale-out;
  // once load settles the controller must hand back a quiescent deployment: window at
  // the bottom rung, ring back at the floor, and NO actions in the settle window.
  EXPECT_GT(shed_attempts, 0) << "the 10x ramp never overflowed a shard queue";
  int scale_outs = 0;
  for (const OrchestratorEvent& event : orchestrator.events()) {
    if (event.kind == ControlActionKind::kScaleOut) ++scale_outs;
    EXPECT_LT(event.at, Seconds(10))
        << "controller still acting long after the load settled: "
        << ControlActionName(event.kind) << " at " << event.at;
  }
  EXPECT_GE(scale_outs, 1);
  EXPECT_EQ(orchestrator.window_index(), 0u);
  EXPECT_EQ(trial.stack.coordinator_ids().size(),
            static_cast<size_t>(kStartCoordinators));

  // At most one direction flip per knob per episode: the window may widen then come
  // back down, the ring may grow then shrink — but never thrash out/in/out.
  int window_flips = 0;
  int ring_flips = 0;
  int last_window_dir = 0;
  int last_ring_dir = 0;
  for (const OrchestratorEvent& event : orchestrator.events()) {
    int dir = 0;
    bool ring = false;
    switch (event.kind) {
      case ControlActionKind::kWidenWindow: dir = +1; break;
      case ControlActionKind::kShrinkWindow: dir = -1; break;
      case ControlActionKind::kScaleOut: dir = +1; ring = true; break;
      case ControlActionKind::kScaleIn: dir = -1; ring = true; break;
      default: break;
    }
    if (dir == 0) continue;
    if (ring) {
      if (last_ring_dir != 0 && dir != last_ring_dir) ++ring_flips;
      last_ring_dir = dir;
    } else {
      if (last_window_dir != 0 && dir != last_window_dir) ++window_flips;
      last_window_dir = dir;
    }
  }
  EXPECT_LE(window_flips, 1) << "batch window thrashed";
  EXPECT_LE(ring_flips, 1) << "coordinator ring thrashed";

  // The applied-action log is part of the cross-width contract: same decisions, same
  // virtual timestamps, same ring epochs at every LoopGroup width.
  return trial.checker.Fingerprint() + "|orch:" + orchestrator.EventLogFingerprint() + "|epoch" +
         std::to_string(trial.stack.ring_epoch()) + "|sheds" +
         std::to_string(shed_attempts) + "|rounds" +
         std::to_string(group.rounds()) + "|sched" +
         std::to_string(group.barrier_schedule_hash());
}

TEST(OrchestratorOracle, ControlDecisionsAreBitIdenticalAcrossWidths) {
  const uint64_t seed = SeedFromEnv();
  ExpectWidthsAgree([seed](int threads) { return RunAutoscaleTrial(threads, seed); });
}

// A scale-out promotes only a live spare. Replica 2, the first spare in cluster order,
// crashes before the controller starts; the ramp's scale-outs must pass over it. The
// crashed replica misses writes, so the check is the controller's choice, not the KV
// contract.
TEST(OrchestratorOracle, ScaleOutSkipsCrashedSpares) {
  const uint64_t seed = SeedFromEnv();
  LoopGroup group({.threads = 0, .quantum = Millis(2)});
  AutoscaleTrial trial(seed);
  int64_t shed_attempts = 0;
  PlaceShardsAcrossLoops(group, trial.world, trial.stack);
  const NodeId crashed = trial.stack.cluster->replicas()[2]->id();
  trial.stack.CrashCoordinator(crashed);

  Orchestrator orchestrator(&group, &trial.stack, AutoscaleOptions());
  orchestrator.Start();
  ScheduleRamp(trial, seed, shed_attempts);
  group.RunUntil(Seconds(5));
  orchestrator.Stop();

  int scale_outs = 0;
  for (const OrchestratorEvent& event : orchestrator.events()) {
    if (event.kind == ControlActionKind::kScaleOut) {
      ++scale_outs;
      EXPECT_NE(event.detail, static_cast<size_t>(crashed)) << "promoted a crashed replica";
    }
  }
  EXPECT_GE(scale_outs, 1);
}

}  // namespace
}  // namespace icg
