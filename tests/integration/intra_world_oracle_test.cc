// Intra-world parallel sharding oracle: ONE sharded-Cassandra world whose four
// coordinators live on four LoopGroup lanes (PlaceShardsAcrossLoops) while its three
// client endpoints drive load from the front loop. Every client<->coordinator request,
// quorum fan-out, read repair, and replication now crosses loops through the group
// channel — the real §6-style deployment, not independent worlds.
//
// The trial runs at thread widths 0 (deterministic sequential), 2, and 4 (and 8 when
// ICG_ORACLE_WIDTH8=1 — the TSan job sets it). Every width must (a) leave every
// invocation oracle-clean — weakest-first monotone delivery, exactly one terminal,
// per-key program order into replica state — and (b) produce a bit-for-bit identical
// outcome fingerprint, validating work-stealing threaded rounds against the sequential
// driver over genuinely cross-loop message flows.
//
// The RNG seed comes from ICG_ORACLE_SEED (default 12345); CI sweeps several seeds.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "src/harness/deployment.h"
#include "src/harness/executors.h"
#include "src/sim/loop_group.h"
#include "tests/integration/oracle_support.h"

namespace icg {
namespace {

constexpr int kCoordinators = 4;
constexpr int kKeys = 36;
constexpr int kClients = 3;
constexpr int kOps = 300;

std::string RunTrial(int threads, uint64_t seed, bool adaptive = false) {
  SCOPED_TRACE("threads=" + std::to_string(threads) + " seed=" + std::to_string(seed) +
               (adaptive ? " adaptive" : ""));
  LoopGroup group({.threads = threads,
                   .quantum = Millis(2),
                   .adaptive_quantum = adaptive,
                   .max_quantum = Millis(32)});
  ShardedTrial trial(seed * 11, kCoordinators, kRegions4, {.batch_window = Millis(2)});
  trial.Preload("ikey", kKeys);

  const IntraWorldPlacement placement =
      PlaceShardsAcrossLoops(group, trial.world, trial.stack);
  EXPECT_EQ(placement.replica_slots.size(), static_cast<size_t>(kCoordinators));
  // Every coordinator must have left the front loop, each on its own lane.
  std::set<int> lanes;
  for (const int slot : placement.replica_slots) {
    EXPECT_NE(slot, placement.front_slot);
    lanes.insert(slot);
  }
  EXPECT_EQ(lanes.size(), static_cast<size_t>(kCoordinators));
  EXPECT_EQ(group.size(), kCoordinators + 1);

  // Random client load from the front loop: reads at every level plus ICG reads, writes
  // key-partitioned per client so per-key program order is a checkable invariant.
  Rng rng(seed * 41);
  ScheduleRandomLoad(trial, rng, {0, Seconds(2), kOps, kKeys, "ikey"});

  group.RunAll();
  EXPECT_EQ(group.pending_messages(), 0u);
  // The placement must have been exercised: client<->coordinator flows cross loops.
  EXPECT_GT(group.metrics().Value("channel_messages"), 0);

  // Per-key program order: the last client-submitted write is what every replica
  // converged to (replication + read repair ran across lanes).
  ExpectKvContract(trial, "widths");

  ClientStats merged;
  ClientStatsGroup stats(1);
  for (const auto& endpoint : trial.stack.endpoints()) {
    stats.Absorb(0, endpoint->client->stats());
  }
  merged = stats.Merged();
  EXPECT_EQ(merged.invocations, kOps);
  EXPECT_GE(merged.views_delivered, merged.invocations);
  EXPECT_EQ(merged.errors, 0);

  // The barrier schedule itself is part of the contract: under adaptive quanta the
  // round widths are a function of virtual-time state only, so the exact barrier
  // sequence — not just the application outcome — must agree across widths.
  return trial.checker.Fingerprint() + "|rounds" + std::to_string(group.rounds()) + "|sched" +
         std::to_string(group.barrier_schedule_hash());
}

// Satellite regression: a stack built with spares (5 replicas, 3 coordinators) must give
// EVERY replica its own lane at placement time — lanes cannot be added once the group
// advances, so a spare promoted live via AddCoordinator mid-run coordinates from its own
// lane instead of silently sharing the front loop. The promotion happens between rounds
// at t=1s with load still in flight; widths 0/2/4(/8) must agree bit-for-bit.
std::string RunPromotionTrial(int threads, uint64_t seed) {
  SCOPED_TRACE("promotion threads=" + std::to_string(threads) +
               " seed=" + std::to_string(seed));
  LoopGroup group({.threads = threads, .quantum = Millis(2)});
  ShardedTrial trial(seed * 13, /*coordinators=*/3, kRegions5, {.batch_window = Millis(2)},
                     KvConfig{}, AllowedErrors::kNone, /*client_regions=*/{Region::kFrankfurt});
  trial.clients.push_back(trial.stack.client());  // the stack's client stands in twice
  trial.Preload("ikey", kKeys);

  const IntraWorldPlacement placement =
      PlaceShardsAcrossLoops(group, trial.world, trial.stack);
  const auto& replicas = trial.stack.cluster->replicas();
  // Spares are laned too: 5 replica lanes + the front loop, all slots distinct.
  EXPECT_EQ(placement.replica_slots.size(), replicas.size());
  std::set<int> lanes(placement.replica_slots.begin(), placement.replica_slots.end());
  EXPECT_EQ(lanes.size(), replicas.size());
  EXPECT_EQ(lanes.count(placement.front_slot), 0u);
  EXPECT_EQ(group.size(), replicas.size() + 1);

  // ICG reads and key-partitioned writes.
  Rng rng(seed * 41);
  int writes = 0;
  for (int i = 0; i < kOps; ++i) {
    RandomOp op;
    op.at = static_cast<SimDuration>(rng.NextBounded(Seconds(2)));
    op.client = static_cast<size_t>(rng.NextBounded(kClients));
    const bool is_write = rng.NextBool(0.25);
    int key_index = static_cast<int>(rng.NextBounded(kKeys));
    if (is_write) {
      key_index = (key_index / kClients) * kClients + static_cast<int>(op.client);
      op.kind = OpKind::kWrite;
      op.value = "c" + std::to_string(op.client) + "-" + std::to_string(writes++);
    }
    op.key = "ikey" + std::to_string(key_index);
    ScheduleOp(trial.checker, trial.world.loop(), *trial.clients[op.client], op);
  }

  std::vector<NodeId> spares;
  for (const auto& replica : replicas) {
    const auto& ids = trial.stack.coordinator_ids();
    if (std::find(ids.begin(), ids.end(), replica->id()) == ids.end()) {
      spares.push_back(replica->id());
    }
  }
  EXPECT_EQ(spares.size(), 2u);
  if (spares.empty()) return "no-spares";

  group.RunUntil(Seconds(1));
  const NodeId promoted = spares[seed % spares.size()];
  const uint64_t epoch_before = trial.stack.ring_epoch();
  trial.stack.AddCoordinator(promoted);
  EXPECT_EQ(trial.stack.ring_epoch(), epoch_before + 1);
  EXPECT_EQ(trial.stack.coordinator_ids().size(), 4u);
  group.RunAll();
  EXPECT_EQ(group.pending_messages(), 0u);
  EXPECT_GT(group.metrics().Value("channel_messages"), 0);

  // The joiner really coordinates from its own lane: traffic reached it post-promotion.
  KvReplica* joined = nullptr;
  for (const auto& replica : replicas) {
    if (replica->id() == promoted) joined = replica.get();
  }
  EXPECT_NE(joined, nullptr);
  if (joined != nullptr) {
    EXPECT_GT(joined->metrics().Value("writes_coordinated") +
                  joined->metrics().Value("reads_coordinated"),
              0);
  }
  // Program order still converges across the membership change: client LWW stamps make
  // the last submitted write per key win no matter which coordinator applied it.
  ExpectKvContract(trial, "promotion");
  return trial.checker.Fingerprint() + "|epoch" + std::to_string(trial.stack.ring_epoch()) +
         "|promoted" + std::to_string(promoted);
}

TEST(IntraWorldOracle, LivePromotionOwnsItsLaneAcrossWidths) {
  const uint64_t seed = SeedFromEnv();
  ExpectWidthsAgree([seed](int threads) { return RunPromotionTrial(threads, seed); });
}

TEST(IntraWorldOracle, WidthsAgreeBitForBit) {
  const uint64_t seed = SeedFromEnv();
  ExpectWidthsAgree([seed](int threads) { return RunTrial(threads, seed); });
}

// Adaptive quanta under the full deployment: the same trial with round widths chasing
// the earliest pending activity. The fingerprint includes the exact barrier schedule,
// so this fails if adaptation ever consults anything but virtual-time state.
TEST(IntraWorldOracle, AdaptiveQuantaAgreeBitForBit) {
  const uint64_t seed = SeedFromEnv();
  ExpectWidthsAgree([seed](int threads) { return RunTrial(threads, seed, /*adaptive=*/true); });
}

// Stats-driven live rebalancing: 4 coordinators packed onto 3 lanes (max_lanes), all
// client load aimed at keys one co-tenant coordinator owns. The PlacementAdvisor must
// notice the hot lane from virtual-time counters and RebalanceShardPlacement must
// migrate the hot coordinator to the cold lane mid-run — between rounds, under a
// fused-lane drain window — without losing a message or an oracle property. The moves
// and the full outcome fingerprint must be identical at every width.
std::string RunRebalanceTrial(int threads, uint64_t seed) {
  SCOPED_TRACE("rebalance threads=" + std::to_string(threads) +
               " seed=" + std::to_string(seed));
  LoopGroup group({.threads = threads, .quantum = Millis(2)});
  ShardedTrial trial(seed * 17, kCoordinators, kRegions4);

  IntraWorldPlacement placement =
      PlaceShardsAcrossLoops(group, trial.world, trial.stack, /*max_lanes=*/3);
  EXPECT_EQ(placement.lane_slots.size(), 3u);
  EXPECT_EQ(placement.replica_slots.size(), static_cast<size_t>(kCoordinators));
  // Round-robin packing: replicas 0 and 3 share lane 0 — co-tenancy is what gives the
  // advisor something to split.
  EXPECT_EQ(placement.replica_slots[0], placement.replica_slots[3]);

  // Aim every operation at keys PRIMARY-owned by replica 0, the lane-0 co-tenant: its
  // coordination work (plus replica 3's replication echo) makes lane 0 the hot lane.
  const auto& replicas = trial.stack.cluster->replicas();
  const NodeId hot_id = replicas[0]->id();
  std::vector<std::string> hot_keys;
  for (int k = 0; k < 400 && hot_keys.size() < 12; ++k) {
    const std::string key = "rebal" + std::to_string(k);
    if (trial.stack.shard_map().PrimaryFor(key) == hot_id) {
      hot_keys.push_back(key);
    }
  }
  EXPECT_GE(hot_keys.size(), 3u);
  if (hot_keys.size() < 3) return "no-hot-keys";
  for (const std::string& key : hot_keys) {
    trial.stack.cluster->Preload(key, "init");
  }

  // The op schedule leaves a deliberate 300ms breather at [1.4s, 1.7s): a live
  // migration needs an instant where the hot coordinator has no read in flight, and
  // under continuous load every sample could catch it mid-quorum. Real rebalancers
  // have the same constraint — they move shards in lulls, not mid-request.
  Rng rng(seed * 29);
  int writes = 0;
  for (int i = 0; i < kOps; ++i) {
    RandomOp op;
    op.at = static_cast<SimDuration>(rng.NextBounded(Seconds(3) - Millis(300)));
    if (op.at >= Millis(1400)) op.at += Millis(300);
    op.client = static_cast<size_t>(rng.NextBounded(kClients));
    const bool is_write = rng.NextBool(0.3);
    size_t key_index = static_cast<size_t>(rng.NextBounded(hot_keys.size()));
    if (is_write) {
      // Key-partitioned writes per client keep per-key program order checkable.
      key_index = (key_index / kClients) * kClients + op.client;
      if (key_index >= hot_keys.size()) key_index = op.client % hot_keys.size();
      op.kind = OpKind::kWrite;
      op.value = "c" + std::to_string(op.client) + "-" + std::to_string(writes++);
    }
    op.key = hot_keys[key_index];
    ScheduleOp(trial.checker, trial.world.loop(), *trial.clients[op.client], op);
  }

  // Sample-and-rebalance between rounds; the 1550ms sample lands inside the load
  // breather, where the hot coordinator is guaranteed migratable and the preceding
  // interval still carries the full skew. The advisor sees only virtual counters, so
  // which interval moves what is width-independent by construction. No cooldown: a
  // move advised while the target is mid-quorum is dropped, and the advisor must be
  // free to re-advise it at the very next sample.
  PlacementAdvisorOptions advisor_options;
  advisor_options.hot_ratio = 1.2;
  advisor_options.min_total_load = 64;
  advisor_options.cooldown_intervals = 0;
  PlacementAdvisor advisor(advisor_options);
  std::vector<PlacementMove> applied;
  for (const int tick_ms : {500, 1000, 1550, 2000, 2500, 3000, 3500}) {
    group.RunUntil(Millis(tick_ms));
    const auto moves =
        RebalanceShardPlacement(group, trial.world, trial.stack, placement, advisor);
    applied.insert(applied.end(), moves.begin(), moves.end());
  }
  group.RunAll();
  // A move at the final tick leaves its drain fusion pending; run past the window so
  // it dissolves (fusions expire at the first barrier at or past their deadline).
  group.RunUntil(Millis(3500) + Millis(400));
  EXPECT_EQ(group.pending_messages(), 0u);
  EXPECT_GT(group.metrics().Value("channel_messages"), 0);
  EXPECT_EQ(group.active_fusions(), 0);

  // The skew must actually have provoked at least one live migration.
  EXPECT_GE(applied.size(), 1u);
  // Program order survives the migration: every replica converged to the last
  // submitted write per key even though its coordinator changed lanes mid-run.
  ExpectKvContract(trial, "rebalance");

  std::ostringstream out;
  out << trial.checker.Fingerprint() << "|moves:";
  for (const PlacementMove& move : applied) {
    out << move.entity << ":" << move.from_slot << ">" << move.to_slot << ";";
  }
  out << "|rounds" << group.rounds() << "|sched" << group.barrier_schedule_hash();
  return out.str();
}

TEST(IntraWorldOracle, RebalanceMigratesHotShardAcrossWidths) {
  const uint64_t seed = SeedFromEnv();
  ExpectWidthsAgree([seed](int threads) { return RunRebalanceTrial(threads, seed); });
}

}  // namespace
}  // namespace icg
