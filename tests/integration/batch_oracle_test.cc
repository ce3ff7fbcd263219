// Randomized consistency oracle for the cross-tick batching engine: N clients issue
// random reads and writes at random times through real storage stacks, across batch
// windows 0 (legacy same-tick coalescing), small, and large. Whatever the batching
// layer merges, splits, delays, or fans back out, every Correctable must still obey the
// paper's contract — weakest-first monotone view delivery, exactly one terminal view
// (no lost or duplicated finals), and per-key write program order surviving all the way
// into replica state. IcgContractChecker states the contract; oracle_support.h holds the
// seed (ICG_ORACLE_SEED, default 12345; CI sweeps several), the width sweep and the load.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "src/bindings/blockchain_binding.h"
#include "src/harness/deployment.h"
#include "tests/integration/oracle_support.h"

namespace icg {
namespace {

// kKeys is a multiple of the three clients so the single-writer-per-key partition of
// DrawOp is exact: a write never moves past the last key.
constexpr int kKeys = 39;

std::string OracleKey(int index) { return "okey" + std::to_string(index); }

// The sharded trials' load: 400 random ops from the three clients over three seconds.
const LoadShape kShardedLoad{0, Seconds(3), 400, kKeys, "okey"};

// One randomized trial over the sharded Cassandra deployment (3 routed clients, one per
// region) with static membership.
void RunShardedOracleTrial(SimDuration window, uint64_t seed) {
  SCOPED_TRACE("window_us=" + std::to_string(window) + " seed=" + std::to_string(seed));
  ShardedTrial trial(seed, /*coordinators=*/3, kRegions3, {.batch_window = window});
  trial.Preload("okey", kKeys);

  Rng rng(seed * 31 + static_cast<uint64_t>(window));
  ScheduleRandomLoad(trial, rng, kShardedLoad);
  trial.world.loop().Run();

  ExpectKvContract(trial, "sharded");

  // Counter sanity: window 0 must never open a cross-tick batch; a wide window under
  // this op rate must.
  int64_t cross_tick = 0;
  for (const CorrectableClient* client : trial.clients) {
    cross_tick += client->stats().cross_tick_batches;
  }
  if (window == 0) {
    EXPECT_EQ(cross_tick, 0);
  } else if (window >= Millis(20)) {
    EXPECT_GT(cross_tick, 0);
  }
}

TEST(BatchOracle, ShardedCassandraAcrossWindows) {
  const uint64_t seed = SeedFromEnv();
  for (const SimDuration window : {Millis(0), Millis(2), Millis(25)}) {
    RunShardedOracleTrial(window, seed);
  }
}

// --- Membership churn: the same oracle while coordinators join and leave mid-run -------
//
// A 5-replica cluster starts with 3 coordinators; scheduled churn events promote spare
// replicas into the ring and demote serving coordinators out of it while the 3-client
// random load is in flight. Whatever the rebalancer re-routes, retires, or re-plans,
// every Correctable must still satisfy the full contract — weakest-first monotone
// delivery, exactly one terminal view, per-key write program order into replica state —
// and no invocation may be lost to a coordinator that left with work pending.
void RunChurnOracleTrial(SimDuration window, uint64_t seed) {
  SCOPED_TRACE("churn window_us=" + std::to_string(window) + " seed=" + std::to_string(seed));
  ShardedTrial trial(seed, /*coordinators=*/3, kRegions5, {.batch_window = window});
  trial.Preload("okey", kKeys);

  Rng rng(seed * 131 + static_cast<uint64_t>(window));
  ScheduleRandomLoad(trial, rng, kShardedLoad);

  // The churn schedule: 8 membership events spread through the load window, decided at
  // fire time from a forked deterministic stream. Adds promote a random spare replica;
  // removes demote a random serving coordinator (always keeping >= 2 in the ring). The
  // run must exercise BOTH directions to count.
  auto churn_rng = std::make_shared<Rng>(rng.Fork());
  auto adds = std::make_shared<int>(0);
  auto removes = std::make_shared<int>(0);
  auto epochs_seen = std::make_shared<std::vector<uint64_t>>();
  ShardedCassandraStack* stack_ptr = &trial.stack;
  for (int event = 0; event < 8; ++event) {
    const SimDuration at =
        Millis(300) + static_cast<SimDuration>(rng.NextBounded(Millis(2400)));
    trial.world.loop().Schedule(at, [stack_ptr, churn_rng, adds, removes, epochs_seen]() {
      std::vector<NodeId> spares;
      for (const auto& replica : stack_ptr->cluster->replicas()) {
        const auto& ids = stack_ptr->coordinator_ids();
        if (std::find(ids.begin(), ids.end(), replica->id()) == ids.end()) {
          spares.push_back(replica->id());
        }
      }
      const bool can_remove = stack_ptr->coordinator_ids().size() > 2;
      const bool do_add = !spares.empty() && (!can_remove || churn_rng->NextBool(0.5));
      if (do_add) {
        const NodeId joiner = spares[churn_rng->NextBounded(spares.size())];
        const auto diff = stack_ptr->AddCoordinator(joiner);
        EXPECT_GT(diff.to_epoch, diff.from_epoch);
        (*adds)++;
      } else if (can_remove) {
        const auto& ids = stack_ptr->coordinator_ids();
        const NodeId leaver = ids[churn_rng->NextBounded(ids.size())];
        const auto diff = stack_ptr->RemoveCoordinator(leaver);
        EXPECT_GT(diff.to_epoch, diff.from_epoch);
        (*removes)++;
      }
      epochs_seen->push_back(stack_ptr->ring_epoch());
    });
  }

  trial.world.loop().Run();

  EXPECT_GE(*adds, 1) << "churn trial never promoted a coordinator";
  EXPECT_GE(*removes, 1) << "churn trial never demoted a coordinator";
  for (size_t i = 1; i < epochs_seen->size(); ++i) {
    EXPECT_GT((*epochs_seen)[i], (*epochs_seen)[i - 1]) << "ring epochs must increase";
  }

  // The full static-membership contract must hold verbatim under churn: per-invocation
  // monotone weakest-first delivery and exactly-one-terminal, per-key write program
  // order through acked versions AND replica convergence (churn may re-route a key's
  // writes to a new coordinator mid-stream), and reads observing only known values — a
  // rebalance must never surface a torn batch slice or a value from the wrong key.
  ExpectKvContract(trial, "churn");
}

TEST(BatchOracle, MembershipChurnAcrossWindows) {
  const uint64_t seed = SeedFromEnv();
  for (const SimDuration window : {Millis(0), Millis(5)}) {
    RunChurnOracleTrial(window, seed);
  }
}

// --- Kill -9 mid-cohort: the crash-failover oracle --------------------------------------
//
// The same randomized load, but a coordinator is kill -9'd mid-run (mid-batch-window and
// mid-multiput-cohort at whatever instants the seed lands on), the heartbeat detector
// fails over around the corpse, and the replica later recovers from snapshot + WAL
// replay and rejoins at a fresh ring epoch. The contract under crashes:
//
//   * every invocation still closes exactly once — errors (timeout / retryable
//     OVERLOADED sheds during the failover window) are legal, duplicated or lost
//     terminals are not, and views never regress or trail a terminal;
//   * no acked write is lost: every replica converges to a value whose version is at
//     least the last acked version of its key, and equal versions carry equal values
//     (replay under LWW must not duplicate an acked write under a fresh stamp);
//   * reads only ever observe written values — a torn WAL tail must never surface;
//   * ring epochs advance by at least two (failover + re-admission) and the failover
//     log records detection and rejoin.
//
// The trial runs at LoopGroup widths 0/2/4 (8 under ICG_ORACLE_WIDTH8) and must produce
// a bit-identical fingerprint at every width: crash, detection, recovery, and replay all
// ride the deterministic substrate. ICG_WAL_FAULTS=1 additionally enables slow-fsync +
// torn-tail fault injection (the CI fault sweep).
std::string RunCrashOracleTrial(int threads, SimDuration window, uint64_t seed) {
  SCOPED_TRACE("crash threads=" + std::to_string(threads) +
               " window_us=" + std::to_string(window) + " seed=" + std::to_string(seed));
  LoopGroup group({.threads = threads, .quantum = Millis(2)});
  KvConfig kv;
  kv.wal_fsync_service = Micros(120);  // acked => fsynced, with a real (simulated) cost
  kv.snapshot_every = 64;              // snapshots + WAL truncation exercise mid-run
  if (EnvFlag("ICG_WAL_FAULTS")) {
    kv.wal_fsync_service = Micros(150);
    kv.wal_torn_tail = true;
  }

  // Errors are legal in the failover window; nothing else is.
  ShardedTrial trial(seed * 13, /*coordinators=*/3, kRegions5, {.batch_window = window}, kv,
                     AllowedErrors::kAny);
  ShardedCassandraStack& stack = trial.stack;
  for (CorrectableClient* client : trial.clients) {
    // A request parked on a corpse has no coordinator-side timeout to save it: the
    // client-side invocation timeout is what closes those terminals.
    client->SetTimeout(Seconds(3));
  }
  stack.SetShardQueueLimit(32);  // failover-window backpressure: shed, don't queue
  trial.Preload("okey", kKeys);
  PlaceShardsAcrossLoops(group, trial.world, stack);
  stack.EnableFailureDetection();  // 50 ms heartbeat, 3 missed probes => failover

  Rng rng(seed * 173 + static_cast<uint64_t>(window));
  ScheduleRandomLoad(trial, rng, kShardedLoad);

  const uint64_t epoch_before = stack.ring_epoch();
  const NodeId victim =
      stack.coordinator_ids()[static_cast<size_t>(seed % stack.coordinator_ids().size())];

  // kill -9 at 1 s (mid-load, mid-window, mid-whatever-cohort the seed lined up),
  // recover at 2 s. Both mutations happen between rounds — the LoopGroup equivalent of
  // an external fault injector.
  group.RunUntil(Seconds(1));
  stack.CrashCoordinator(victim);
  group.RunUntil(Seconds(2));
  stack.RecoverCoordinator(victim);
  group.RunUntil(Seconds(6));  // load + timeouts + bootstrap drain
  stack.DisableFailureDetection();
  group.RunAll();
  EXPECT_EQ(group.pending_messages(), 0u);

  // Failover actually happened and was logged: detected after the crash, rejoined at
  // recovery, ring advanced by at least two epochs (route-around + re-admission).
  EXPECT_GE(stack.failovers(), 1);
  EXPECT_EQ(stack.failover_log().size(), 1u);
  if (stack.failover_log().empty()) {
    return "missing-failover-log";
  }
  const FailoverEvent& event = stack.failover_log().front();
  EXPECT_EQ(event.node, victim);
  EXPECT_TRUE(event.was_coordinator);
  EXPECT_GT(event.detected_at, event.crashed_at);
  EXPECT_LE(event.detected_at, Seconds(2));
  EXPECT_GE(event.rejoined_at, Seconds(2));
  EXPECT_GE(stack.ring_epoch(), epoch_before + 2);
  EXPECT_EQ(stack.coordinator_ids().size(), 3u);  // the victim is back

  // The recovered replica rebuilt from its own durable state and caught up.
  KvReplica* recovered = nullptr;
  for (const auto& replica : stack.cluster->replicas()) {
    if (replica->id() == victim) {
      recovered = replica.get();
    }
  }
  EXPECT_NE(recovered, nullptr);
  if (recovered == nullptr) {
    return "missing-recovered-replica";
  }
  EXPECT_FALSE(recovered->crashed());
  EXPECT_TRUE(recovered->last_recovery().bootstrap_complete);

  // Zero acked loss, zero duplication, converged replicas, and reads of written values
  // only — a torn WAL tail or half-replayed record must never surface.
  ExpectKvContract(trial, "crash");

  return trial.checker.Fingerprint() + "|epoch=" + std::to_string(stack.ring_epoch()) +
         "|replayed=" + std::to_string(recovered->last_recovery().wal_records_replayed) +
         "|merged=" + std::to_string(recovered->last_recovery().bootstrap_keys_merged);
}

TEST(BatchOracle, CrashFailoverRecoveryAcrossWidths) {
  const uint64_t seed = SeedFromEnv();
  for (const SimDuration window : {Millis(0), Millis(5)}) {
    ExpectWidthsAgree(
        [&](int threads) { return RunCrashOracleTrial(threads, window, seed); });
  }
}

// The same oracle over the cached-causal stack: a two-level binding whose weakest level
// is the client cache, so same-tick coalesced reads interleave with synchronous cache
// views and write-through refreshes. The binding plans no batched operations, so a batch
// window would change nothing here.
TEST(BatchOracle, CachedCausalSameTick) {
  const uint64_t seed = SeedFromEnv();
  SimWorld world(seed + 7);
  auto stack = MakeCausalStack(world);
  for (int i = 0; i < kKeys; ++i) {
    stack.cluster->Preload(OracleKey(i), "init");
  }

  IcgContractChecker checker;
  Rng rng(seed * 17);
  int writes = 0;
  for (int i = 0; i < 200; ++i) {
    RandomOp op;
    op.at = static_cast<SimDuration>(rng.NextBounded(Seconds(2)));
    const bool is_write = rng.NextBool(0.3);
    op.key = OracleKey(static_cast<int>(rng.NextBounded(kKeys)));
    op.kind = is_write ? OpKind::kWrite : OpKind::kIcgRead;
    if (is_write) {
      op.value = "w" + std::to_string(writes++);
    }
    ScheduleOp(checker, world.loop(), *stack.client, op);
  }

  world.loop().Run();
  checker.CheckClosed();
  checker.CheckAckOrder();
  checker.CheckReads("init");
  // Program order into the coordinating replica (its peers converge causally).
  checker.CheckLastWrite(
      [&stack](const std::string& key) {
        return stack.cluster->ReplicaIn(Region::kIreland)->LocalGet(key);
      },
      "coordinating replica");
  ExpectContract(checker, "causal");
  // Write-through coherence: the cache never holds a value that was never written.
  for (int i = 0; i < kKeys; ++i) {
    const auto cached = stack.cache->Get(OracleKey(i));
    if (!cached.has_value() || !cached->found) {
      continue;
    }
    EXPECT_TRUE(cached->value == "init" || checker.Written(OracleKey(i), cached->value))
        << "cache holds unwritten value for " << OracleKey(i);
  }
}

// --- Per-key fidelity of batched fan-out: a batched read must report exactly what a
// lone read would — including found-but-empty values and misses sharing the batch with
// hits.
TEST(BatchOracle, EmptyValuesAndMissesSurviveBatchedFanout) {
  SimWorld world(5, 0.0);
  BatchConfig batch;
  batch.batch_window = Millis(5);
  auto stack = MakeCassandraStack(world, KvConfig{}, CassandraBindingConfig{},
                                  Region::kIreland, Region::kFrankfurt,
                                  {Region::kFrankfurt, Region::kIreland, Region::kVirginia},
                                  batch);
  stack.cluster->Preload("empty", "");
  stack.cluster->Preload("full", "payload");

  auto empty = stack.client->InvokeStrong(Operation::Get("empty"));
  auto missing = stack.client->InvokeStrong(Operation::Get("missing"));
  auto full = stack.client->InvokeStrong(Operation::Get("full"));
  world.loop().Run();

  ASSERT_EQ(stack.client->stats().cross_tick_batches, 1);  // all three shared one flush
  ASSERT_EQ(empty.state(), CorrectableState::kFinal);
  EXPECT_TRUE(empty.Final().value().found);  // found with an empty value is not a miss
  EXPECT_EQ(empty.Final().value().value, "");
  ASSERT_EQ(missing.state(), CorrectableState::kFinal);
  EXPECT_FALSE(missing.Final().value().found);
  ASSERT_EQ(full.state(), CorrectableState::kFinal);
  EXPECT_TRUE(full.Final().value().found);
  EXPECT_EQ(full.Final().value().value, "payload");
}

// Values may hold any byte, 0x1E (ASCII record separator) included: a batched read must
// hand each waiter its own value intact, whatever its neighbours hold.
TEST(BatchOracle, SeparatorByteSurvivesBatchedFanout) {
  SimWorld world(5, 0.0);
  BatchConfig batch;
  batch.batch_window = Millis(5);
  auto stack = MakeCassandraStack(world, KvConfig{}, CassandraBindingConfig{},
                                  Region::kIreland, Region::kFrankfurt,
                                  {Region::kFrankfurt, Region::kIreland, Region::kVirginia},
                                  batch);
  const std::string tricky = std::string("x") + '\x1e' + "y";
  stack.cluster->Preload("a", tricky);
  stack.cluster->Preload("b", "z");

  auto a = stack.client->InvokeStrong(Operation::Get("a"));
  auto b = stack.client->InvokeStrong(Operation::Get("b"));
  world.loop().Run();

  ASSERT_EQ(stack.client->stats().cross_tick_batches, 1);  // both shared one flush
  ASSERT_EQ(a.state(), CorrectableState::kFinal);
  EXPECT_EQ(a.Final().value().value, tricky);
  ASSERT_EQ(b.state(), CorrectableState::kFinal);
  EXPECT_EQ(b.Final().value().value, "z");
}

// --- Scope agreement (regression for the "CoalescingScope consulted only for reads"
// audit): for every binding, a key's write must batch under exactly the scope its reads
// batch under — otherwise a routed write could flush through the wrong coordinator.
TEST(BatchOracle, ReadAndWriteScopesAgreeForEveryBinding) {
  SimWorld world(3);
  auto cassandra = MakeCassandraStack(world, KvConfig{}, CassandraBindingConfig{});
  auto sharded = MakeShardedCassandraStack(world, 3, KvConfig{}, CassandraBindingConfig{});
  auto news = MakeNewsStack(world);
  auto causal = MakeCausalStack(world);
  auto zookeeper = MakeZooKeeperStack(world);
  // Scope is independent of the backing store, so a detached binding instance suffices.
  BlockchainBinding blockchain(nullptr);

  const std::vector<const Binding*> bindings = {
      cassandra.binding.get(), sharded.router(), news.binding.get(),
      causal.binding.get(),    zookeeper.binding.get(), &blockchain};
  for (const Binding* binding : bindings) {
    SCOPED_TRACE(binding->Name());
    for (int i = 0; i < 64; ++i) {
      const std::string key = "scope-key-" + std::to_string(i);
      EXPECT_EQ(binding->CoalescingScope(Operation::Get(key)),
                binding->CoalescingScope(Operation::Put(key, "v")))
          << "read and write scopes disagree for " << key;
    }
  }
}

}  // namespace
}  // namespace icg
