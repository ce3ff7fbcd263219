// Coordinator crash + failover under load: durability cost, detection, failover dip,
// and post-recovery throughput for a sharded deployment whose coordinators log every
// write to a WAL before acking.
//
// Setup: one Cassandra-style cluster (FRK/IRL/VRG replicas, all three coordinators),
// three routed clients (one per region) driving uniform-key YCSB-B in a closed loop
// with durable writes (fsync charged on the coordinator before the ack) and the
// heartbeat failure detector armed. At one third of the trial, one coordinator is
// killed (kill -9: volatile state gone, WAL and snapshot survive); the detector evicts
// it after the configured miss window, the ring re-forms around the survivors, and
// in-flight invocations against the corpse resolve by client timeout or queue-limit
// shedding — never by a dangling invocation. At two thirds, the node restarts: it
// replays snapshot + WAL, anti-entropy syncs both directions, and rejoins the ring at
// a fresh epoch.
//
// Every invocation runs under IcgContractChecker (weakest-first monotone view levels,
// exactly one terminal, no views after the terminal; errors are legal terminals here);
// every acked write is checked against the converged replicas at the end. The
// bench FAILS on any oracle violation, on any acked-write loss, if detection takes
// longer than the configured miss window (plus slack), or if post-recovery steady-state
// throughput falls below 0.9x the pre-crash plateau.
//
// Flags: --smoke shortens the trial for CI smoke runs (the JSON summary is still
// written); output includes BENCH_failover_load.json.
#include <algorithm>
#include <string>

#include "bench/bench_util.h"
#include "src/harness/scenario.h"

namespace icg {
namespace {

constexpr int64_t kRecords = 8000;
constexpr SimDuration kBucket = Millis(250);

}  // namespace
}  // namespace icg

int main(int argc, char** argv) {
  using namespace icg;
  const bool smoke = bench::ParseSmokeFlag(argc, argv);

  const int threads = smoke ? 48 : 64;
  const SimDuration duration = smoke ? Seconds(12) : Seconds(36);
  const SimDuration warmup = smoke ? Seconds(2) : Seconds(5);
  const SimDuration crash_at = duration / 3;
  const SimDuration recover_at = 2 * duration / 3;
  // Transition windows excluded from steady state; short enough in smoke mode that a
  // post-recovery measurement window remains before the cooldown.
  const SimDuration settle = smoke ? Seconds(1) : Seconds(3);
  const uint64_t seed = 42;

  bench::PrintHeader(
      "Failover: coordinator crash + WAL recovery under YCSB load",
      "Uniform-key YCSB-B, 3 routed clients (one per region), closed loop, durable\n"
      "writes (WAL fsync before ack). One coordinator is killed at t=1/3 and restarted\n"
      "at t=2/3: heartbeat eviction, ring re-formation, snapshot+WAL replay, anti-\n"
      "entropy, re-admission. Every invocation is oracle-checked and every acked write\n"
      "must survive.");

  KvConfig kv;
  kv.wal_fsync_service = Micros(120);  // real durable writes: fsync charged before ack
  kv.snapshot_every = 512;             // checkpoint cadence keeps replay tails bounded
  // Timeouts and sheds during the failover window are expected terminals: an errored
  // write was never acked, so durability promises nothing about it.
  ShardedTrial trial(seed, /*coordinators=*/3, kRegions3, BatchConfig{}, kv,
                     AllowedErrors::kAny);
  ShardedCassandraStack& stack = trial.stack;
  IcgContractChecker& checker = trial.checker;
  // A corpse answers nothing: in-flight invocations against it must resolve by client
  // timeout, and a bounded shard queue sheds the backlog that builds before eviction.
  for (CorrectableClient* client : trial.clients) {
    client->SetTimeout(Seconds(2));
  }
  stack.SetShardQueueLimit(256);
  stack.EnableFailureDetection();

  const WorkloadConfig workload =
      WorkloadConfig::YcsbB(RequestDistribution::kUniform, kRecords);
  PreloadYcsbDataset(stack.cluster.get(), workload);

  bench::RateBuckets completions(kBucket, duration);

  RunnerConfig config;
  config.threads = threads;
  config.duration = duration;
  config.warmup = warmup;
  config.cooldown = warmup;

  EventLoop& loop = trial.world.loop();
  MultiRunner runner(&loop, config);
  AddYcsbClients(runner, trial.clients, workload, seed * 3 + 1, [&](CorrectableClient* client) {
    return MakeCheckedKvExecutor(client, &checker, [&]() { completions.Add(loop.Now()); });
  });

  const NodeId victim = stack.coordinator_ids().front();
  loop.Schedule(crash_at, [&stack, victim]() { stack.CrashCoordinator(victim); });
  loop.Schedule(recover_at, [&stack, victim]() { stack.RecoverCoordinator(victim); });
  // Stop the heartbeat chain once the measured window is over so the loop can drain.
  loop.Schedule(duration + warmup + Seconds(1), [&stack]() { stack.DisableFailureDetection(); });

  const RunnerResult load = runner.Run();
  checker.CheckClosed();

  const double pre_crash = completions.Rate(warmup, crash_at);
  const double outage = completions.Rate(crash_at + settle, recover_at);
  const double post_recovery = completions.Rate(recover_at + settle, duration - warmup);
  // Worst bucket right after the crash, and time until the completion rate first
  // reached 0.9x the pre-crash plateau again after the restart.
  const double dip = std::min(pre_crash, completions.MinRate(crash_at, crash_at + settle));
  const double rejoin_recovery_ms =
      completions.MillisToReach(0.9 * pre_crash, recover_at, recover_at + settle);

  // Failover bookkeeping from the harness: detection latency and rejoin epoch.
  double detection_ms = -1.0;
  bool rejoined = false;
  for (const FailoverEvent& event : stack.failover_log()) {
    if (event.node != victim) continue;
    if (event.detected_at >= 0) {
      detection_ms = ToMillis(event.detected_at - event.crashed_at);
    }
    rejoined = event.rejoined_at >= 0;
  }
  const KvReplica* recovered = nullptr;
  for (const auto& replica : stack.cluster->replicas()) {
    if (replica->id() == victim) recovered = replica.get();
  }

  const bool oracle_clean = checker.clean();
  // The durability contract: every version a client saw acked must be at or below what
  // the converged cluster holds for that key, on every replica.
  const int64_t acked_keys = checker.CheckNoAckedLoss(*stack.cluster);
  const int64_t acked_lost = checker.count(Violation::kAckedWriteLost);

  bench::Table table({"phase", "throughput (ops/s)", "notes"});
  table.AddRow({"pre-crash (3 coordinators)", bench::Fmt(pre_crash, 0),
                "durable writes, detector armed"});
  table.AddRow({"crash dip", bench::Fmt(dip, 0),
                "worst " + bench::Fmt(ToMillis(kBucket), 0) + " ms bucket after kill -9"});
  table.AddRow({"outage (2 coordinators)", bench::Fmt(outage, 0),
                "detection " + bench::Fmt(detection_ms, 0) + " ms, ring re-formed"});
  table.AddRow({"post-recovery (3 coordinators)", bench::Fmt(post_recovery, 0),
                "ring epoch " + std::to_string(stack.ring_epoch())});
  table.Print();

  // The miss window plus two heartbeats of probe slack.
  const double detection_bound_ms =
      ToMillis((ShardedCassandraStack::kMissThreshold + 2) *
               ShardedCassandraStack::kHeartbeatInterval);
  const bool detected = detection_ms >= 0 && detection_ms <= detection_bound_ms;
  const bool recovered_clean = rejoined && recovered != nullptr &&
                               !recovered->crashed() &&
                               recovered->last_recovery().bootstrap_complete;
  const bool throughput_back = post_recovery >= 0.9 * pre_crash;
  const bool no_acked_loss = acked_lost == 0;

  std::printf("ops issued %zu, completed %lld (%lld errors during failover); oracle: %s\n",
              checker.invocations().size(), static_cast<long long>(checker.closed()),
              static_cast<long long>(checker.errors()),
              oracle_clean ? "clean (no duplication or reordering)" : "VIOLATED");
  std::printf("detection %s ms (bound %.0f), rejoined=%s, wal replayed %llu records, "
              "bootstrap merged %llu keys\n",
              detection_ms >= 0 ? bench::Fmt(detection_ms, 0).c_str() : "n/a",
              detection_bound_ms, rejoined ? "yes" : "no",
              recovered != nullptr
                  ? static_cast<unsigned long long>(recovered->last_recovery().wal_records_replayed)
                  : 0ull,
              recovered != nullptr
                  ? static_cast<unsigned long long>(recovered->last_recovery().bootstrap_keys_merged)
                  : 0ull);
  std::printf("acked writes checked %lld, lost %lld; post-recovery %.0f ops/s %s 0.9x "
              "pre-crash %.0f ops/s (%.2fx)\n",
              static_cast<long long>(acked_keys), static_cast<long long>(acked_lost), post_recovery,
              throughput_back ? ">=" : "BELOW", pre_crash,
              pre_crash > 0 ? post_recovery / pre_crash : 0.0);

  bench::JsonSummary json("failover_load");
  json.Add("threads_per_client", static_cast<int64_t>(threads));
  json.Add("duration_s", ToSeconds(duration), 1);
  json.AddString("workload", "ycsb-b-uniform-durable");
  json.Add("pre_crash.throughput_ops", pre_crash, 1);
  json.Add("outage.throughput_ops", outage, 1);
  json.Add("post_recovery.throughput_ops", post_recovery, 1);
  json.Add("transition.dip_ops", dip, 1);
  json.Add("transition.detection_ms", detection_ms, 0);
  json.Add("transition.rejoin_recovery_ms", rejoin_recovery_ms, 0);
  json.Add("recovery.wal_records_replayed",
           recovered != nullptr
               ? static_cast<int64_t>(recovered->last_recovery().wal_records_replayed)
               : 0);
  json.Add("recovery.bootstrap_keys_merged",
           recovered != nullptr
               ? static_cast<int64_t>(recovered->last_recovery().bootstrap_keys_merged)
               : 0);
  json.Add("speedup_post_vs_pre", pre_crash > 0 ? post_recovery / pre_crash : 0.0, 2);
  json.Add("ring_epoch_after", static_cast<int64_t>(stack.ring_epoch()));
  json.Add("durability.acked_keys", acked_keys);
  json.Add("durability.acked_lost", acked_lost);
  json.Add("oracle.issued", static_cast<int64_t>(checker.invocations().size()));
  json.Add("oracle.completed", checker.closed());
  json.Add("oracle.errors", checker.errors());
  bench::AddViolationCounts(json, checker);
  json.Add("load.errors", load.errors);
  json.AddLatencies("load", load.throughput_ops, load.preliminary, load.final_view);
  json.Write();

  return oracle_clean && detected && recovered_clean && throughput_back && no_acked_loss
             ? 0
             : 1;
}
