// Live shard rebalancing under load: throughput dip and recovery when a coordinator
// joins a running sharded deployment mid-trial.
//
// Setup: one Cassandra-style cluster (FRK/IRL/VRG replicas), three routed clients (one
// per region) driving uniform-key YCSB-B in a closed loop — but only TWO of the three
// replicas start as coordinators. Halfway through the trial the third replica is
// promoted into the ring via ShardedCassandraStack::AddCoordinator while load is in
// flight: every endpoint grows a connection + child binding, every router installs the
// successor ring (epoch + 1), pending batch cohorts re-route at flush, and invocations
// already in flight drain against the old ring's objects. Completions are bucketed over
// virtual time, so the output shows the pre-join plateau, the transition, and the
// post-join steady state.
//
// Every invocation runs under IcgContractChecker (weakest-first monotone view levels,
// exactly one terminal, no views after the terminal, no error). The bench FAILS if the
// transition loses, duplicates, or reorders a single invocation — or if post-join
// steady-state throughput does not at least match the pre-join baseline (it should beat
// it: the newcomer absorbs ~1/3 of the key space from the two saturated survivors).
//
// Flags: --smoke shortens the trial for CI smoke runs (the JSON summary is still
// written); output includes BENCH_rebalance_load.json with pre/post throughput, the
// transition-dip depth, recovery time, and the oracle counters.
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
  const SimDuration join_at = duration / 2;
  const SimDuration settle = Seconds(2);  // transition window excluded from post steady state
  const uint64_t seed = 42;

  bench::PrintHeader(
      "Live rebalancing: coordinator join under YCSB load",
      "Uniform-key YCSB-B, 3 routed clients (one per region), closed loop. The stack\n"
      "starts with 2 of 3 replicas as coordinators; the third joins the ring mid-run.\n"
      "Every invocation is oracle-checked through the transition (monotone views,\n"
      "exactly one terminal).");

  ShardedTrial trial(seed, /*coordinators=*/2, kRegions3);
  ShardedCassandraStack& stack = trial.stack;
  IcgContractChecker& checker = trial.checker;
  const WorkloadConfig workload = WorkloadConfig::YcsbB(RequestDistribution::kUniform, kRecords);
  PreloadYcsbDataset(stack.cluster.get(), workload);

  bench::RateBuckets completions(kBucket, duration);

  RunnerConfig config;
  config.threads = threads;
  config.duration = duration;
  config.warmup = warmup;
  config.cooldown = warmup;

  MultiRunner runner(&trial.world.loop(), config);
  AddYcsbClients(runner, trial.clients, workload, seed * 3 + 1, [&](CorrectableClient* client) {
    return MakeCheckedKvExecutor(client, &checker,
                                 [&]() { completions.Add(trial.world.loop().Now()); });
  });

  // The membership change, scheduled into the middle of the trial.
  const NodeId joiner = stack.cluster->replicas().back()->id();
  double moved_fraction = 0.0;
  uint64_t epoch_after = 0;
  trial.world.loop().Schedule(join_at, [&stack, joiner, &moved_fraction, &epoch_after]() {
    const auto diff = stack.AddCoordinator(joiner);
    moved_fraction = diff.MovedFraction();
    epoch_after = stack.ring_epoch();
  });

  const RunnerResult load = runner.Run();
  checker.CheckClosed();

  // Pre-join plateau vs. post-join steady state, from the completion buckets.
  const double pre_join = completions.Rate(warmup, join_at);
  const double post_join = completions.Rate(join_at + settle, duration - warmup);
  // Transition detail: the worst bucket right after the join, and how long until the
  // completion rate first met the pre-join plateau again.
  const double dip = std::min(pre_join, completions.MinRate(join_at, join_at + settle));
  const double recovery_ms = completions.MillisToReach(pre_join, join_at, join_at + settle);

  bench::Table table({"phase", "throughput (ops/s)", "notes"});
  table.AddRow({"pre-join (2 coordinators)", bench::Fmt(pre_join, 0),
                "plateau before the membership change"});
  table.AddRow({"transition dip", bench::Fmt(dip, 0),
                "worst " + bench::Fmt(ToMillis(kBucket), 0) + " ms bucket after the join"});
  table.AddRow({"post-join (3 coordinators)", bench::Fmt(post_join, 0),
                "steady state, ring epoch " + std::to_string(epoch_after)});
  table.Print();

  const bool oracle_clean = checker.clean();
  const bool recovered = post_join >= pre_join;
  std::printf("ops issued %zu, completed %lld; oracle: %s\n", checker.invocations().size(),
              static_cast<long long>(checker.closed()),
              oracle_clean ? "clean (no loss, duplication, or reordering)" : "VIOLATED");
  std::printf("moved key share at join: %.1f%%; recovery to pre-join rate: %s\n",
              100.0 * moved_fraction,
              recovery_ms >= 0 ? (bench::Fmt(recovery_ms, 0) + " ms").c_str() : "within settle");
  std::printf("post-join steady state %.0f ops/s %s pre-join %.0f ops/s (%.2fx)\n", post_join,
              recovered ? ">=" : "BELOW", pre_join, pre_join > 0 ? post_join / pre_join : 0.0);

  bench::JsonSummary json("rebalance_load");
  json.Add("threads_per_client", static_cast<int64_t>(threads));
  json.Add("duration_s", ToSeconds(duration), 1);
  json.AddString("workload", "ycsb-b-uniform");
  json.Add("pre_join.throughput_ops", pre_join, 1);
  json.Add("post_join.throughput_ops", post_join, 1);
  json.Add("transition.dip_ops", dip, 1);
  json.Add("transition.recovery_ms", recovery_ms, 0);
  json.Add("transition.moved_fraction", moved_fraction, 3);
  json.Add("speedup_post_vs_pre", pre_join > 0 ? post_join / pre_join : 0.0, 2);
  json.Add("ring_epoch_after", static_cast<int64_t>(epoch_after));
  json.Add("oracle.issued", static_cast<int64_t>(checker.invocations().size()));
  json.Add("oracle.completed", checker.closed());
  json.Add("oracle.errors", checker.errors());
  bench::AddViolationCounts(json, checker);
  json.Add("load.errors", load.errors);
  json.AddLatencies("load", load.throughput_ops, load.preliminary, load.final_view);
  json.Write();

  return oracle_clean && recovered ? 0 : 1;
}
