// Self-driving control plane under a 10x load ramp: the Orchestrator runs inside a
// placed LoopGroup deployment (5 replicas on their own lanes, 2 starting coordinators,
// 3 regional clients) while the offered load steps from ~150 ops/s to ~1500 ops/s
// mid-run and back. Arrivals are open-loop and hand-scheduled in virtual time — the
// ramp does not wait for completions, so the shard queues genuinely overflow — and
// every overload shed is retried with a virtual-time backoff, exactly the workload the
// controller is meant to absorb.
//
// What the run must show (exit-code gated):
//   - throughput FOLLOWS the ramp within 2 control intervals (500ms of virtual time):
//     the completion rate during the ramp reaches >= 5x the pre-ramp plateau;
//   - the controller acted: the ramp provokes at least one batch-window widen and at
//     least one coordinator scale-out (sustained sheds -> capacity);
//   - sheds decay to ZERO once the controller has scaled: no shed at all from one
//     second after the load returns to the low rate;
//   - IcgContractChecker stays clean through every controller action: monotone
//     weakest-first views, exactly one terminal per invocation, no views after a
//     terminal, no error other than a retryable overload shed.
//
// Flags: --smoke shortens the trial for CI smoke runs (the JSON summary is still
// written); output includes BENCH_autoscale_load.json with the phase throughputs, the
// ramp-following delay, shed decay, the controller's applied-action log, and the
// oracle counters.
#include <map>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "src/common/random.h"
#include "src/harness/orchestrator.h"
#include "src/harness/scenario.h"
#include "src/sim/loop_group.h"

namespace icg {
namespace {

constexpr SimDuration kBucket = Millis(250);
constexpr SimDuration kRetryBackoff = Millis(50);
constexpr int kKeys = 48;
constexpr int kClients = 3;
const std::string kKeyPrefix = "akey";

}  // namespace
}  // namespace icg

int main(int argc, char** argv) {
  using namespace icg;
  const bool smoke = bench::ParseSmokeFlag(argc, argv);

  const uint64_t seed = 42;
  const double low_rate = 150.0;
  const double high_rate = 1500.0;
  const SimDuration phase_low = smoke ? Seconds(2) : Seconds(4);
  const SimDuration phase_ramp = smoke ? Millis(1500) : Seconds(4);
  const SimDuration phase_tail = smoke ? Seconds(2) : Seconds(4);
  const SimTime ramp_start = phase_low;
  const SimTime ramp_end = ramp_start + phase_ramp;
  const SimTime load_end = ramp_end + phase_tail;
  // Settle window: long enough for the shrink + scale-in cascade to hand back the
  // quiescent configuration before the run ends.
  const SimTime run_end = load_end + (smoke ? Seconds(3) : Seconds(5));

  bench::PrintHeader(
      "Self-driving control plane: 10x load ramp",
      "Open-loop arrivals against a placed 5-replica deployment starting at 2\n"
      "coordinators. Offered load steps 150 -> 1500 -> 150 ops/s; the Orchestrator\n"
      "samples router snapshots every 250ms of virtual time and drives the batch\n"
      "window and the coordinator ring itself. Sheds retry; the oracle rides along.");

  LoopGroup::Options group_options;
  group_options.threads = 4;
  group_options.quantum = Millis(2);
  LoopGroup group(group_options);

  // Overload sheds are the one sanctioned error: each is retried.
  ShardedTrial trial(seed, /*coordinators=*/2, kRegions5, BatchConfig{}, KvConfig{},
                     AllowedErrors::kOverloadOnly);
  ShardedCassandraStack& stack = trial.stack;
  IcgContractChecker& checker = trial.checker;
  stack.SetShardQueueLimit(8);
  trial.Preload(kKeyPrefix, kKeys);

  IntraWorldPlacement placement = PlaceShardsAcrossLoops(group, trial.world, stack);

  OrchestratorOptions orch_options;
  orch_options.min_coordinators = 2;
  Orchestrator orchestrator(&group, &trial.world, &stack, orch_options);
  orchestrator.Start();

  bench::RateBuckets completions(kBucket, run_end);
  bench::RateBuckets shed_buckets(kBucket, run_end);
  int64_t submitted = 0;  // logical operations (excluding retries)

  // Hand-scheduled open-loop arrivals: uniform within each phase, writes partitioned
  // per client. The schedule is fixed up front — completions never gate arrivals.
  struct Phase {
    SimTime start;
    SimDuration length;
    int ops;
  };
  const std::vector<Phase> phases = {
      {0, phase_low, static_cast<int>(low_rate * ToSeconds(phase_low))},
      {ramp_start, phase_ramp, static_cast<int>(high_rate * ToSeconds(phase_ramp))},
      {ramp_end, phase_tail, static_cast<int>(low_rate * ToSeconds(phase_tail))},
  };
  Rng rng(seed * 7);
  EventLoop* front = &trial.world.loop();
  int write_counter = 0;
  for (const Phase& phase : phases) {
    for (int i = 0; i < phase.ops; ++i) {
      const SimTime at =
          phase.start + static_cast<SimTime>(rng.NextBounded(phase.length));
      const size_t client_index = static_cast<size_t>(rng.NextBounded(kClients));
      const bool is_write = rng.NextBool(0.25);
      int key_index = static_cast<int>(rng.NextBounded(kKeys));
      if (is_write) {
        key_index = (key_index / kClients) * kClients + static_cast<int>(client_index);
      }
      const std::string key = kKeyPrefix + std::to_string(key_index);
      std::string value;
      if (is_write) {
        value = "c" + std::to_string(client_index) + "-" +
                std::to_string(write_counter++);
      }
      CorrectableClient* client = trial.clients[client_index];
      const OpKind kind = is_write ? OpKind::kWrite : OpKind::kIcgRead;
      submitted++;
      // One logical operation, retried on overload sheds until it completes.
      front->Schedule(at, [&checker, &shed_buckets, &completions, front, client, kind, key,
                           value]() {
        checker.StartRetryingSheds(
            *client, *front, kind, key, value, kRetryBackoff,
            [&shed_buckets, front]() { shed_buckets.Add(front->Now()); },
            [&completions, front]() { completions.Add(front->Now()); });
      });
    }
  }

  group.RunUntil(run_end);
  orchestrator.Stop();
  group.RunAll();
  checker.CheckClosed();

  // Phase throughputs from the completion buckets. "Follows within 2 control
  // intervals" is the gate: by ramp_start + 500ms the completion rate must already be
  // tracking the new offered load.
  const double pre_ramp = completions.Rate(Seconds(1), ramp_start);
  const SimTime follow_from = ramp_start + 2 * orch_options.control_interval;
  const double ramp_rate = completions.Rate(follow_from, ramp_end);
  const double tail_rate = completions.Rate(ramp_end + Seconds(1), load_end);
  const double follow_ratio = pre_ramp > 0 ? ramp_rate / pre_ramp : 0.0;

  // When did throughput first track the ramp? The end of the first bucket at or after
  // ramp_start whose rate reaches 5x the pre-ramp plateau.
  const double followed_after_ms =
      completions.MillisToReach(5.0 * pre_ramp, ramp_start, ramp_end);

  // Shed decay: nothing may shed from one second after the load returns to low rate.
  const int64_t sheds = shed_buckets.Count(0);
  const int64_t sheds_after_settle = shed_buckets.Count(ramp_end + Seconds(1));

  std::map<ControlActionKind, int> action_counts;
  for (const OrchestratorEvent& event : orchestrator.events()) {
    action_counts[event.kind]++;
  }
  const int widens = action_counts[ControlActionKind::kWidenWindow];
  const int shrinks = action_counts[ControlActionKind::kShrinkWindow];
  const int scale_outs = action_counts[ControlActionKind::kScaleOut];
  const int scale_ins = action_counts[ControlActionKind::kScaleIn];

  bench::Table table({"phase", "throughput (ops/s)", "notes"});
  table.AddRow({"pre-ramp (150 offered)", bench::Fmt(pre_ramp, 0),
                "2 coordinators, window rung 0"});
  table.AddRow({"ramp (1500 offered)", bench::Fmt(ramp_rate, 0),
                "measured from 2 control intervals in"});
  table.AddRow({"post-ramp (150 offered)", bench::Fmt(tail_rate, 0),
                "after the controller scaled"});
  table.Print();

  std::printf("controller: %d widen, %d shrink, %d scale-out, %d scale-in; final ring %zu"
              " coordinators, window rung %zu, epoch %llu\n",
              widens, shrinks, scale_outs, scale_ins, stack.coordinator_ids().size(),
              orchestrator.window_index(),
              static_cast<unsigned long long>(stack.ring_epoch()));
  for (const OrchestratorEvent& event : orchestrator.events()) {
    std::printf("  t=%6.2fs %-9s detail=%zu epoch=%llu shed_delta=%lld outstanding=%zu\n",
                ToSeconds(event.at), ControlActionName(event.kind), event.detail,
                static_cast<unsigned long long>(event.ring_epoch),
                static_cast<long long>(event.shed_delta), event.total_outstanding);
  }
  std::printf("sheds: %lld total (all retried), %lld after settle; throughput followed"
              " the ramp %s\n",
              static_cast<long long>(sheds),
              static_cast<long long>(sheds_after_settle),
              followed_after_ms >= 0
                  ? ("in " + bench::Fmt(followed_after_ms, 0) + " ms").c_str()
                  : "NEVER");

  const bool oracle_clean = checker.clean() && checker.finals() == submitted;
  const bool followed =
      follow_ratio >= 5.0 && followed_after_ms >= 0 &&
      followed_after_ms <= ToMillis(2 * orch_options.control_interval);
  const bool controller_acted = widens >= 1 && scale_outs >= 1;
  const bool sheds_decayed = sheds > 0 && sheds_after_settle == 0;
  std::printf("oracle: %s (%lld/%lld completed); gates: followed=%s acted=%s"
              " sheds_decayed=%s\n",
              oracle_clean ? "clean" : "VIOLATED",
              static_cast<long long>(checker.finals()),
              static_cast<long long>(submitted), followed ? "yes" : "NO",
              controller_acted ? "yes" : "NO", sheds_decayed ? "yes" : "NO");

  bench::JsonSummary json("autoscale_load");
  json.AddString("mode", smoke ? "smoke" : "full");
  json.Add("offered.low_ops", low_rate, 0);
  json.Add("offered.high_ops", high_rate, 0);
  json.Add("pre_ramp.throughput_ops", pre_ramp, 1);
  json.Add("ramp.throughput_ops", ramp_rate, 1);
  json.Add("post_ramp.throughput_ops", tail_rate, 1);
  json.Add("ramp.follow_ratio", follow_ratio, 2);
  json.Add("ramp.followed_after_ms", followed_after_ms, 0);
  json.Add("controller.widens", static_cast<int64_t>(widens));
  json.Add("controller.shrinks", static_cast<int64_t>(shrinks));
  json.Add("controller.scale_outs", static_cast<int64_t>(scale_outs));
  json.Add("controller.scale_ins", static_cast<int64_t>(scale_ins));
  json.Add("controller.final_coordinators",
           static_cast<int64_t>(stack.coordinator_ids().size()));
  json.Add("controller.final_window_index",
           static_cast<int64_t>(orchestrator.window_index()));
  json.Add("controller.ring_epoch", static_cast<int64_t>(stack.ring_epoch()));
  json.Add("sheds.total", sheds);
  json.Add("sheds.after_settle", sheds_after_settle);
  json.Add("oracle.submitted", submitted);
  json.Add("oracle.completed", checker.finals());
  json.Add("oracle.unexpected_errors", checker.count(Violation::kDisallowedError));
  bench::AddViolationCounts(json, checker);
  json.Write();

  return oracle_clean && followed && controller_acted && sheds_decayed ? 0 : 1;
}
