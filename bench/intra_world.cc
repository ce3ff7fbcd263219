// Intra-world parallel sharding: ONE 4-coordinator sharded-Cassandra world whose
// coordinators are placed on four LoopGroup lanes (PlaceShardsAcrossLoops) while the
// three client endpoints drive closed-loop YCSB-B from the front loop. Unlike
// parallel_loops (W independent worlds), the parallelism here is *inside* a single
// deployment: every client<->coordinator request, quorum fan-out, and replication
// crosses loops through the group channel.
//
// Configurations of the same load:
//   1-loop      : the whole world on one loop (legacy in-loop delivery) — the baseline.
//   placed/seq  : split across 5 loops, driven sequentially (threads=0).
//   placed/N    : split across 5 loops, driven by real threads.
//   adaptive/*  : the placed runs again with adaptive quanta (round width follows the
//                 earliest pending activity instead of a fixed 2ms grid).
//
// The placed runs must be bit-for-bit identical to each other at every thread width
// (the determinism contract; checked at widths 0, 2, and 4 for the fixed AND adaptive
// quantum policies, including the exact barrier-schedule fingerprint). The 1-loop
// baseline is a *different simulation* — cross-loop messages pay up-to-a-quantum extra
// latency — so it is only compared on wall clock.
//
// Gates, in order of portability:
//   - determinism (always): fixed and adaptive width sweeps bit-identical, schedule
//     hashes equal, zero errors, real cross-loop traffic.
//   - adaptive rounds <= fixed rounds (always): each adaptive round is at least one
//     base quantum wide, so the adaptive schedule can never run MORE barriers over the
//     same horizon. Purely virtual, so it holds on any core count.
//   - parity (>= 2 cores, full runs only): placed/threaded must not be slower than
//     placed/seq by more than kParityTolerance. This deployment's rounds are tiny — a
//     few events per 2 ms round, far below LoopGroup::kMinPooledRoundEvents — so the
//     threaded driver runs every round inline, and the honest expectation is
//     placed/seq's wall time, not a speedup. The former ">= 1.5x vs 1-loop" bar could
//     never hold: 1-loop is a different, cheaper simulation (no cross-loop channel),
//     and no thread count pays back a hand-off that costs more than the round's work.
//     One trial measures ~0.1 s of wall time, and on a shared host single trials of the
//     same binary swing by 2x, so each side is timed as the best of kParityRepeats
//     alternating trials. The speedup vs 1-loop is still recorded, with
//     "speedup_gated": 0.
//
// Metrics are reset after warmup (LoopGroup::ResetMetrics) so barrier-wait share and
// channel traffic describe the measured phase, not the ramp. Flags: --smoke shortens
// the trial and gates on determinism only. Writes BENCH_intra_world.json.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "src/harness/scenario.h"
#include "src/sim/loop_group.h"

namespace icg {
namespace {

constexpr int kCoordinators = 4;
constexpr int64_t kRecords = 4000;
// The parity gate times each side as the best of this many alternating trials.
constexpr int kParityRepeats = 5;
// Largest shortfall of placed/threaded against placed/seq the parity gate forgives. Over
// 10 full runs on a 4-vCPU x86 VM the best-of-5 ratio seq/threaded ranged 0.79-1.07
// (median 0.99) with no round pooled, so the spread is host noise; the bar sits below
// the worst of those runs.
constexpr double kParityTolerance = 0.25;

struct TrialOutcome {
  double wall_seconds = 0;  // measured phase only (post-warmup)
  double throughput_ops = 0;
  int64_t measured_ops = 0;
  int64_t errors = 0;
  int64_t rounds = 0;
  uint64_t schedule_hash = 0;
  ClientStats stats;  // merged across the 3 endpoints, for cross-width equality
  // Measured-phase round statistics (from LoopGroup::metrics(), post-ResetMetrics).
  int64_t barrier_wait_ns = 0;
  int64_t channel_messages = 0;
  int64_t channel_depth_highwater = 0;
  int64_t loop_events_highwater = 0;
  int64_t rounds_threaded = 0;
  int64_t rounds_inline = 0;
  int64_t rounds_widened = 0;
};

// Builds the one world, optionally places it across lanes, runs the 3-client YCSB load
// through the group, and collects wall-clock + merged simulated results. The warmup
// stretch runs untimed, then metrics are reset so the numbers describe steady state.
TrialOutcome RunTrial(int threads, bool placed, bool adaptive, int runner_threads,
                      SimDuration duration, SimDuration elide, uint64_t seed) {
  LoopGroup::Options options;
  options.threads = threads;
  options.quantum = Millis(2);
  options.adaptive_quantum = adaptive;
  options.max_quantum = Millis(32);
  LoopGroup group(options);

  const WorkloadConfig workload =
      WorkloadConfig::YcsbB(RequestDistribution::kUniform, kRecords);

  RunnerConfig config;
  config.threads = runner_threads;
  config.duration = duration;
  config.warmup = elide;
  config.cooldown = elide;

  ShardedTrial trial(seed, kCoordinators, kRegions4);
  PreloadYcsbDataset(trial.stack.cluster.get(), workload);

  if (placed) {
    PlaceShardsAcrossLoops(group, trial.world, trial.stack);
  } else {
    PinWorld(group, trial.world);
  }

  MultiRunner runner(&trial.world.loop(), config);
  AddYcsbClients(runner, trial.clients, workload, seed * 3 + 1, KvMode::kIcg);

  runner.Begin();
  group.RunUntil(elide);  // warmup: untimed, metrics discarded below
  group.ResetMetrics();
  const auto start = std::chrono::steady_clock::now();
  group.RunUntil(duration + 2 * elide + Seconds(5));
  const auto stop = std::chrono::steady_clock::now();

  TrialOutcome outcome;
  outcome.wall_seconds = std::chrono::duration<double>(stop - start).count();
  outcome.rounds = group.rounds();
  outcome.schedule_hash = group.barrier_schedule_hash();
  const RunnerResult r = runner.Collect();
  outcome.throughput_ops = r.throughput_ops;
  outcome.measured_ops = r.measured_ops;
  outcome.errors = r.errors;
  ClientStatsGroup stats(1);
  for (const CorrectableClient* client : trial.clients) {
    stats.Absorb(0, client->stats());
  }
  outcome.stats = stats.Merged();
  outcome.barrier_wait_ns = group.metrics().Value("barrier_wait_ns");
  outcome.channel_messages = group.metrics().Value("channel_messages");
  outcome.channel_depth_highwater = group.metrics().Value("channel_depth_highwater");
  outcome.loop_events_highwater = group.metrics().Value("loop_events_highwater");
  outcome.rounds_threaded = group.metrics().Value("rounds_threaded");
  outcome.rounds_inline = group.metrics().Value("rounds_inline");
  outcome.rounds_widened = group.metrics().Value("rounds_widened");
  return outcome;
}

bool SimEqual(const TrialOutcome& a, const TrialOutcome& b) {
  return a.measured_ops == b.measured_ops && a.errors == b.errors &&
         a.rounds == b.rounds && a.schedule_hash == b.schedule_hash &&
         std::abs(a.throughput_ops - b.throughput_ops) < 1e-9 && a.stats == b.stats;
}

// Fraction of the measured wall time the driver spent blocked at round barriers.
double BarrierShare(const TrialOutcome& t) {
  return t.wall_seconds > 0
             ? static_cast<double>(t.barrier_wait_ns) / 1e9 / t.wall_seconds
             : 0.0;
}

void AddModeRow(bench::Table& table, const std::string& mode, const TrialOutcome& t) {
  table.AddRow({mode, bench::Fmt(t.wall_seconds, 2), bench::Fmt(t.throughput_ops, 0),
                std::to_string(t.measured_ops), std::to_string(t.errors),
                std::to_string(t.rounds), std::to_string(t.channel_messages),
                bench::Fmt(100.0 * BarrierShare(t), 1)});
}

}  // namespace
}  // namespace icg

int main(int argc, char** argv) {
  using namespace icg;
  const bool smoke = bench::ParseSmokeFlag(argc, argv);

  const int cores = LoopGroup::HardwareThreads();
  const int threaded_width = cores >= 4 ? 4 : 2;  // best width this machine can drive
  const int runner_threads = smoke ? 12 : 24;
  const SimDuration duration = smoke ? Seconds(4) : Seconds(15);
  const SimDuration elide = smoke ? Seconds(1) : Seconds(4);
  const uint64_t seed = 42;

  bench::PrintHeader(
      "Intra-world parallel sharding: one deployment across LoopGroup lanes",
      "One 4-coordinator sharded-Cassandra world under 3-client closed-loop YCSB-B.\n"
      "Baseline runs the whole world on one loop; the placed runs split coordinators\n"
      "across 4 lanes (clients on the front loop) and must be bit-for-bit identical\n"
      "at every thread width — under fixed AND adaptive quanta — before timing.");

  const TrialOutcome one_loop = RunTrial(/*threads=*/0, /*placed=*/false,
                                         /*adaptive=*/false, runner_threads, duration,
                                         elide, seed);
  const TrialOutcome placed_seq =
      RunTrial(0, true, false, runner_threads, duration, elide, seed);
  const TrialOutcome placed_w2 =
      RunTrial(2, true, false, runner_threads, duration, elide, seed);
  const TrialOutcome placed_w4 =
      RunTrial(4, true, false, runner_threads, duration, elide, seed);
  const TrialOutcome adaptive_seq =
      RunTrial(0, true, true, runner_threads, duration, elide, seed);
  const TrialOutcome adaptive_w2 =
      RunTrial(2, true, true, runner_threads, duration, elide, seed);
  const TrialOutcome adaptive_w4 =
      RunTrial(4, true, true, runner_threads, duration, elide, seed);
  const TrialOutcome& timed = threaded_width == 4 ? placed_w4 : placed_w2;
  const TrialOutcome& adaptive_timed = threaded_width == 4 ? adaptive_w4 : adaptive_w2;

  const bool deterministic =
      SimEqual(placed_seq, placed_w2) && SimEqual(placed_seq, placed_w4);
  const bool adaptive_deterministic =
      SimEqual(adaptive_seq, adaptive_w2) && SimEqual(adaptive_seq, adaptive_w4);
  const double speedup =
      timed.wall_seconds > 0 ? one_loop.wall_seconds / timed.wall_seconds : 0.0;

  // Parity timing (full runs only): the best of kParityRepeats alternating trials per
  // side, the first of each being the determinism trial above.
  double best_seq = placed_seq.wall_seconds;
  double best_threaded = timed.wall_seconds;
  for (int r = 1; !smoke && r < kParityRepeats; ++r) {
    best_threaded = std::min(
        best_threaded, RunTrial(threaded_width, true, false, runner_threads, duration,
                                elide, seed)
                           .wall_seconds);
    best_seq = std::min(
        best_seq,
        RunTrial(0, true, false, runner_threads, duration, elide, seed).wall_seconds);
  }
  const double parity = best_threaded > 0 ? best_seq / best_threaded : 0.0;

  bench::Table table({"mode", "wall (s)", "sim throughput (ops/s)", "measured ops",
                      "errors", "rounds", "xloop msgs", "barrier wait %"});
  AddModeRow(table, "1-loop", one_loop);
  AddModeRow(table, "placed seq", placed_seq);
  AddModeRow(table, "placed w=2", placed_w2);
  AddModeRow(table, "placed w=4", placed_w4);
  AddModeRow(table, "adaptive seq", adaptive_seq);
  AddModeRow(table, "adaptive w=2", adaptive_w2);
  AddModeRow(table, "adaptive w=4", adaptive_w4);
  table.Print();

  // Parity gates only full runs on machines that can run two threads at once.
  const bool parity_gated = !smoke && cores >= 2;

  bench::JsonSummary json("intra_world");
  json.Add("coordinators", static_cast<int64_t>(kCoordinators));
  json.Add("loops", static_cast<int64_t>(kCoordinators + 1));
  json.Add("timed_width", static_cast<int64_t>(threaded_width));
  json.Add("one_loop.wall_s", one_loop.wall_seconds, 3);
  json.Add("placed_seq.wall_s", placed_seq.wall_seconds, 3);
  json.Add("placed_threaded.wall_s", timed.wall_seconds, 3);
  json.Add("speedup", speedup, 2);
  json.Add("speedup_gated", int64_t{0});
  json.Add("parity.best_seq_wall_s", best_seq, 3);
  json.Add("parity.best_threaded_wall_s", best_threaded, 3);
  json.Add("parity", parity, 2);
  json.Add("parity_gated", parity_gated ? int64_t{1} : int64_t{0});
  json.Add("sim_throughput_ops", placed_seq.throughput_ops, 0);
  json.Add("measured_ops", static_cast<double>(placed_seq.measured_ops), 0);
  json.Add("errors", static_cast<double>(placed_seq.errors), 0);
  json.Add("deterministic", deterministic ? 1.0 : 0.0, 0);
  json.Add("adaptive.deterministic", adaptive_deterministic ? 1.0 : 0.0, 0);
  json.Add("channel_messages", timed.channel_messages);
  json.Add("channel_depth_highwater", timed.channel_depth_highwater);
  json.Add("loop_events_highwater", timed.loop_events_highwater);
  json.Add("barrier_wait_ms", static_cast<double>(timed.barrier_wait_ns) / 1e6, 1);
  json.Add("barrier_wait_share", BarrierShare(timed), 4);
  json.Add("rounds", timed.rounds);
  json.Add("rounds_threaded", timed.rounds_threaded);
  json.Add("rounds_inline", timed.rounds_inline);
  json.Add("adaptive.wall_s", adaptive_timed.wall_seconds, 3);
  json.Add("adaptive.rounds", adaptive_timed.rounds);
  json.Add("adaptive.rounds_widened", adaptive_timed.rounds_widened);
  json.Add("adaptive.channel_messages", adaptive_timed.channel_messages);
  json.Add("adaptive.barrier_wait_ms",
           static_cast<double>(adaptive_timed.barrier_wait_ns) / 1e6, 1);
  json.Add("adaptive.barrier_wait_share", BarrierShare(adaptive_timed), 4);
  json.Write();

  if (!deterministic || !adaptive_deterministic) {
    std::printf(
        "FAIL: placed runs diverged across thread widths (fixed %s, adaptive %s)\n",
        deterministic ? "ok" : "DIVERGED",
        adaptive_deterministic ? "ok" : "DIVERGED");
    return 1;
  }
  if (placed_seq.errors != 0 || one_loop.errors != 0 || adaptive_seq.errors != 0) {
    std::printf("FAIL: simulated load reported errors\n");
    return 1;
  }
  if (placed_seq.channel_messages == 0) {
    std::printf("FAIL: placement produced no cross-loop traffic\n");
    return 1;
  }
  // Virtual-time gate, valid on any hardware: every adaptive round is at least one base
  // quantum wide, so adaptive can never schedule MORE barriers than the fixed grid.
  if (adaptive_seq.rounds > placed_seq.rounds) {
    std::printf("FAIL: adaptive quanta ran %lld rounds vs %lld fixed\n",
                static_cast<long long>(adaptive_seq.rounds),
                static_cast<long long>(placed_seq.rounds));
    return 1;
  }

  // Parity gate. Smoke trials are too short to time, and a 1-core machine cannot run
  // the threaded driver beside anything; both gate on determinism only.
  std::printf(
      "cores=%d timed_width=%d speedup=%.2fx vs 1-loop (not gated) parity=%.2fx vs "
      "placed seq (gate: %s) rounds_threaded=%lld barrier_share=%.1f%% "
      "adaptive_rounds=%lld/%lld\n",
      cores, threaded_width, speedup, parity,
      parity_gated ? ">= 1 - tolerance" : "determinism only",
      static_cast<long long>(timed.rounds_threaded), 100.0 * BarrierShare(timed),
      static_cast<long long>(adaptive_seq.rounds),
      static_cast<long long>(placed_seq.rounds));
  if (parity_gated && parity < 1.0 - kParityTolerance) {
    std::printf("FAIL: placed threaded is %.2fx placed seq, below the %.2fx bar\n",
                parity, 1.0 - kParityTolerance);
    return 1;
  }
  std::printf("PASS\n");
  return 0;
}
