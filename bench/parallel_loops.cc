// Parallel sharded executors: W independent sharded-Cassandra worlds (each with its own
// 3-client closed-loop YCSB load) pinned to one LoopGroup, driven once sequentially and
// once on real threads. Virtual-time results must be bit-for-bit identical across the
// two modes (the LoopGroup determinism contract); the threaded mode is then judged on
// wall-clock speedup with a core-count-aware gate:
//
//   >= 4 cores: threaded must finish the same simulation >= 2.0x faster,
//   >= 2 cores: >= 1.2x faster,
//      1 core : no speedup required — determinism + oracle-clean results only.
//
// Flags: --smoke shortens the trial for CI smoke runs. Writes BENCH_parallel_loops.json
// with per-mode wall times, the speedup, and the aggregate simulated throughput.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "src/harness/scenario.h"
#include "src/sim/loop_group.h"

namespace icg {
namespace {

constexpr int kWorlds = 4;
constexpr int64_t kRecords = 4000;

struct TrialOutcome {
  double wall_seconds = 0;
  double throughput_ops = 0;  // aggregate simulated ops/s across all worlds
  int64_t measured_ops = 0;
  int64_t errors = 0;
  int64_t rounds = 0;
  std::vector<ClientStats> per_world_stats;  // merged per world, for cross-mode equality
};

// Builds W worlds, pins each to the group, runs every world's MultiRunner through the
// group, and collects wall-clock + merged simulated results.
TrialOutcome RunTrial(int threads, int runner_threads, SimDuration duration,
                      SimDuration elide, uint64_t seed) {
  LoopGroup::Options options;
  options.threads = threads;
  options.quantum = Millis(10);
  LoopGroup group(options);
  ClientStatsGroup stats(kWorlds);

  const WorkloadConfig workload =
      WorkloadConfig::YcsbB(RequestDistribution::kUniform, kRecords);

  RunnerConfig config;
  config.threads = runner_threads;
  config.duration = duration;
  config.warmup = elide;
  config.cooldown = elide;

  std::vector<std::unique_ptr<ShardedTrial>> worlds;
  std::vector<std::unique_ptr<MultiRunner>> runners;
  for (int w = 0; w < kWorlds; ++w) {
    auto& trial = *worlds.emplace_back(std::make_unique<ShardedTrial>(
        seed + static_cast<uint64_t>(w) * 1009, /*coordinators=*/3, kRegions3));
    PreloadYcsbDataset(trial.stack.cluster.get(), workload);

    auto& runner =
        *runners.emplace_back(std::make_unique<MultiRunner>(&trial.world.loop(), config));
    const uint64_t ws = seed + static_cast<uint64_t>(w) * 7;
    AddYcsbClients(runner, trial.clients, workload, ws * 3 + 1, KvMode::kIcg);
    PinWorld(group, trial.world);
  }

  const auto start = std::chrono::steady_clock::now();
  for (auto& runner : runners) {
    runner->Begin();
  }
  group.RunUntil(duration + 2 * elide + Seconds(5));
  const auto stop = std::chrono::steady_clock::now();

  TrialOutcome outcome;
  outcome.wall_seconds = std::chrono::duration<double>(stop - start).count();
  outcome.rounds = group.rounds();
  for (size_t w = 0; w < worlds.size(); ++w) {
    const RunnerResult r = runners[w]->Collect();
    outcome.throughput_ops += r.throughput_ops;
    outcome.measured_ops += r.measured_ops;
    outcome.errors += r.errors;
    for (const CorrectableClient* client : worlds[w]->clients) {
      stats.Absorb(w, client->stats());
    }
    outcome.per_world_stats.push_back(stats.ForLoop(w));
  }
  return outcome;
}

}  // namespace
}  // namespace icg

int main(int argc, char** argv) {
  using namespace icg;
  const bool smoke = bench::ParseSmokeFlag(argc, argv);

  const int cores = LoopGroup::HardwareThreads();
  // Always drive at least 2 worker threads so the threaded path (and its determinism
  // oracle) is exercised even on a 1-core box — where the wall-clock comparison then
  // measures oversubscription, not scaling, and is recorded with speedup_gated=0.
  const int threaded_width = std::max(2, std::min(cores, kWorlds));
  const int runner_threads = smoke ? 12 : 24;
  const SimDuration duration = smoke ? Seconds(4) : Seconds(20);
  const SimDuration elide = smoke ? Seconds(1) : Seconds(5);
  const uint64_t seed = 42;

  bench::PrintHeader(
      "Parallel sharded executors: LoopGroup wall-clock scaling",
      "4 independent sharded-Cassandra worlds, each under 3-client closed-loop YCSB-B.\n"
      "Same simulation driven sequentially and on real threads; virtual-time results\n"
      "must match bit-for-bit, then the threaded mode is timed.");

  const TrialOutcome sequential =
      RunTrial(/*threads=*/0, runner_threads, duration, elide, seed);
  const TrialOutcome threaded =
      RunTrial(threaded_width, runner_threads, duration, elide, seed);

  // Determinism oracle: the threaded run is the *same simulation*, so every simulated
  // observable must match the sequential run exactly.
  const bool deterministic =
      sequential.measured_ops == threaded.measured_ops &&
      sequential.errors == threaded.errors && sequential.rounds == threaded.rounds &&
      std::abs(sequential.throughput_ops - threaded.throughput_ops) < 1e-9 &&
      sequential.per_world_stats == threaded.per_world_stats;

  const double speedup = threaded.wall_seconds > 0
                             ? sequential.wall_seconds / threaded.wall_seconds
                             : 0.0;

  bench::Table table({"mode", "wall (s)", "sim throughput (ops/s)", "measured ops",
                      "errors", "rounds"});
  table.AddRow({"sequential", bench::Fmt(sequential.wall_seconds, 2),
                bench::Fmt(sequential.throughput_ops, 0),
                std::to_string(sequential.measured_ops),
                std::to_string(sequential.errors), std::to_string(sequential.rounds)});
  table.AddRow({"threads=" + std::to_string(threaded_width),
                bench::Fmt(threaded.wall_seconds, 2),
                bench::Fmt(threaded.throughput_ops, 0),
                std::to_string(threaded.measured_ops), std::to_string(threaded.errors),
                std::to_string(threaded.rounds)});
  table.Print();

  // The wall-clock comparison only gates where the hardware can actually run the
  // worlds concurrently; a 1-core box recording speedup < 1 is expected (the threaded
  // run pays barrier + context-switch overhead with zero parallelism available) and is
  // flagged speedup_gated=0 so baseline checkers skip it rather than "fail" it.
  double bar = 0.0;
  if (!smoke) {
    if (cores >= 4) {
      bar = 2.0;
    } else if (cores >= 2) {
      bar = 1.2;
    }
  }

  bench::JsonSummary json("parallel_loops");
  json.Add("worlds", static_cast<int64_t>(kWorlds));
  json.Add("threaded_width", static_cast<int64_t>(threaded_width));
  json.Add("sequential.wall_s", sequential.wall_seconds, 3);
  json.Add("threaded.wall_s", threaded.wall_seconds, 3);
  json.Add("speedup", speedup, 2);
  json.Add("speedup_gated", bar > 0 ? int64_t{1} : int64_t{0});
  json.Add("sim_throughput_ops", sequential.throughput_ops, 0);
  json.Add("measured_ops", static_cast<double>(sequential.measured_ops), 0);
  json.Add("errors", static_cast<double>(sequential.errors), 0);
  json.Add("deterministic", deterministic ? 1.0 : 0.0, 0);
  json.Write();

  if (!deterministic) {
    std::printf("FAIL: threaded run diverged from the sequential simulation\n");
    return 1;
  }
  if (sequential.errors != 0) {
    std::printf("FAIL: simulated load reported %lld errors\n",
                static_cast<long long>(sequential.errors));
    return 1;
  }

  // Core-count-aware scaling gate. Smoke trials are too short to amortize barrier
  // overhead (tens of microseconds of work per round), so they gate on determinism and
  // errors only and report the speedup informationally.
  std::printf("cores=%d threaded_width=%d speedup=%.2fx (gate: %s)\n", cores,
              threaded_width, speedup,
              bar > 0 ? (std::to_string(bar) + "x").c_str()
                      : "determinism+oracle only");
  if (bar > 0 && speedup < bar) {
    std::printf("FAIL: speedup %.2fx below the %.1fx bar for %d cores\n", speedup, bar,
                cores);
    return 1;
  }
  std::printf("PASS\n");
  return 0;
}
