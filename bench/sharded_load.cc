// Sharded invocation routing: throughput of 1 vs. 3 coordinators on the same uniform-key
// YCSB workload, through the BindingRouter.
//
// Setup: one Cassandra-style cluster (FRK/IRL/VRG replicas), three clients (one per
// region), each client routing per-key across the coordinator set via a consistent-hash
// ring. With a single coordinator every read pays its ~0.9 ms coordinator service time
// on one replica's queue (the saturation point the paper's Figure 6 runs into); with
// three coordinators the same per-key traffic spreads across all replicas' queues, so
// measured throughput at saturation should scale well beyond the 1.5x acceptance bar —
// while every Correctable still sees its monotone preliminary/final view sequence.
//
// Flags: --smoke shortens the trial for CI smoke runs (the JSON summary is still
// written); output includes a BENCH_sharded_load.json with throughput and p50/p99
// preliminary+final latencies for every configuration.
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "src/harness/scenario.h"

namespace icg {
namespace {

constexpr int64_t kRecords = 10000;

RunnerResult RunTrial(int n_coordinators, KvMode mode, int threads_per_client,
                      SimDuration duration, SimDuration elide, uint64_t seed) {
  ShardedTrial trial(seed, n_coordinators, kRegions3);
  const WorkloadConfig workload =
      WorkloadConfig::YcsbB(RequestDistribution::kUniform, kRecords);
  PreloadYcsbDataset(trial.stack.cluster.get(), workload);

  RunnerConfig config;
  config.threads = threads_per_client;
  config.duration = duration;
  config.warmup = elide;
  config.cooldown = elide;

  MultiRunner runner(&trial.world.loop(), config);
  AddYcsbClients(runner, trial.clients, workload, seed * 3 + 1, mode);
  return runner.Run();
}

}  // namespace
}  // namespace icg

int main(int argc, char** argv) {
  using namespace icg;
  const bool smoke = bench::ParseSmokeFlag(argc, argv);

  // Enough closed-loop sessions to drive a single ~0.9 ms/read coordinator well past
  // saturation (3 clients x 64 threads vs. a ~1.1 kops/s single-queue ceiling).
  const int threads = smoke ? 48 : 64;
  const SimDuration duration = smoke ? Seconds(6) : Seconds(40);
  const SimDuration elide = smoke ? Seconds(1) : Seconds(10);

  bench::PrintHeader(
      "Sharded routing: coordinator fan-out via BindingRouter",
      "Uniform-key YCSB-B, 3 clients (one per region), closed loop. Same cluster and\n"
      "workload; only the number of coordinators the router spreads keys across varies.");

  bench::JsonSummary json("sharded_load");
  json.Add("threads_per_client", static_cast<int64_t>(threads));
  json.Add("duration_s", ToSeconds(duration), 1);
  json.AddString("workload", "ycsb-b-uniform");

  bench::Table table({"mode", "coordinators", "throughput (ops/s)", "final p50 (ms)",
                      "final p99 (ms)", "prelim p50 (ms)", "errors"});
  double speedup_icg = 0;
  for (const KvMode mode : {KvMode::kIcg, KvMode::kWeakOnly}) {
    double base_throughput = 0;
    for (const int coords : {1, 3}) {
      const RunnerResult r = RunTrial(coords, mode, threads, duration, elide, 42);
      table.AddRow({KvModeName(mode), std::to_string(coords),
                    bench::Fmt(r.throughput_ops, 0), bench::Fmt(r.final_view.p50_ms()),
                    bench::Fmt(r.final_view.p99_ms()),
                    r.preliminary.count > 0 ? bench::Fmt(r.preliminary.p50_ms()) : "-",
                    std::to_string(r.errors)});
      const std::string prefix = std::string(mode == KvMode::kIcg ? "icg" : "weak") +
                                 ".coords" + std::to_string(coords);
      json.AddLatencies(prefix, r.throughput_ops, r.preliminary, r.final_view);
      json.Add(prefix + ".errors", r.errors);
      json.Add(prefix + ".divergence_pct", r.DivergencePercent(), 2);
      if (coords == 1) {
        base_throughput = r.throughput_ops;
      } else if (base_throughput > 0) {
        const double speedup = r.throughput_ops / base_throughput;
        json.Add(std::string(mode == KvMode::kIcg ? "icg" : "weak") + ".speedup_3v1",
                 speedup, 2);
        if (mode == KvMode::kIcg) {
          speedup_icg = speedup;
        }
      }
    }
  }
  table.Print();
  // Full runs gate on the 1.5x target; smoke runs (shorter, less saturated) only sanity
  // check that sharding helps at all, so CI does not flake on the margin.
  const double bar = smoke ? 1.2 : 1.5;
  std::printf("ICG throughput speedup, 3 vs 1 coordinators: %.2fx %s %.1fx target)\n",
              speedup_icg, speedup_icg >= bar ? "(meets" : "(BELOW", bar);
  json.Write();
  return speedup_icg >= bar ? 0 : 1;
}
