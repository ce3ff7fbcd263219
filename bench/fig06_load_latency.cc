// Figure 6: performance of Correctable Cassandra (CC) compared to baseline Cassandra (C)
// under YCSB load: average latency as a function of throughput for workloads A
// (50:50), B (95:5), and C (read-only).
//
// Setup (§6.2.1): "we deploy 3 clients, one per region, with each client connecting to a
// remote replica. For brevity, we only report on the results for the client in IRL and
// R = {1,2}." Systems: C1, C2, and CC2 (whose preliminary and final views share one
// throughput but have different latencies). Expected shape: CC2 preliminary tracks C1,
// CC2 final tracks C2, and CC saturates slightly earlier (the preliminary-flushing cost).
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "src/harness/scenario.h"

namespace icg {
namespace {

constexpr int64_t kRecords = 10000;

// One trial: three clients (IRL->FRK, FRK->VRG, VRG->IRL), report the IRL client.
RunnerResult RunTrial(const WorkloadConfig& workload_config, KvMode mode, int threads_per_client,
                      uint64_t seed) {
  FlatTrial trial(seed);
  PreloadYcsbDataset(trial.stack.cluster.get(), workload_config);

  RunnerConfig runner_config;
  runner_config.threads = threads_per_client;
  runner_config.duration = Seconds(60);
  runner_config.warmup = Seconds(15);
  runner_config.cooldown = Seconds(15);

  MultiRunner runner(&trial.world.loop(), runner_config);
  AddYcsbClients(runner, trial.clients, workload_config, seed * 3 + 1, mode);
  runner.Run();
  return runner.CollectClient(0);
}

void RunWorkload(const std::string& name, const std::string& key, const WorkloadConfig& config,
                 bench::JsonSummary& json) {
  const std::vector<int> thread_sweep = {2, 4, 8, 16, 24, 32, 48, 64};
  bench::Table table({"threads/client", "system", "throughput (ops/s)", "avg latency (ms)",
                      "preliminary (ms)"});
  for (const int threads : thread_sweep) {
    const RunnerResult c1 = RunTrial(config, KvMode::kWeakOnly, threads, 101);
    const RunnerResult c2 = RunTrial(config, KvMode::kStrongOnly, threads, 102);
    const RunnerResult cc2 = RunTrial(config, KvMode::kIcg, threads, 103);
    table.AddRow({std::to_string(threads), "C1 (R=1)", bench::Fmt(c1.throughput_ops, 0),
                  bench::Fmt(c1.final_view.mean_ms()), "-"});
    table.AddRow({std::to_string(threads), "C2 (R=2)", bench::Fmt(c2.throughput_ops, 0),
                  bench::Fmt(c2.final_view.mean_ms()), "-"});
    table.AddRow({std::to_string(threads), "CC2 (R={1,2})", bench::Fmt(cc2.throughput_ops, 0),
                  bench::Fmt(cc2.final_view.mean_ms()),
                  cc2.preliminary.count > 0 ? bench::Fmt(cc2.preliminary.mean_ms()) : "-"});
    const std::string prefix = key + ".t" + std::to_string(threads);
    json.AddLatencies(prefix + ".C1", c1.throughput_ops, c1.preliminary, c1.final_view);
    json.AddLatencies(prefix + ".C2", c2.throughput_ops, c2.preliminary, c2.final_view);
    json.AddLatencies(prefix + ".CC2", cc2.throughput_ops, cc2.preliminary, cc2.final_view);
  }
  std::printf("--- Workload %s ---\n", name.c_str());
  table.Print();
}

}  // namespace
}  // namespace icg

int main() {
  using namespace icg;
  bench::PrintHeader(
      "Figure 6: latency vs. throughput under YCSB load (CC vs baseline Cassandra)",
      "3 clients (one per region), each using a remote coordinator; IRL client reported.\n"
      "Paper's shape: CC2 preliminary tracks C1 (~20 ms), CC2 final tracks C2 (~40 ms);\n"
      "CC trades in some throughput (saturates slightly before the baselines).");

  bench::JsonSummary json("fig06_load_latency");
  RunWorkload("A (50:50 read/write)", "A",
              WorkloadConfig::YcsbA(RequestDistribution::kZipfian, kRecords), json);
  RunWorkload("B (95:5 read/write)", "B",
              WorkloadConfig::YcsbB(RequestDistribution::kZipfian, kRecords), json);
  RunWorkload("C (read-only)", "C",
              WorkloadConfig::YcsbC(RequestDistribution::kZipfian, kRecords), json);
  json.Write();
  return 0;
}
