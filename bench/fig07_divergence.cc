// Figure 7: divergence of preliminary from final (correct) views in Correctable
// Cassandra with various YCSB configurations.
//
// Setup (§6.2.1): small dataset of 1K objects, "conditions of a highly-loaded system
// where clients are mostly interested in a small (popular) part of the dataset";
// workloads A and B under the Latest and Zipfian request distributions, sweeping the
// total number of client threads from 30 to 300 (spread over the 3 regional clients).
//
// Paper's shape: divergence grows with load; A-Latest is the worst (up to ~25%), then
// A-Zipfian, then B-Latest, then B-Zipfian.
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "src/harness/scenario.h"

namespace icg {
namespace {

constexpr int64_t kRecords = 1000;  // "a small 1K objects dataset"

double MeasureDivergence(const WorkloadConfig& workload_config, int total_threads,
                         uint64_t seed) {
  FlatTrial trial(seed);
  PreloadYcsbDataset(trial.stack.cluster.get(), workload_config);

  RunnerConfig runner_config;
  runner_config.threads = total_threads / 3;
  runner_config.duration = Seconds(60);
  runner_config.warmup = Seconds(15);
  runner_config.cooldown = Seconds(15);

  MultiRunner runner(&trial.world.loop(), runner_config);
  AddYcsbClients(runner, trial.clients, workload_config, seed * 3 + 1, KvMode::kIcg);
  // Divergence measured across all clients' reads.
  return runner.Run().DivergencePercent();
}

}  // namespace
}  // namespace icg

int main() {
  using namespace icg;
  bench::PrintHeader(
      "Figure 7: divergence of preliminary from final views (Correctable Cassandra)",
      "1K objects, YCSB A/B x Latest/Zipfian, total threads 30..300 over 3 clients.\n"
      "Paper's shape: divergence rises with load; A-Latest up to ~25%;\n"
      "ordering A-Latest > A-Zipfian > B-Latest > B-Zipfian.");

  struct Config {
    const char* label;
    WorkloadConfig workload;
  };
  // YCSB default records: 10 fields x 100 B.
  auto with_fields = [](WorkloadConfig c) {
    c.field_count = 10;
    c.field_length = 100;
    return c;
  };
  const std::vector<Config> configs = {
      {"A-Latest", with_fields(WorkloadConfig::YcsbA(RequestDistribution::kLatest, kRecords))},
      {"A-Zipfian", with_fields(WorkloadConfig::YcsbA(RequestDistribution::kZipfian, kRecords))},
      {"B-Latest", with_fields(WorkloadConfig::YcsbB(RequestDistribution::kLatest, kRecords))},
      {"B-Zipfian", with_fields(WorkloadConfig::YcsbB(RequestDistribution::kZipfian, kRecords))},
  };

  std::vector<std::string> columns = {"workload"};
  const std::vector<int> thread_sweep = {30, 60, 120, 180, 240, 300};
  for (const int t : thread_sweep) {
    columns.push_back(std::to_string(t) + " thr");
  }
  bench::Table table(columns);
  uint64_t seed = 700;
  for (const auto& config : configs) {
    std::vector<std::string> row = {config.label};
    for (const int threads : thread_sweep) {
      row.push_back(bench::Fmt(MeasureDivergence(config.workload, threads, seed++), 1) + "%");
    }
    table.AddRow(row);
  }
  table.Print();
  return 0;
}
