// Figure 8: efficiency (client<->replica bandwidth per operation) of the ICG
// implementation in Correctable Cassandra.
//
// Setup (§6.2.1): the divergence-maximizing conditions of Figure 7 (1K objects, Latest /
// Zipfian, 3 clients, thread sweep). Systems: C1 (single weak read, the conservative
// baseline), CC2 (ICG without optimization), and *CC2 (ICG with the confirmation
// optimization: a final view matching the preliminary digest is replaced by a small
// confirmation message).
//
// Paper's shape: CC2 costs up to +77% (workload A-Latest) / +90% (workload B) over C1;
// confirmations cut this to +27% / +15% — the savings shrink as divergence grows.
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "src/harness/scenario.h"

namespace icg {
namespace {

constexpr int64_t kRecords = 1000;

struct Efficiency {
  double kb_per_op = 0;
  double divergence_pct = 0;
};

Efficiency MeasureEfficiency(const WorkloadConfig& workload_config, KvMode mode,
                             bool confirmations, int total_threads, uint64_t seed) {
  FlatTrial trial(seed, {.confirmations = confirmations});
  PreloadYcsbDataset(trial.stack.cluster.get(), workload_config);

  RunnerConfig runner_config;
  runner_config.threads = total_threads / 3;
  runner_config.duration = Seconds(45);
  runner_config.warmup = Seconds(15);
  runner_config.cooldown = 0;  // byte accounting runs to the trial end

  SimWorld& world = trial.world;
  MultiRunner runner(&world.loop(), runner_config);
  AddYcsbClients(runner, trial.clients, workload_config, seed * 3 + 1, mode);
  runner.Begin();
  // Start byte accounting at the warmup boundary so kB/op covers the measured ops.
  world.loop().Schedule(runner_config.warmup, [&world]() { world.network().ResetStats(); });
  world.loop().RunUntil(world.loop().Now() + runner_config.duration + Seconds(5));

  const RunnerResult result = runner.CollectClient(0);
  Efficiency eff;
  eff.kb_per_op = result.measured_ops == 0
                      ? 0.0
                      : static_cast<double>(trial.stack.kv_client->LinkBytes()) /
                            static_cast<double>(result.measured_ops) / 1000.0;
  eff.divergence_pct = result.DivergencePercent();
  return eff;
}

void RunWorkload(const char* name, const WorkloadConfig& base,
                 RequestDistribution distribution) {
  WorkloadConfig config = base;
  config.request_distribution = distribution;
  config.field_count = 10;  // YCSB default 1 KB records
  config.field_length = 100;

  bench::Table table({"threads", "C1 (kB/op)", "CC2 (kB/op)", "*CC2 (kB/op)", "CC2 overhead",
                      "*CC2 overhead", "divergence"});
  uint64_t seed = 800;
  for (const int threads : {30, 60, 120, 180, 240, 300}) {
    const Efficiency c1 =
        MeasureEfficiency(config, KvMode::kWeakOnly, false, threads, seed++);
    const Efficiency cc2 = MeasureEfficiency(config, KvMode::kIcg, false, threads, seed++);
    const Efficiency cc2_opt = MeasureEfficiency(config, KvMode::kIcg, true, threads, seed++);
    table.AddRow({std::to_string(threads), bench::Fmt(c1.kb_per_op, 2),
                  bench::Fmt(cc2.kb_per_op, 2), bench::Fmt(cc2_opt.kb_per_op, 2),
                  "+" + bench::Fmt(100.0 * (cc2.kb_per_op / c1.kb_per_op - 1.0), 0) + "%",
                  "+" + bench::Fmt(100.0 * (cc2_opt.kb_per_op / c1.kb_per_op - 1.0), 0) + "%",
                  bench::Fmt(cc2_opt.divergence_pct, 1) + "%"});
  }
  std::printf("--- %s / %s distribution ---\n", name, RequestDistributionName(distribution));
  table.Print();
}

}  // namespace
}  // namespace icg

int main() {
  using namespace icg;
  bench::PrintHeader(
      "Figure 8: efficiency (bandwidth overhead) of ICG in Correctable Cassandra",
      "IRL client's link bytes per operation; 1K objects; 1 KB records.\n"
      "Paper's shape: CC2 up to +77% (A) / +90% (B) over C1; the confirmation\n"
      "optimization (*CC2) reduces this to +27% (A-Latest, high divergence) / +15% (B).");

  RunWorkload("Workload A", WorkloadConfig::YcsbA(RequestDistribution::kLatest, kRecords),
              RequestDistribution::kLatest);
  RunWorkload("Workload A", WorkloadConfig::YcsbA(RequestDistribution::kZipfian, kRecords),
              RequestDistribution::kZipfian);
  RunWorkload("Workload B", WorkloadConfig::YcsbB(RequestDistribution::kLatest, kRecords),
              RequestDistribution::kLatest);
  RunWorkload("Workload B", WorkloadConfig::YcsbB(RequestDistribution::kZipfian, kRecords),
              RequestDistribution::kZipfian);
  return 0;
}
