// Ablations over the design choices DESIGN.md calls out:
//
//  (1) Preliminary flushing cost: the coordinator-side service time spent flushing
//      preliminary responses is the cause of CC's throughput drop (§6.2.1). Sweep the
//      flush cost to show the throughput/latency sensitivity.
//  (2) Confirmation optimization: bandwidth with confirmations on/off at several write
//      ratios (generalizing Figure 8's two workloads).
//  (3) Views-vs-throughput trade-off (§4.5): requesting 1, 2, or 3 views per operation
//      on the three-level cached-primary-backup binding — "as the replicated system
//      delivers more preliminary views for an operation, less operations can be
//      sustained and overall throughput drops", while interactivity (time to first view)
//      improves.
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "src/harness/scenario.h"

namespace icg {
namespace {

constexpr int64_t kRecords = 1000;

// --- Ablation 1: preliminary flushing cost ------------------------------------------

void AblateFlushCost() {
  bench::Table table({"flush cost (us)", "throughput (ops/s)", "final latency (ms)"});
  for (const int64_t flush_us : {0, 60, 200, 500, 1000}) {
    KvConfig kv;
    kv.flush_service = Micros(flush_us);
    SimWorld world(42);
    CassandraBindingConfig binding;
    binding.strong_read_quorum = 2;
    auto stack = MakeCassandraStack(world, kv, binding);
    WorkloadConfig workload_config = WorkloadConfig::YcsbC(RequestDistribution::kZipfian,
                                                           kRecords);
    PreloadYcsbDataset(stack.cluster.get(), workload_config);

    RunnerConfig runner_config;
    runner_config.threads = 48;  // past the saturation knee
    runner_config.duration = Seconds(45);
    runner_config.warmup = Seconds(10);
    runner_config.cooldown = Seconds(10);
    CoreWorkload workload(workload_config, 42);
    LoadRunner runner(&world.loop(), &workload,
                      MakeKvExecutor(stack.client.get(), KvMode::kIcg), runner_config);
    const RunnerResult result = runner.Run();
    table.AddRow({std::to_string(flush_us), bench::Fmt(result.throughput_ops, 0),
                  bench::Fmt(result.final_view.mean_ms())});
  }
  std::printf("--- Ablation 1: coordinator cost of preliminary flushing (48 threads, "
              "workload C) ---\n");
  table.Print();
}

// --- Ablation 2: confirmation optimization vs write ratio ----------------------------

void AblateConfirmations() {
  bench::Table table({"write ratio", "divergence", "CC2 (kB/op)", "*CC2 (kB/op)", "saving"});
  for (const double write_ratio : {0.0, 0.05, 0.2, 0.5}) {
    double kb[2] = {0, 0};
    double divergence = 0;
    for (const bool confirmations : {false, true}) {
      // Divergence needs remote writers: the 3-client deployment of Figures 7/8.
      FlatTrial trial(77, {.confirmations = confirmations});
      SimWorld& world = trial.world;
      WorkloadConfig workload_config;
      workload_config.record_count = kRecords;
      workload_config.read_proportion = 1.0 - write_ratio;
      workload_config.update_proportion = write_ratio;
      workload_config.request_distribution = RequestDistribution::kLatest;
      workload_config.field_count = 10;
      PreloadYcsbDataset(trial.stack.cluster.get(), workload_config);

      RunnerConfig runner_config;
      runner_config.threads = 60;
      runner_config.duration = Seconds(45);
      runner_config.warmup = Seconds(10);
      runner_config.cooldown = 0;
      MultiRunner runner(&world.loop(), runner_config);
      AddYcsbClients(runner, trial.clients, workload_config, 77, KvMode::kIcg);
      runner.Begin();
      world.loop().Schedule(runner_config.warmup,
                            [&world]() { world.network().ResetStats(); });
      world.loop().RunUntil(world.loop().Now() + runner_config.duration + Seconds(5));
      const RunnerResult result = runner.CollectClient(0);
      kb[confirmations ? 1 : 0] =
          result.measured_ops == 0
              ? 0.0
              : static_cast<double>(trial.stack.kv_client->LinkBytes()) /
                    static_cast<double>(result.measured_ops) / 1000.0;
      if (confirmations) {
        divergence = result.DivergencePercent();
      }
    }
    table.AddRow({bench::Fmt(write_ratio, 2), bench::Fmt(divergence, 1) + "%",
                  bench::Fmt(kb[0], 2), bench::Fmt(kb[1], 2),
                  bench::Fmt(100.0 * (1.0 - kb[1] / kb[0]), 0) + "%"});
  }
  std::printf("--- Ablation 2: confirmation optimization vs write ratio (Latest, 60 "
              "threads/client, 3 clients) ---\n");
  table.Print();
}

// --- Ablation 3: number of views vs throughput (§4.5) --------------------------------

void AblateViewCount() {
  struct Selection {
    const char* label;
    LevelVec levels;
  };
  const std::vector<Selection> selections = {
      {"1 view (STRONG)", {ConsistencyLevel::kStrong}},
      {"2 views (WEAK,STRONG)", {ConsistencyLevel::kWeak, ConsistencyLevel::kStrong}},
      {"3 views (CACHE,WEAK,STRONG)",
       {ConsistencyLevel::kCache, ConsistencyLevel::kWeak, ConsistencyLevel::kStrong}},
  };
  bench::Table table({"views requested", "throughput (ops/s)", "first view (ms)",
                      "final view (ms)"});
  for (const auto& selection : selections) {
    SimWorld world(99);
    auto stack = MakeNewsStack(world);
    for (int i = 0; i < 1000; ++i) {
      stack.cluster->Preload("news:" + std::to_string(i), std::string(256, 'n'));
    }
    // Closed loop of 32 readers over the 3-level news deployment.
    constexpr int kSessions = 32;
    const SimTime end = world.loop().Now() + Seconds(30);
    int64_t ops = 0;
    LatencyRecorder first_view;
    LatencyRecorder final_view;
    std::vector<std::shared_ptr<std::function<void(int)>>> loops;
    for (int s = 0; s < kSessions; ++s) {
      auto next = std::make_shared<std::function<void(int)>>();
      *next = [&, next](int i) {
        if (world.loop().Now() >= end) {
          return;
        }
        const SimTime start = world.loop().Now();
        auto first_at = std::make_shared<std::optional<SimTime>>();
        auto c = stack.client->Invoke(
            Operation::Get("news:" + std::to_string((i * 37) % 1000)), selection.levels);
        c.OnUpdate([first_at, start](const View<OpResult>& v) {
          if (!first_at->has_value()) {
            *first_at = v.delivered_at - start;
          }
        });
        c.OnFinal([&, first_at, start, next, i](const View<OpResult>& v) {
          ops++;
          final_view.Record(v.delivered_at - start);
          first_view.Record(first_at->has_value() ? **first_at : v.delivered_at - start);
          (*next)(i + 1);
        });
      };
      loops.push_back(next);
      (*next)(s * 101);
    }
    world.loop().RunUntil(end + Seconds(2));
    table.AddRow({selection.label, bench::Fmt(static_cast<double>(ops) / 30.0, 0),
                  bench::Fmt(first_view.Summarize().mean_ms()),
                  bench::Fmt(final_view.Summarize().mean_ms())});
  }
  std::printf("--- Ablation 3: views-per-operation vs interactivity (news stack) ---\n");
  table.Print();
  std::printf(
      "Note: throughput is unchanged here because the extra views are served by\n"
      "otherwise-idle nodes (cache, backup); when the extra view rides the bottleneck\n"
      "server, it costs throughput — exactly what Ablation 1 (flush cost) quantifies.\n\n");
}

}  // namespace
}  // namespace icg

int main() {
  using namespace icg;
  bench::PrintHeader("Ablations: preliminary flushing, confirmations, view count",
                     "Design-choice sensitivity studies beyond the paper's figures.");
  AblateFlushCost();
  AblateConfirmations();
  AblateViewCount();
  return 0;
}
