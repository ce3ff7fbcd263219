// Cross-tick batching: client<->store round-trips per operation as the batch window
// widens, under the MultiRunner YCSB load on the sharded Cassandra deployment.
//
// Setup: one Cassandra-style cluster (FRK/IRL/VRG replicas), three routed clients (one
// per region), YCSB-B uniform keys, ICG reads (weak preliminary + strong final) and
// strong writes. Every configuration runs the identical workload; only the
// BatchConfig::batch_window the stacks are built with varies. With window 0 each
// distinct key pays its own store round-trip per tick and every write goes out alone;
// as the window widens, reads for one shard pool into single multigets and writes flush
// as in-order multiputs, so client-link messages per operation must decrease
// monotonically — the amortization the paper's incremental views bank on (§5-6),
// generalized across ticks. The flip side, visible in the latency columns, is that
// waiters sit out up to one window: batching trades per-op latency for round-trips.
//
// Flags: --smoke shortens the trial for CI smoke runs (the JSON summary is still
// written); output includes BENCH_batch_window.json with throughput, latencies, link
// traffic, and the batching counters for every window.
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "src/harness/scenario.h"

namespace icg {
namespace {

constexpr int64_t kRecords = 5000;

struct TrialResult {
  RunnerResult load;
  int64_t client_link_messages = 0;
  int64_t client_link_bytes = 0;
  int64_t cross_tick_batches = 0;
  int64_t coalesced_reads = 0;
  int64_t batched_writes = 0;

  double MsgsPerOp() const {
    return load.measured_ops == 0
               ? 0.0
               : static_cast<double>(client_link_messages) /
                     static_cast<double>(load.measured_ops);
  }
};

TrialResult RunTrial(SimDuration window, int threads_per_client, SimDuration duration,
                     SimDuration elide, uint64_t seed) {
  ShardedTrial trial(seed, /*coordinators=*/3, kRegions3, {.batch_window = window});
  const WorkloadConfig workload =
      WorkloadConfig::YcsbB(RequestDistribution::kUniform, kRecords);
  PreloadYcsbDataset(trial.stack.cluster.get(), workload);

  RunnerConfig config;
  config.threads = threads_per_client;
  config.duration = duration;
  config.warmup = elide;
  config.cooldown = elide;

  MultiRunner runner(&trial.world.loop(), config);
  AddYcsbClients(runner, trial.clients, workload, seed * 3 + 1, KvMode::kIcg);

  TrialResult result;
  result.load = runner.Run();
  for (const auto& endpoint : trial.stack.endpoints()) {
    for (const auto& kv_client : endpoint->kv_clients) {
      result.client_link_messages += kv_client->LinkMessages();
      result.client_link_bytes += kv_client->LinkBytes();
    }
  }
  for (const CorrectableClient* client : trial.clients) {
    result.cross_tick_batches += client->stats().cross_tick_batches;
    result.coalesced_reads += client->stats().coalesced_reads;
    result.batched_writes += client->stats().batched_writes;
  }
  return result;
}

}  // namespace
}  // namespace icg

int main(int argc, char** argv) {
  using namespace icg;
  const bool smoke = bench::ParseSmokeFlag(argc, argv);

  const int threads = smoke ? 32 : 48;
  const SimDuration duration = smoke ? Seconds(5) : Seconds(30);
  const SimDuration elide = smoke ? Seconds(1) : Seconds(8);
  const std::vector<SimDuration> windows = {Millis(0), Millis(1), Millis(5), Millis(20)};

  bench::PrintHeader(
      "Cross-tick batching: round-trips per op vs. batch window",
      "Uniform-key YCSB-B, 3 routed clients (one per region), ICG reads, closed loop.\n"
      "Identical workload per row; only BatchConfig::batch_window varies. Client-link\n"
      "messages per operation must decrease monotonically as the window widens.");

  bench::JsonSummary json("batch_window");
  json.Add("threads_per_client", static_cast<int64_t>(threads));
  json.Add("duration_s", ToSeconds(duration), 1);
  json.AddString("workload", "ycsb-b-uniform");

  bench::Table table({"window (ms)", "throughput (ops/s)", "msgs/op", "kB/op",
                      "final p50 (ms)", "final p99 (ms)", "prelim p50 (ms)",
                      "batches", "batched writes", "errors"});

  std::vector<double> msgs_per_op;
  for (const SimDuration window : windows) {
    const TrialResult trial = RunTrial(window, threads, duration, elide, 42);
    msgs_per_op.push_back(trial.MsgsPerOp());
    const double kb_per_op =
        trial.load.measured_ops == 0
            ? 0.0
            : static_cast<double>(trial.client_link_bytes) / 1024.0 /
                  static_cast<double>(trial.load.measured_ops);
    table.AddRow({bench::Fmt(ToMillis(window), 0), bench::Fmt(trial.load.throughput_ops, 0),
                  bench::Fmt(trial.MsgsPerOp(), 3), bench::Fmt(kb_per_op, 3),
                  bench::Fmt(trial.load.final_view.p50_ms()),
                  bench::Fmt(trial.load.final_view.p99_ms()),
                  trial.load.preliminary.count > 0
                      ? bench::Fmt(trial.load.preliminary.p50_ms())
                      : "-",
                  std::to_string(trial.cross_tick_batches),
                  std::to_string(trial.batched_writes), std::to_string(trial.load.errors)});

    const std::string prefix = "window_ms" + bench::Fmt(ToMillis(window), 0);
    json.AddLatencies(prefix, trial.load.throughput_ops, trial.load.preliminary,
                      trial.load.final_view);
    json.Add(prefix + ".msgs_per_op", trial.MsgsPerOp(), 4);
    json.Add(prefix + ".kb_per_op", kb_per_op, 4);
    json.Add(prefix + ".cross_tick_batches", trial.cross_tick_batches);
    json.Add(prefix + ".coalesced_reads", trial.coalesced_reads);
    json.Add(prefix + ".batched_writes", trial.batched_writes);
    json.Add(prefix + ".errors", trial.load.errors);
  }
  table.Print();

  // Gate: round-trips per op must decrease monotonically as the window widens (tiny
  // tolerance for boundary accounting), and the widest window must show a real saving.
  bool monotone = true;
  for (size_t i = 1; i < msgs_per_op.size(); ++i) {
    if (msgs_per_op[i] > msgs_per_op[i - 1] * 1.01) {
      monotone = false;
    }
  }
  const bool real_saving = msgs_per_op.back() < msgs_per_op.front() * 0.85;
  json.Add("monotone_decreasing", static_cast<int64_t>(monotone));
  json.Add("saving_vs_window0", msgs_per_op.front() > 0
                                     ? 1.0 - msgs_per_op.back() / msgs_per_op.front()
                                     : 0.0,
           3);
  std::printf("msgs/op monotone decreasing with window: %s; widest window saves %.0f%%\n",
              monotone ? "yes" : "NO",
              msgs_per_op.front() > 0
                  ? 100.0 * (1.0 - msgs_per_op.back() / msgs_per_op.front())
                  : 0.0);
  json.Write();
  return monotone && real_saving ? 0 : 1;
}
