// Figure 9: latency gaps between preliminary and final views for queue operations in
// Correctable ZooKeeper (CZK) vs vanilla ZooKeeper (ZK), for four leader/contact-server
// configurations. Client in IRL; 20 B queue elements.
//
// Paper's shape: the preliminary latency equals the client<->contact RTT (20 ms via FRK,
// 2 ms in IRL, 83 ms to VRG); the final latency adds Zab coordination with the leader;
// the most appealing gap appears when the client and its follower are in IRL but the
// leader is distant (VRG). Also reproduces the §6.2.2 enqueue bandwidth note: ~270 B/op
// for ZK growing to ~400 B/op (+~50%) with the extra preliminary response.
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "src/common/histogram.h"
#include "src/harness/deployment.h"

namespace icg {
namespace {

constexpr int kOps = 1500;
constexpr int kElementBytes = 20;

struct Measurement {
  LatencySummary zk;            // vanilla: single final view
  LatencySummary czk_prelim;
  LatencySummary czk_final;
  double zk_bytes_per_op = 0;
  double czk_bytes_per_op = 0;
};

LatencySummary MeasureEnqueues(SimWorld& world, CorrectableClient& client, bool icg,
                               LatencyRecorder* prelim_out) {
  LatencyRecorder final_lat;
  const std::string element(kElementBytes, 'e');
  for (int i = 0; i < kOps; ++i) {
    const SimTime start = world.loop().Now();
    auto c = icg ? client.Invoke(Operation::Enqueue("q", element))
                 : client.InvokeStrong(Operation::Enqueue("q", element));
    c.SetCallbacks(
        [&](const View<OpResult>& v) {
          if (prelim_out != nullptr) {
            prelim_out->Record(v.delivered_at - start);
          }
        },
        [&](const View<OpResult>& v) { final_lat.Record(v.delivered_at - start); });
    world.loop().Run();
  }
  return final_lat.Summarize();
}

Measurement RunConfig(Region session, Region leader, uint64_t seed) {
  Measurement m;
  {
    SimWorld world(seed);
    auto stack = MakeZooKeeperStack(world, Region::kIreland, session, leader);
    m.zk = MeasureEnqueues(world, *stack.client, /*icg=*/false, nullptr);
    m.zk_bytes_per_op = static_cast<double>(stack.zab_client->LinkBytes()) / kOps;
  }
  {
    SimWorld world(seed + 1);
    auto stack = MakeZooKeeperStack(world, Region::kIreland, session, leader);
    LatencyRecorder prelim;
    m.czk_final = MeasureEnqueues(world, *stack.client, /*icg=*/true, &prelim);
    m.czk_prelim = prelim.Summarize();
    m.czk_bytes_per_op = static_cast<double>(stack.zab_client->LinkBytes()) / kOps;
  }
  return m;
}

}  // namespace
}  // namespace icg

int main() {
  using namespace icg;
  bench::PrintHeader(
      "Figure 9: CZK vs ZK enqueue latency for four leader/contact configurations",
      "Client in IRL; 20 B elements; ensemble IRL/FRK/VRG.\n"
      "Paper's shape: preliminary = client<->contact RTT (20/2/2/83 ms); the largest\n"
      "gap appears with the follower in IRL and the leader in VRG.");

  struct Config {
    const char* label;
    Region session;
    Region leader;
  };
  const std::vector<Config> configs = {
      {"follower FRK, leader IRL", Region::kFrankfurt, Region::kIreland},
      {"leader IRL (direct)", Region::kIreland, Region::kIreland},
      {"follower IRL, leader VRG", Region::kIreland, Region::kVirginia},
      {"leader VRG (direct)", Region::kVirginia, Region::kVirginia},
  };

  bench::Table table({"configuration", "CZK prelim avg/p99 (ms)", "CZK final avg/p99 (ms)",
                      "ZK avg/p99 (ms)"});
  bench::Table bw({"configuration", "ZK (B/op)", "CZK (B/op)", "overhead"});
  uint64_t seed = 900;
  for (const auto& config : configs) {
    const Measurement m = RunConfig(config.session, config.leader, seed);
    seed += 2;
    table.AddRow({config.label,
                  bench::Fmt(m.czk_prelim.mean_ms()) + " / " + bench::Fmt(m.czk_prelim.p99_ms()),
                  bench::Fmt(m.czk_final.mean_ms()) + " / " + bench::Fmt(m.czk_final.p99_ms()),
                  bench::Fmt(m.zk.mean_ms()) + " / " + bench::Fmt(m.zk.p99_ms())});
    bw.AddRow({config.label, bench::Fmt(m.zk_bytes_per_op, 0),
               bench::Fmt(m.czk_bytes_per_op, 0),
               "+" + bench::Fmt(100.0 * (m.czk_bytes_per_op / m.zk_bytes_per_op - 1.0), 0) +
                   "%"});
  }
  table.Print();

  std::printf("Enqueue bandwidth (paper: ~270 -> ~400 B/op, +~50%%):\n");
  bw.Print();
  return 0;
}
