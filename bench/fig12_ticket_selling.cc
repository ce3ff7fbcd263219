// Figure 12: selling tickets with ZooKeeper (ZK) vs Correctable ZooKeeper (CZK).
//
// Setup (§6.3.2): a fixed stock of 500 tickets in a replicated queue; 4 retailers
// colocated with the FRK follower (leader in IRL) concurrently dequeue tickets. CZK
// retailers use invoke(): while more than 20 tickets remain (estimated from the
// preliminary view's ticket number), the sale confirms on the preliminary; for the last
// 20 tickets they wait for the final (atomic) view. ZK retailers always wait for the
// committed dequeue.
//
// Paper's shape: CZK purchase latency stays near the client-follower RTT until the
// last-20 threshold, then jumps to ZK's level (higher and more variable due to
// contention); on average only the last ~2 tickets (max 6) are revoked by final views.
#include <functional>
#include <memory>
#include <vector>

#include "bench/bench_util.h"
#include "src/apps/tickets.h"
#include "src/harness/deployment.h"

namespace icg {
namespace {

constexpr int kRetailers = 4;
constexpr int64_t kStock = 500;
constexpr int64_t kThreshold = 20;
constexpr int kRuns = 5;

struct TicketSample {
  int64_t ticket_number = 0;  // order of purchase completion (1-based)
  double latency_ms = 0;
  bool via_preliminary = false;
};

struct RunStats {
  std::vector<TicketSample> samples;  // indexed by purchase order
  int64_t revocations = 0;
  int64_t preliminary_purchases = 0;
};

RunStats RunSale(bool czk, uint64_t seed) {
  SimWorld world(seed);
  auto stack = MakeZooKeeperStack(world, Region::kFrankfurt, Region::kFrankfurt,
                                  Region::kIreland);
  TicketConfig ticket_config;
  ticket_config.event = "concert";
  ticket_config.stock = kStock;
  ticket_config.threshold = czk ? kThreshold : kStock + 1;  // ZK: always wait for final
  stack.cluster->PreloadQueue("concert", kStock, "ticket");

  // Each retailer is an independent client session colocated with the FRK follower.
  std::vector<ZooKeeperClientEndpoint> endpoints;
  std::vector<std::unique_ptr<TicketSeller>> sellers;
  for (int i = 0; i < kRetailers; ++i) {
    endpoints.push_back(AddZooKeeperClient(world, stack, Region::kFrankfurt,
                                           Region::kFrankfurt));
    sellers.push_back(
        std::make_unique<TicketSeller>(endpoints.back().client.get(), ticket_config));
  }

  auto stats = std::make_shared<RunStats>();
  auto purchases = std::make_shared<int64_t>(0);
  // Closed loop per retailer: keep buying until sold out.
  std::vector<std::shared_ptr<std::function<void()>>> loops;
  for (auto& seller : sellers) {
    auto next = std::make_shared<std::function<void()>>();
    TicketSeller* s = seller.get();
    *next = [s, next, stats, purchases]() {
      s->PurchaseTicket([next, stats, purchases](PurchaseOutcome outcome) {
        if (outcome.purchased) {
          (*purchases)++;
          TicketSample sample;
          sample.ticket_number = *purchases;
          sample.latency_ms = ToMillis(outcome.latency);
          sample.via_preliminary = outcome.via_preliminary;
          stats->samples.push_back(sample);
          (*next)();
        }
        // Sold out (or error): the retailer stops.
      });
    };
    loops.push_back(next);
    (*next)();
  }
  world.loop().Run();

  for (auto& seller : sellers) {
    stats->revocations += seller->revocations();
    stats->preliminary_purchases += seller->preliminary_purchases();
  }
  return *stats;
}

double AvgLatencyInRange(const std::vector<RunStats>& runs, int64_t lo, int64_t hi,
                         bool czk_only_prelim) {
  (void)czk_only_prelim;
  double sum = 0;
  int64_t count = 0;
  for (const auto& run : runs) {
    for (const auto& sample : run.samples) {
      if (sample.ticket_number >= lo && sample.ticket_number <= hi) {
        sum += sample.latency_ms;
        count++;
      }
    }
  }
  return count == 0 ? 0.0 : sum / static_cast<double>(count);
}

}  // namespace
}  // namespace icg

int main() {
  using namespace icg;
  bench::PrintHeader(
      "Figure 12: ticket selling — ZK vs CZK, 500 tickets, 4 retailers (FRK), leader IRL",
      "CZK confirms sales on the preliminary view while >20 tickets remain, then switches\n"
      "to atomic finals. Paper's shape: CZK latency near the local RTT until the last 20\n"
      "tickets, then jumps to ZK-level latency; ~2 tickets revoked on average (max 6).");

  std::vector<RunStats> czk_runs;
  std::vector<RunStats> zk_runs;
  for (int run = 0; run < kRuns; ++run) {
    czk_runs.push_back(RunSale(/*czk=*/true, 1200 + static_cast<uint64_t>(run)));
    zk_runs.push_back(RunSale(/*czk=*/false, 1300 + static_cast<uint64_t>(run)));
  }

  bench::Table table({"ticket range", "CZK avg latency (ms)", "ZK avg latency (ms)"});
  for (int64_t lo = 1; lo <= kStock; lo += 50) {
    const int64_t hi = std::min<int64_t>(lo + 49, kStock);
    table.AddRow({std::to_string(lo) + "-" + std::to_string(hi),
                  bench::Fmt(AvgLatencyInRange(czk_runs, lo, hi, true)),
                  bench::Fmt(AvgLatencyInRange(zk_runs, lo, hi, false))});
  }
  // Zoom into the threshold crossover, mirroring the paper's "last 20 tickets" callout.
  table.AddRow({"last 40..21", bench::Fmt(AvgLatencyInRange(czk_runs, kStock - 39, kStock - 20,
                                                            true)),
                bench::Fmt(AvgLatencyInRange(zk_runs, kStock - 39, kStock - 20, false))});
  table.AddRow({"last 20", bench::Fmt(AvgLatencyInRange(czk_runs, kStock - 19, kStock, true)),
                bench::Fmt(AvgLatencyInRange(zk_runs, kStock - 19, kStock, false))});
  table.Print();

  double avg_revocations = 0;
  int64_t max_revocations = 0;
  double avg_prelim = 0;
  for (const auto& run : czk_runs) {
    avg_revocations += static_cast<double>(run.revocations);
    max_revocations = std::max(max_revocations, run.revocations);
    avg_prelim += static_cast<double>(run.preliminary_purchases);
  }
  avg_revocations /= kRuns;
  avg_prelim /= kRuns;
  std::printf("CZK fast-path purchases (avg over %d runs): %.0f of %lld\n", kRuns, avg_prelim,
              static_cast<long long>(kStock));
  std::printf("Tickets revoked by final views: avg %.1f, max %lld (paper: avg ~2, max 6)\n\n",
              avg_revocations, static_cast<long long>(max_revocations));
  return 0;
}
