// The ticket-selling system of §4.3 (Listing 5): dynamic selection of consistency
// guarantees. While the preliminary view shows plenty of stock, sales confirm on weak
// consistency at local-RTT latency; for the last tickets the retailers wait for the
// atomic (Zab-committed) view to avoid overselling.
#include <cstdio>
#include <functional>
#include <memory>
#include <vector>

#include "src/apps/tickets.h"
#include "src/harness/deployment.h"

using namespace icg;

int main() {
  SimWorld world(13);
  // Retailers colocated with the FRK follower; leader in IRL (the paper's Figure 12
  // deployment).
  auto stack = MakeZooKeeperStack(world, Region::kFrankfurt, Region::kFrankfurt,
                                  Region::kIreland);

  TicketConfig config;
  config.event = "gig";
  config.stock = 60;  // small stock so the threshold switch is visible in the output
  config.threshold = 10;
  stack.cluster->PreloadQueue(config.event, config.stock, "ticket");

  constexpr int kRetailers = 3;
  std::vector<ZooKeeperClientEndpoint> endpoints;
  std::vector<std::unique_ptr<TicketSeller>> sellers;
  for (int i = 0; i < kRetailers; ++i) {
    endpoints.push_back(
        AddZooKeeperClient(world, stack, Region::kFrankfurt, Region::kFrankfurt));
    sellers.push_back(std::make_unique<TicketSeller>(endpoints.back().client.get(), config));
  }

  auto sold = std::make_shared<int>(0);
  std::vector<std::shared_ptr<std::function<void()>>> loops;
  for (int i = 0; i < kRetailers; ++i) {
    TicketSeller* seller = sellers[static_cast<size_t>(i)].get();
    auto next = std::make_shared<std::function<void()>>();
    *next = [seller, next, sold, i]() {
      seller->PurchaseTicket([next, sold, i](PurchaseOutcome outcome) {
        if (outcome.purchased) {
          (*sold)++;
          std::printf("retailer %d sold ticket #%3lld in %6.1f ms via %s\n", i,
                      static_cast<long long>(outcome.ticket_seq), ToMillis(outcome.latency),
                      outcome.via_preliminary ? "preliminary (fast path)"
                                              : "final (atomic)");
          (*next)();
        } else if (outcome.sold_out) {
          std::printf("retailer %d: sold out\n", i);
        }
      });
    };
    loops.push_back(next);
    (*next)();
  }
  world.loop().Run();

  int64_t revocations = 0;
  for (const auto& seller : sellers) {
    revocations += seller->revocations();
  }
  std::printf("\nsold %d/%lld tickets; %lld revoked by final views\n", *sold,
              static_cast<long long>(config.stock), static_cast<long long>(revocations));
  return 0;
}
