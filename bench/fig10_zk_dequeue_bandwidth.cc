// Figure 10: efficiency (bandwidth) of dequeue operations in Correctable ZooKeeper (CZK)
// vs ZooKeeper (ZK) for different queue sizes as contention increases.
//
// The baseline ZK recipe first reads the *whole* queue listing (getChildren) and then
// tries to delete the head, retrying on conflict — so its per-dequeue cost grows with
// both queue length and the number of contending clients. CZK clients "only read the
// constant-sized tail relevant for dequeuing", making the cost independent of queue size
// (it still grows with contention, via retries).
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "src/harness/deployment.h"

namespace icg {
namespace {

struct Result {
  double kb_per_op = 0;
  int64_t retries = 0;
};

// `num_clients` colocated contending clients (FRK followers, leader IRL) each dequeue in
// a closed loop until `total_dequeues` tickets are taken. The queue is preloaded to
// `queue_size` + total_dequeues so its length stays >= queue_size throughout, keeping the
// getChildren listing size representative of the nominal queue size.
Result RunContention(int64_t queue_size, int num_clients, bool czk, uint64_t seed) {
  SimWorld world(seed);
  auto stack = MakeZooKeeperStack(world, Region::kIreland, Region::kFrankfurt,
                                  Region::kIreland);
  const int64_t total_dequeues = 4LL * num_clients + 40;
  stack.cluster->PreloadQueue("q", queue_size + total_dequeues, "ticket");

  std::vector<std::unique_ptr<ZabClient>> clients;
  for (int i = 0; i < num_clients; ++i) {
    clients.push_back(stack.cluster->MakeClient(Region::kIreland, Region::kFrankfurt));
  }

  auto remaining = std::make_shared<int64_t>(total_dequeues);
  auto completed = std::make_shared<int64_t>(0);
  for (auto& client : clients) {
    ZabClient* c = client.get();
    auto next = std::make_shared<std::function<void()>>();
    *next = [c, czk, remaining, completed, next]() {
      if (*remaining <= 0) {
        return;
      }
      (*remaining)--;
      auto done = [completed, next](StatusOr<OpResult> result) {
        if (result.ok() && result->found) {
          (*completed)++;
        }
        (*next)();
      };
      if (czk) {
        c->RecipeDequeueCzk("q", done);
      } else {
        c->RecipeDequeueZk("q", done);
      }
    };
    (*next)();
  }
  world.loop().Run();

  int64_t bytes = 0;
  int64_t retries = 0;
  for (auto& client : clients) {
    bytes += client->LinkBytes();
    retries += client->recipe_retries();
  }
  Result result;
  result.kb_per_op = *completed == 0
                         ? 0.0
                         : static_cast<double>(bytes) / static_cast<double>(*completed) / 1000.0;
  result.retries = retries;
  return result;
}

}  // namespace
}  // namespace icg

int main() {
  using namespace icg;
  bench::PrintHeader(
      "Figure 10: dequeue bandwidth, CZK vs ZK, for 500- and 1000-element queues",
      "Contending clients colocated with the FRK follower; leader in IRL.\n"
      "Paper's shape: ZK cost grows with queue size and contention (getChildren returns\n"
      "the whole queue); CZK cost is independent of queue size (constant-size reads),\n"
      "growing only mildly with contention. Paper reports -44/-71% (500) and -60/-81%\n"
      "(1000) savings.");

  for (const int64_t queue_size : {500, 1000}) {
    bench::Table table({"clients", "ZK (kB/op)", "CZK (kB/op)", "saving", "ZK retries",
                        "CZK retries"});
    uint64_t seed = 1000;
    for (const int clients : {1, 2, 4, 6, 8, 10, 12}) {
      const Result zk = RunContention(queue_size, clients, /*czk=*/false, seed++);
      const Result czk = RunContention(queue_size, clients, /*czk=*/true, seed++);
      table.AddRow({std::to_string(clients), bench::Fmt(zk.kb_per_op, 2),
                    bench::Fmt(czk.kb_per_op, 2),
                    bench::Fmt(100.0 * (1.0 - czk.kb_per_op / zk.kb_per_op), 0) + "%",
                    std::to_string(zk.retries), std::to_string(czk.retries)});
    }
    std::printf("--- queue size %lld ---\n", static_cast<long long>(queue_size));
    table.Print();
  }
  return 0;
}
