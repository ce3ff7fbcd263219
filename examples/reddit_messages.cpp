// The Reddit motivating example (§4.1): Listing 1's ad-hoc cache handling versus
// Listing 2's two-line rewrite on Correctables. The binding owns coherence and
// bypassing; the application just names the consistency level it needs.
#include <cstdio>

#include "src/apps/reddit.h"
#include "src/harness/deployment.h"

using namespace icg;

namespace {

void PrintResult(const char* label, SimDuration latency, const View<OpResult>& v) {
  std::printf("[%6.1f ms] %-30s -> \"%s\" (%s)\n", ToMillis(latency), label,
              v.value.found ? v.value.value.c_str() : "(miss)", ConsistencyLevelName(v.level));
}

}  // namespace

int main() {
  SimWorld world(11);
  auto stack = MakeNewsStack(world);  // cache + backup + primary binding
  CorrectableClient& client = *stack.client;

  stack.cluster->Preload(MessagesKey(7), "msg1;msg2");

  // First access: strong read warms the write-through cache.
  SimTime before = world.loop().Now();
  UserMessages(client, 7, /*strong=*/true).OnFinal([&](const View<OpResult>& v) {
    PrintResult("user_messages(7, strong=True)", v.delivered_at - before, v);
  });
  world.loop().Run();

  // A new message lands on the primary only (backup/cache not yet coherent).
  stack.cluster->primary()->LocalPut(MessagesKey(7), "msg1;msg2;msg3",
                                     Version{1000000, stack.cluster->primary()->id()});

  // The common case: fast — served straight from the (now stale) cache.
  before = world.loop().Now();
  UserMessages(client, 7).OnFinal([&](const View<OpResult>& v) {
    PrintResult("user_messages(7)", v.delivered_at - before, v);
  });
  world.loop().Run();

  // The sensitive case: strong=True bypasses the cache and reads the primary — fresh.
  before = world.loop().Now();
  UserMessages(client, 7, /*strong=*/true).OnFinal([&](const View<OpResult>& v) {
    PrintResult("user_messages(7, strong=True)", v.delivered_at - before, v);
  });
  world.loop().Run();
  return 0;
}
