// The smartphone news reader of §4.4 (Listing 6): progressive display. One logical
// invoke() resolves three times — local cache (instant), nearby backup (fresher), and the
// distant primary (freshest) — and the "display" refreshes on every view.
#include <cstdio>

#include "src/apps/news_reader.h"
#include "src/harness/deployment.h"

using namespace icg;

int main() {
  SimWorld world(3);
  // Primary in Virginia, backups in Ireland and Frankfurt; the phone is in Ireland and
  // reads weakly from the Irish backup.
  auto stack = MakeNewsStack(world);
  NewsReader reader(stack.client.get());

  // Yesterday's stories are on every replica and in the phone's cache.
  stack.cluster->Preload("news:top", "old story A\nold story B");
  stack.client->InvokeStrong(Operation::Get("news:top"));
  world.loop().Run();

  // Breaking news lands on the primary; the Irish backup hasn't heard yet.
  stack.cluster->primary()->LocalPut("news:top",
                                     "BREAKING: new story\nold story A\nold story B",
                                     Version{1000000, stack.cluster->primary()->id()});

  std::printf("user opens the app; display refreshes as views arrive:\n\n");
  reader.GetLatestNews(
      "top",
      [](const NewsRefresh& refresh) {
        std::printf("[%5.1f ms] %s view (%zu items):\n", ToMillis(refresh.at),
                    ConsistencyLevelName(refresh.level), refresh.items.size());
        for (const auto& item : refresh.items) {
          std::printf("            | %s\n", item.c_str());
        }
      },
      [](std::vector<NewsRefresh> history) {
        std::printf("\ndone: display refreshed %zu times for one logical read\n",
                    history.size());
      });
  world.loop().Run();
  return 0;
}
