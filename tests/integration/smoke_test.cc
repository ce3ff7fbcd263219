// End-to-end smoke tests: the full Correctables stack over the simulated WAN for both
// storage substrates, checking latency structure against the paper's calibration points.
#include <gtest/gtest.h>

#include "src/harness/deployment.h"

namespace icg {
namespace {

KvConfig TestKvConfig() {
  KvConfig c;
  return c;
}

TEST(SmokeCassandra, IcgReadDeliversPreliminaryThenFinal) {
  SimWorld world(/*seed=*/1, /*jitter_sigma=*/0.0);
  auto stack = MakeCassandraStack(world, TestKvConfig(), CassandraBindingConfig{});
  stack.cluster->Preload("k", "v0");

  std::vector<ConsistencyLevel> levels;
  SimTime prelim_at = 0;
  SimTime final_at = 0;
  auto c = stack.client->Invoke(Operation::Get("k"));
  c.SetCallbacks(
      [&](const View<OpResult>& v) {
        levels.push_back(v.level);
        prelim_at = v.delivered_at;
      },
      [&](const View<OpResult>& v) {
        levels.push_back(v.level);
        final_at = v.delivered_at;
      });
  world.loop().Run();

  ASSERT_EQ(c.state(), CorrectableState::kFinal);
  ASSERT_EQ(levels.size(), 2u);
  EXPECT_EQ(levels[0], ConsistencyLevel::kWeak);
  EXPECT_EQ(levels[1], ConsistencyLevel::kStrong);
  EXPECT_EQ(c.Final().value().value, "v0");

  // Calibration: preliminary ~ client-coordinator RTT (20 ms); final adds the
  // coordinator-nearest-replica RTT (another ~20 ms). Allow service-time slack.
  EXPECT_NEAR(ToMillis(prelim_at), 20.0, 3.0);
  EXPECT_NEAR(ToMillis(final_at), 40.0, 5.0);
}

TEST(SmokeCassandra, WeakAndStrongSingleViews) {
  SimWorld world(1, 0.0);
  auto stack = MakeCassandraStack(world, TestKvConfig(), CassandraBindingConfig{});
  stack.cluster->Preload("k", "v0");

  auto weak = stack.client->InvokeWeak(Operation::Get("k"));
  auto strong = stack.client->InvokeStrong(Operation::Get("k"));
  world.loop().Run();

  ASSERT_TRUE(weak.Final().ok());
  ASSERT_TRUE(strong.Final().ok());
  EXPECT_EQ(weak.views_delivered(), 1);
  EXPECT_EQ(strong.views_delivered(), 1);
  EXPECT_EQ(weak.LatestView().level, ConsistencyLevel::kWeak);
  EXPECT_EQ(strong.LatestView().level, ConsistencyLevel::kStrong);
}

TEST(SmokeCassandra, WriteThenStrongReadSeesValue) {
  SimWorld world(1, 0.0);
  auto stack = MakeCassandraStack(world, TestKvConfig(), CassandraBindingConfig{});
  stack.cluster->Preload("k", "old");

  bool write_done = false;
  stack.client->InvokeStrong(Operation::Put("k", "new"))
      .OnFinal([&](const View<OpResult>&) { write_done = true; });
  world.loop().Run();
  ASSERT_TRUE(write_done);

  auto read = stack.client->InvokeStrong(Operation::Get("k"));
  world.loop().Run();
  ASSERT_TRUE(read.Final().ok());
  EXPECT_EQ(read.Final().value().value, "new");
}

TEST(SmokeZooKeeper, IcgEnqueueDeliversPreliminaryThenFinal) {
  SimWorld world(1, 0.0);
  // Client IRL, session follower FRK, leader IRL: Figure 9's first configuration.
  auto stack = MakeZooKeeperStack(world);

  std::vector<ConsistencyLevel> levels;
  SimTime prelim_at = 0;
  SimTime final_at = 0;
  auto c = stack.client->Invoke(Operation::Enqueue("q", "ticket-0"));
  c.SetCallbacks(
      [&](const View<OpResult>& v) {
        levels.push_back(v.level);
        prelim_at = v.delivered_at;
      },
      [&](const View<OpResult>& v) {
        levels.push_back(v.level);
        final_at = v.delivered_at;
      });
  world.loop().Run();

  ASSERT_EQ(c.state(), CorrectableState::kFinal);
  ASSERT_EQ(levels.size(), 2u);
  EXPECT_EQ(c.Final().value().seqno, 0);

  // Preliminary ~ client-session RTT (20 ms). Final ~ 20 (session) + 20 (to leader in
  // IRL... via FRK->IRL one-way x2) + quorum ack (FRK or VRG) + commit back: ~60 ms.
  EXPECT_NEAR(ToMillis(prelim_at), 20.0, 3.0);
  EXPECT_NEAR(ToMillis(final_at), 60.0, 8.0);

  // The queue is consistent on every server once the commit propagates.
  world.loop().RunFor(Seconds(1));
  for (const auto& server : stack.cluster->servers()) {
    EXPECT_EQ(server->LocalQueue("q").Size(), 1u);
  }
}

TEST(SmokeZooKeeper, AtomicDequeueNeverDuplicates) {
  SimWorld world(1, 0.0);
  auto stack = MakeZooKeeperStack(world);
  stack.cluster->PreloadQueue("q", 10, "t");

  std::vector<int64_t> got;
  for (int i = 0; i < 12; ++i) {
    stack.client->InvokeStrong(Operation::Dequeue("q"))
        .OnFinal([&](const View<OpResult>& v) {
          if (v.value.found) {
            got.push_back(v.value.seqno);
          }
        });
  }
  world.loop().Run();
  ASSERT_EQ(got.size(), 10u);  // two dequeues hit the empty queue
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i], static_cast<int64_t>(i));  // FIFO, no duplicates
  }
}

TEST(SmokeNews, ThreeViewsArriveInLevelOrder) {
  SimWorld world(1, 0.0);
  auto stack = MakeNewsStack(world);
  stack.cluster->Preload("news:top", "headline-1\nheadline-2");
  // Warm the cache so the CACHE level has content.
  stack.client->InvokeStrong(Operation::Get("news:top"));
  world.loop().Run();

  std::vector<ConsistencyLevel> levels;
  auto c = stack.client->Invoke(Operation::Get("news:top"));
  c.OnUpdate([&](const View<OpResult>& v) { levels.push_back(v.level); });
  c.OnFinal([&](const View<OpResult>& v) { levels.push_back(v.level); });
  world.loop().Run();

  ASSERT_EQ(levels.size(), 3u);
  EXPECT_EQ(levels[0], ConsistencyLevel::kCache);
  EXPECT_EQ(levels[1], ConsistencyLevel::kWeak);
  EXPECT_EQ(levels[2], ConsistencyLevel::kStrong);
  EXPECT_EQ(c.views_delivered(), 3);
}

}  // namespace
}  // namespace icg
