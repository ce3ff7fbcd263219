// End-to-end sharded routing: a BindingRouter over per-coordinator Cassandra bindings,
// driven through the unchanged InvocationPipeline. Per-key view monotonicity survives
// multi-shard traffic, coalescing stats are preserved (and shard-scoped), and all
// coordinators actually share the load.
#include <gtest/gtest.h>

#include <map>
#include <set>
#include <string>
#include <vector>

#include "src/harness/deployment.h"

namespace icg {
namespace {

// Keys k0..k49 hit every shard of a 3-coordinator ring in practice; find one per shard.
std::map<size_t, std::string> OneKeyPerShard(const BindingRouter& router, int max_probe = 200) {
  std::map<size_t, std::string> keys;
  for (int i = 0; i < max_probe && keys.size() < router.num_shards(); ++i) {
    const std::string key = "k" + std::to_string(i);
    keys.emplace(router.ShardIndexFor(key), key);
  }
  return keys;
}

TEST(ShardedRouting, PerKeyMonotonicityAcrossShards) {
  SimWorld world(7, 0.0);
  auto stack = MakeShardedCassandraStack(world, 3, KvConfig{}, CassandraBindingConfig{});
  ASSERT_EQ(stack.router()->num_shards(), 3u);

  constexpr int kKeys = 30;
  for (int i = 0; i < kKeys; ++i) {
    stack.cluster->Preload("k" + std::to_string(i), "v" + std::to_string(i));
  }

  // Every invocation must deliver the full weak-then-strong sequence, regardless of
  // which coordinator its key routes to.
  std::vector<std::vector<ConsistencyLevel>> levels(kKeys);
  std::vector<Correctable<OpResult>> handles;
  std::set<size_t> shards_used;
  for (int i = 0; i < kKeys; ++i) {
    const std::string key = "k" + std::to_string(i);
    shards_used.insert(stack.router()->ShardIndexFor(key));
    handles.push_back(stack.client()->Invoke(Operation::Get(key)));
    handles.back().SetCallbacks(
        [&levels, i](const View<OpResult>& v) { levels[i].push_back(v.level); },
        [&levels, i](const View<OpResult>& v) { levels[i].push_back(v.level); });
  }
  world.loop().Run();

  EXPECT_EQ(shards_used.size(), 3u) << "uniform keys should span all shards";
  for (int i = 0; i < kKeys; ++i) {
    ASSERT_EQ(handles[i].state(), CorrectableState::kFinal) << "key k" << i;
    EXPECT_EQ(handles[i].Final().value().value, "v" + std::to_string(i));
    ASSERT_EQ(levels[i].size(), 2u);
    EXPECT_EQ(levels[i][0], ConsistencyLevel::kWeak);
    EXPECT_EQ(levels[i][1], ConsistencyLevel::kStrong);
  }
  const ClientStats& stats = stack.client()->stats();
  EXPECT_EQ(stats.invocations, kKeys);
  EXPECT_EQ(stats.views_delivered, 2 * kKeys);
  EXPECT_EQ(stats.stale_views_dropped, 0);
  EXPECT_EQ(stats.errors, 0);
}

TEST(ShardedRouting, AllCoordinatorsShareTheLoad) {
  SimWorld world(7, 0.0);
  auto stack = MakeShardedCassandraStack(world, 3, KvConfig{}, CassandraBindingConfig{});
  for (int i = 0; i < 60; ++i) {
    const std::string key = "k" + std::to_string(i);
    stack.cluster->Preload(key, "v");
    stack.client()->Invoke(Operation::Get(key));
  }
  world.loop().Run();
  for (const auto& replica : stack.cluster->replicas()) {
    EXPECT_GT(replica->metrics().GetCounter("reads_coordinated").value(), 0)
        << "replica " << replica->id() << " coordinated nothing";
  }
}

TEST(ShardedRouting, SameTickSameKeyReadsStillCoalesce) {
  SimWorld world(7, 0.0);
  auto stack = MakeShardedCassandraStack(world, 3, KvConfig{}, CassandraBindingConfig{});
  stack.cluster->Preload("k1", "v1");

  auto a = stack.client()->Invoke(Operation::Get("k1"));
  auto b = stack.client()->Invoke(Operation::Get("k1"));
  world.loop().Run();

  EXPECT_EQ(a.Final().value().value, "v1");
  EXPECT_EQ(b.Final().value().value, "v1");
  EXPECT_EQ(a.views_delivered(), 2);
  EXPECT_EQ(b.views_delivered(), 2);
  const ClientStats& stats = stack.client()->stats();
  EXPECT_EQ(stats.coalesced_reads, 1);
  EXPECT_EQ(stats.batched_invocations, 1);
}

TEST(ShardedRouting, CrossShardKeysNeverShareABatch) {
  SimWorld world(7, 0.0);
  auto stack = MakeShardedCassandraStack(world, 3, KvConfig{}, CassandraBindingConfig{});
  const auto per_shard = OneKeyPerShard(*stack.router());
  ASSERT_EQ(per_shard.size(), 3u);

  for (const auto& [shard, key] : per_shard) {
    stack.cluster->Preload(key, "v@" + std::to_string(shard));
  }
  std::vector<Correctable<OpResult>> handles;
  for (const auto& [shard, key] : per_shard) {
    handles.push_back(stack.client()->Invoke(Operation::Get(key)));
  }
  world.loop().Run();

  for (auto& handle : handles) {
    ASSERT_EQ(handle.state(), CorrectableState::kFinal);
  }
  // Distinct keys on distinct shards: three separate round-trips, zero joins.
  EXPECT_EQ(stack.client()->stats().coalesced_reads, 0);
  EXPECT_EQ(stack.client()->stats().batched_invocations, 0);
}

TEST(ShardedRouting, WritesVisibleThroughAnyShardCount) {
  SimWorld world(7, 0.0);
  auto stack = MakeShardedCassandraStack(world, 3, KvConfig{}, CassandraBindingConfig{});
  for (int i = 0; i < 9; ++i) {
    stack.client()->InvokeStrong(Operation::Put("w" + std::to_string(i), "x" + std::to_string(i)));
  }
  world.loop().Run();
  std::vector<Correctable<OpResult>> reads;
  for (int i = 0; i < 9; ++i) {
    reads.push_back(stack.client()->InvokeStrong(Operation::Get("w" + std::to_string(i))));
  }
  world.loop().Run();
  for (int i = 0; i < 9; ++i) {
    ASSERT_EQ(reads[i].state(), CorrectableState::kFinal) << i;
    EXPECT_EQ(reads[i].Final().value().value, "x" + std::to_string(i));
  }
}

TEST(ShardedRouting, SingleCoordinatorDegeneratesToFlatStack) {
  SimWorld world(7, 0.0);
  auto stack = MakeShardedCassandraStack(world, 1, KvConfig{}, CassandraBindingConfig{});
  EXPECT_EQ(stack.router()->num_shards(), 1u);
  stack.cluster->Preload("k", "v");
  auto c = stack.client()->Invoke(Operation::Get("k"));
  world.loop().Run();
  ASSERT_EQ(c.state(), CorrectableState::kFinal);
  EXPECT_EQ(c.Final().value().value, "v");
  EXPECT_EQ(c.views_delivered(), 2);
}

// --- Live membership changes under load ------------------------------------------------

TEST(ShardedRouting, CoordinatorJoinsUnderLoadWithoutBreakingInvocations) {
  SimWorld world(8, 0.0);
  auto stack = MakeShardedCassandraStack(world, 2, KvConfig{}, CassandraBindingConfig{});
  ASSERT_EQ(stack.router()->num_shards(), 2u);
  constexpr int kKeys = 40;
  for (int i = 0; i < kKeys; ++i) {
    stack.cluster->Preload("k" + std::to_string(i), "v" + std::to_string(i));
  }

  // A steady stream of ICG reads across one second of virtual time...
  std::vector<Correctable<OpResult>> handles;
  handles.reserve(200);
  auto issue = [&](int i) {
    handles.push_back(stack.client()->Invoke(Operation::Get("k" + std::to_string(i % kKeys))));
  };
  for (int i = 0; i < 200; ++i) {
    world.loop().Schedule(Millis(5) * i, [&issue, i]() { issue(i); });
  }
  // ...with the third replica promoted into the ring mid-stream.
  const NodeId joiner = stack.cluster->replicas().back()->id();
  world.loop().Schedule(Millis(500), [&stack, joiner]() {
    const auto diff = stack.AddCoordinator(joiner);
    EXPECT_EQ(diff.added_nodes, std::vector<NodeId>{joiner});
    EXPECT_GT(diff.MovedFraction(), 0.05);  // the newcomer captured a real share
  });
  world.loop().Run();

  EXPECT_EQ(stack.router()->num_shards(), 3u);
  EXPECT_EQ(stack.ring_epoch(), 1u);
  for (auto& handle : handles) {
    ASSERT_EQ(handle.state(), CorrectableState::kFinal);
    EXPECT_EQ(handle.views_delivered(), 2);  // weak-then-strong survived the join
  }
  EXPECT_EQ(stack.client()->stats().errors, 0);
  EXPECT_EQ(stack.client()->stats().stale_views_dropped, 0);
  // The joiner actually coordinates traffic now.
  KvReplica* promoted = stack.cluster->replicas().back().get();
  EXPECT_GT(promoted->metrics().GetCounter("reads_coordinated").value(), 0)
      << "promoted coordinator served nothing after the join";
}

TEST(ShardedRouting, CoordinatorLeavesUnderLoadAndInFlightWorkDrains) {
  SimWorld world(9, 0.0);
  auto stack = MakeShardedCassandraStack(world, 3, KvConfig{}, CassandraBindingConfig{});
  constexpr int kKeys = 40;
  for (int i = 0; i < kKeys; ++i) {
    stack.cluster->Preload("k" + std::to_string(i), "v" + std::to_string(i));
  }

  std::vector<Correctable<OpResult>> handles;
  handles.reserve(200);
  for (int i = 0; i < 200; ++i) {
    world.loop().Schedule(Millis(5) * i, [&handles, &stack, i]() {
      handles.push_back(
          stack.client()->Invoke(Operation::Get("k" + std::to_string(i % kKeys))));
    });
  }
  // Demote a serving coordinator mid-stream: invocations already in flight against it
  // must drain to completion through the retired connection, while new traffic routes
  // through the survivors.
  const NodeId leaver = stack.coordinator_ids().front();
  world.loop().Schedule(Millis(500), [&stack, leaver]() {
    const auto diff = stack.RemoveCoordinator(leaver);
    EXPECT_EQ(diff.removed_nodes, std::vector<NodeId>{leaver});
  });
  world.loop().Run();

  EXPECT_EQ(stack.router()->num_shards(), 2u);
  for (auto& handle : handles) {
    ASSERT_EQ(handle.state(), CorrectableState::kFinal);
    EXPECT_EQ(handle.views_delivered(), 2);
  }
  EXPECT_EQ(stack.client()->stats().errors, 0);
}

TEST(ShardedRouting, SecondRoutedClientAgreesOnOwnership) {
  SimWorld world(7, 0.0);
  auto stack = MakeShardedCassandraStack(world, 3, KvConfig{}, CassandraBindingConfig{});
  auto& other = AddShardedCassandraClient(world, stack, CassandraBindingConfig{},
                                         Region::kVirginia);
  for (int i = 0; i < 20; ++i) {
    const std::string key = "k" + std::to_string(i);
    EXPECT_EQ(stack.router()->ShardIndexFor(key), other.router->ShardIndexFor(key)) << key;
  }
  // A write through one client is read back (strong) through the other.
  stack.client()->InvokeStrong(Operation::Put("shared", "payload"));
  world.loop().Run();
  auto c = other.client->InvokeStrong(Operation::Get("shared"));
  world.loop().Run();
  ASSERT_EQ(c.state(), CorrectableState::kFinal);
  EXPECT_EQ(c.Final().value().value, "payload");
}

}  // namespace
}  // namespace icg
