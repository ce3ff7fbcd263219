// End-to-end read coalescing over real storage stacks: same-key reads submitted within
// one event-loop tick share a single store round-trip, observable both through the new
// ClientStats counters and through client-link traffic accounting.
#include <gtest/gtest.h>

#include "src/harness/deployment.h"

namespace icg {
namespace {

TEST(CoalescingCassandra, SameTickIcgReadsShareOneRoundTrip) {
  SimWorld world(1, 0.0);
  auto stack = MakeCassandraStack(world, KvConfig{}, CassandraBindingConfig{});
  stack.cluster->Preload("k", "v");

  auto a = stack.client->Invoke(Operation::Get("k"));
  auto b = stack.client->Invoke(Operation::Get("k"));
  world.loop().Run();

  ASSERT_EQ(a.state(), CorrectableState::kFinal);
  ASSERT_EQ(b.state(), CorrectableState::kFinal);
  EXPECT_EQ(a.Final().value().value, "v");
  EXPECT_EQ(b.Final().value().value, "v");
  // Both invocations saw the full incremental sequence (weak + strong).
  EXPECT_EQ(a.views_delivered(), 2);
  EXPECT_EQ(b.views_delivered(), 2);

  const ClientStats& stats = stack.client->stats();
  EXPECT_EQ(stats.invocations, 2);
  EXPECT_EQ(stats.batched_invocations, 1);
  EXPECT_EQ(stats.coalesced_reads, 1);
  EXPECT_EQ(stats.views_delivered, 4);

  // Traffic proof: the pair cost exactly what a single ICG read costs.
  SimWorld solo_world(1, 0.0);
  auto solo = MakeCassandraStack(solo_world, KvConfig{}, CassandraBindingConfig{});
  solo.cluster->Preload("k", "v");
  solo.client->Invoke(Operation::Get("k"));
  solo_world.loop().Run();
  EXPECT_EQ(stack.kv_client->LinkMessages(), solo.kv_client->LinkMessages());
  EXPECT_EQ(stack.kv_client->LinkBytes(), solo.kv_client->LinkBytes());
}

TEST(CoalescingCassandra, ReadsInDifferentTicksPayFullPrice) {
  SimWorld world(1, 0.0);
  auto stack = MakeCassandraStack(world, KvConfig{}, CassandraBindingConfig{});
  stack.cluster->Preload("k", "v");

  stack.client->Invoke(Operation::Get("k"));
  world.loop().Run();  // first read completes; time has advanced
  stack.client->Invoke(Operation::Get("k"));
  world.loop().Run();

  const ClientStats& stats = stack.client->stats();
  EXPECT_EQ(stats.invocations, 2);
  EXPECT_EQ(stats.batched_invocations, 0);
  EXPECT_EQ(stats.coalesced_reads, 0);
}

TEST(CoalescingNews, ColdCacheFanoutSharedAcrossSameTickReaders) {
  SimWorld world(1, 0.0);
  auto stack = MakeNewsStack(world);
  stack.cluster->Preload("front-page", "headline");

  auto a = stack.client->Invoke(Operation::Get("front-page"));
  auto b = stack.client->Invoke(Operation::Get("front-page"));
  // The synchronous cache view (a miss) must reach both, including the joiner that
  // arrived after the leader's cache level resolved.
  ASSERT_TRUE(a.HasView());
  ASSERT_TRUE(b.HasView());
  EXPECT_EQ(a.LatestView().level, ConsistencyLevel::kCache);
  EXPECT_EQ(b.LatestView().level, ConsistencyLevel::kCache);
  world.loop().Run();

  // Three views each (cache miss, weak, strong) from one store fan-out.
  EXPECT_EQ(a.views_delivered(), 3);
  EXPECT_EQ(b.views_delivered(), 3);
  EXPECT_EQ(a.Final().value().value, "headline");
  EXPECT_EQ(b.Final().value().value, "headline");
  EXPECT_EQ(stack.client->stats().coalesced_reads, 1);
  EXPECT_EQ(stack.client->stats().batched_invocations, 1);
  // Write-through still applied exactly once per surfaced store view.
  ASSERT_TRUE(stack.cache->Get("front-page").has_value());
  EXPECT_EQ(stack.cache->Get("front-page")->value, "headline");
}

TEST(CoalescingCausal, CachedCausalStackCoalescesAndStaysCoherent) {
  SimWorld world(1, 0.0);
  auto stack = MakeCausalStack(world);
  stack.cluster->Preload("k", "v");

  auto a = stack.client->Invoke(Operation::Get("k"));
  auto b = stack.client->Invoke(Operation::Get("k"));
  world.loop().Run();

  EXPECT_EQ(a.Final().value().value, "v");
  EXPECT_EQ(b.Final().value().value, "v");
  EXPECT_EQ(stack.client->stats().coalesced_reads, 1);
  EXPECT_EQ(stack.cache->Get("k")->value, "v");  // refresh hook ran
}

// --- Timeout / shared-batch interaction -------------------------------------------------
// A waiter timing out inside a shared batch must fail alone: its timer closes only its
// own Correctable, while the batch keeps delivering the remaining views to every other
// same-tick joiner. (Timings below: IRL client <-> FRK coordinator is a 20 ms RTT, so
// the preliminary lands at ~21 ms and the quorum final at ~40 ms of virtual time.)

TEST(CoalescingTimeouts, LeaderTimeoutDoesNotPoisonTheBatch) {
  SimWorld world(1, 0.0);
  auto stack = MakeCassandraStack(world, KvConfig{}, CassandraBindingConfig{});
  stack.cluster->Preload("k", "v");

  stack.client->SetTimeout(Millis(15));  // fires before even the preliminary arrives
  auto leader = stack.client->Invoke(Operation::Get("k"));
  stack.client->SetTimeout(0);
  auto joiner = stack.client->Invoke(Operation::Get("k"));  // same tick: joins the batch
  world.loop().Run();

  ASSERT_EQ(leader.state(), CorrectableState::kError);
  EXPECT_EQ(leader.error().code(), StatusCode::kTimeout);
  ASSERT_EQ(joiner.state(), CorrectableState::kFinal);
  EXPECT_EQ(joiner.Final().value().value, "v");
  EXPECT_EQ(joiner.views_delivered(), 2);

  const ClientStats& stats = stack.client->stats();
  EXPECT_EQ(stats.timeouts, 1);
  EXPECT_EQ(stats.coalesced_reads, 1);
  EXPECT_EQ(stats.views_delivered, 2);  // only the surviving joiner's views count
}

TEST(CoalescingTimeouts, JoinerTimeoutFailsAlone) {
  SimWorld world(1, 0.0);
  auto stack = MakeCassandraStack(world, KvConfig{}, CassandraBindingConfig{});
  stack.cluster->Preload("k", "v");

  stack.client->SetTimeout(0);
  auto leader = stack.client->Invoke(Operation::Get("k"));
  stack.client->SetTimeout(Millis(15));
  auto joiner = stack.client->Invoke(Operation::Get("k"));
  world.loop().Run();

  ASSERT_EQ(leader.state(), CorrectableState::kFinal);
  EXPECT_EQ(leader.Final().value().value, "v");
  EXPECT_EQ(leader.views_delivered(), 2);
  ASSERT_EQ(joiner.state(), CorrectableState::kError);
  EXPECT_EQ(joiner.error().code(), StatusCode::kTimeout);
  EXPECT_EQ(stack.client->stats().timeouts, 1);
}

TEST(CoalescingTimeouts, TimeoutBetweenPreliminaryAndFinalKeepsOthersComplete) {
  SimWorld world(1, 0.0);
  auto stack = MakeCassandraStack(world, KvConfig{}, CassandraBindingConfig{});
  stack.cluster->Preload("k", "v");

  stack.client->SetTimeout(Millis(30));  // after the ~21 ms preliminary, before ~40 ms final
  auto doomed = stack.client->Invoke(Operation::Get("k"));
  stack.client->SetTimeout(0);
  auto survivor = stack.client->Invoke(Operation::Get("k"));
  world.loop().Run();

  ASSERT_EQ(doomed.state(), CorrectableState::kError);
  EXPECT_EQ(doomed.error().code(), StatusCode::kTimeout);
  EXPECT_EQ(doomed.views_delivered(), 1);  // it did see the preliminary before timing out
  ASSERT_EQ(survivor.state(), CorrectableState::kFinal);
  EXPECT_EQ(survivor.views_delivered(), 2);
  EXPECT_EQ(survivor.Final().value().value, "v");
}

}  // namespace
}  // namespace icg
