#include "src/stores/causal_store.h"

#include <gtest/gtest.h>

#include "src/sim/network.h"

namespace icg {
namespace {

class CausalStoreTest : public ::testing::Test {
 protected:
  CausalStoreTest()
      : topology_(RttMatrix::Ec2Default()),
        network_(&loop_, &topology_, 1, 0.0),
        cluster_(&network_, &topology_,
                 {Region::kIreland, Region::kFrankfurt, Region::kVirginia}) {}

  EventLoop loop_;
  Topology topology_;
  Network network_;
  CausalCluster cluster_;
};

TEST_F(CausalStoreTest, ReadOwnWriteAtOriginReplica) {
  auto client = cluster_.MakeClient(Region::kIreland, Region::kIreland);
  bool acked = false;
  client->Write("k", "v", [&](StatusOr<OpResult>) { acked = true; });
  loop_.Run();
  ASSERT_TRUE(acked);
  StatusOr<OpResult> read(Status::Internal("none"));
  client->Read("k", [&](StatusOr<OpResult> r) { read = std::move(r); });
  loop_.Run();
  EXPECT_EQ(read->value, "v");
}

TEST_F(CausalStoreTest, WritesPropagateToAllReplicas) {
  auto client = cluster_.MakeClient(Region::kIreland, Region::kIreland);
  client->Write("k", "v", [](StatusOr<OpResult>) {});
  loop_.Run();
  for (const Region r : {Region::kFrankfurt, Region::kVirginia}) {
    EXPECT_EQ(cluster_.ReplicaIn(r)->LocalGet("k").value(), "v");
  }
}

TEST_F(CausalStoreTest, PerOriginFifoOrder) {
  auto client = cluster_.MakeClient(Region::kIreland, Region::kIreland);
  client->Write("k", "v1", [](StatusOr<OpResult>) {});
  client->Write("k", "v2", [](StatusOr<OpResult>) {});
  client->Write("k", "v3", [](StatusOr<OpResult>) {});
  loop_.Run();
  // All replicas converge to the last write of the FIFO stream.
  for (const Region r : {Region::kIreland, Region::kFrankfurt, Region::kVirginia}) {
    EXPECT_EQ(cluster_.ReplicaIn(r)->LocalGet("k").value(), "v3");
  }
}

TEST_F(CausalStoreTest, CausalDependencyRespected) {
  // Writer A (IRL) writes x; writer B (FRK) reads x, then writes y depending on it.
  // No replica may apply y before x.
  auto writer_a = cluster_.MakeClient(Region::kIreland, Region::kIreland);
  auto writer_b = cluster_.MakeClient(Region::kFrankfurt, Region::kFrankfurt);

  writer_a->Write("x", "1", [](StatusOr<OpResult>) {});
  loop_.Run();  // x reaches FRK

  StatusOr<OpResult> seen(Status::Internal("none"));
  writer_b->Read("x", [&](StatusOr<OpResult> r) { seen = std::move(r); });
  loop_.Run();
  ASSERT_EQ(seen->value, "1");

  writer_b->Write("y", "after-x", [](StatusOr<OpResult>) {});
  loop_.Run();
  // Every replica that has y must also have x (causal cut).
  for (const Region r : {Region::kIreland, Region::kFrankfurt, Region::kVirginia}) {
    CausalReplica* replica = cluster_.ReplicaIn(r);
    if (replica->LocalGet("y").has_value()) {
      EXPECT_TRUE(replica->LocalGet("x").has_value()) << RegionName(r);
    }
  }
  EXPECT_EQ(cluster_.ReplicaIn(Region::kVirginia)->LocalGet("y").value(), "after-x");
}

TEST_F(CausalStoreTest, AppliedClockAdvances) {
  auto client = cluster_.MakeClient(Region::kIreland, Region::kIreland);
  client->Write("a", "1", [](StatusOr<OpResult>) {});
  client->Write("b", "2", [](StatusOr<OpResult>) {});
  loop_.Run();
  // Origin 0 (IRL) has issued two writes; every replica applied both.
  for (const Region r : {Region::kIreland, Region::kFrankfurt, Region::kVirginia}) {
    EXPECT_EQ(cluster_.ReplicaIn(r)->applied_clock()[0], 2) << RegionName(r);
  }
}

TEST_F(CausalStoreTest, ConcurrentWritesConvergeLww) {
  auto a = cluster_.MakeClient(Region::kIreland, Region::kIreland);
  auto b = cluster_.MakeClient(Region::kVirginia, Region::kVirginia);
  a->Write("k", "from-a", [](StatusOr<OpResult>) {});
  b->Write("k", "from-b", [](StatusOr<OpResult>) {});
  loop_.Run();
  const auto v0 = cluster_.ReplicaIn(Region::kIreland)->LocalGet("k");
  for (const Region r : {Region::kFrankfurt, Region::kVirginia}) {
    EXPECT_EQ(cluster_.ReplicaIn(r)->LocalGet("k"), v0);  // all replicas agree
  }
}

TEST(ClientCache, HitAndMissCounting) {
  ClientCache cache;
  EXPECT_FALSE(cache.Get("k").has_value());
  EXPECT_EQ(cache.misses(), 1);
  OpResult r;
  r.found = true;
  r.value = "v";
  cache.Put("k", r);
  ASSERT_TRUE(cache.Get("k").has_value());
  EXPECT_EQ(cache.Get("k")->value, "v");
  EXPECT_EQ(cache.hits(), 2);
}

TEST(ClientCache, PutOverwrites) {
  ClientCache cache;
  OpResult r1;
  r1.found = true;
  r1.value = "v1";
  OpResult r2 = r1;
  r2.value = "v2";
  cache.Put("k", r1);
  cache.Put("k", r2);
  EXPECT_EQ(cache.Get("k")->value, "v2");
  EXPECT_EQ(cache.size(), 1u);
}

TEST(ClientCache, EvictsAtCapacity) {
  ClientCache cache(/*capacity=*/3);
  OpResult r;
  r.found = true;
  for (int i = 0; i < 5; ++i) {
    cache.Put("k" + std::to_string(i), r);
  }
  EXPECT_EQ(cache.size(), 3u);
  EXPECT_FALSE(cache.Get("k0").has_value());  // oldest evicted
  EXPECT_TRUE(cache.Get("k4").has_value());
}

TEST(ClientCache, ClearEmpties) {
  ClientCache cache;
  OpResult r;
  r.found = true;
  cache.Put("k", r);
  cache.Clear();
  EXPECT_EQ(cache.size(), 0u);
}

}  // namespace
}  // namespace icg
