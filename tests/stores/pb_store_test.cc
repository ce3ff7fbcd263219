#include "src/stores/pb_store.h"

#include <gtest/gtest.h>

#include "src/sim/network.h"

namespace icg {
namespace {

class PbStoreTest : public ::testing::Test {
 protected:
  PbStoreTest()
      : topology_(RttMatrix::Ec2Default()),
        network_(&loop_, &topology_, 1, 0.0),
        cluster_(&network_, &topology_,
                 {Region::kVirginia, Region::kIreland, Region::kFrankfurt}) {
    client_ = cluster_.MakeClient(Region::kIreland, Region::kIreland);
  }

  StatusOr<OpResult> ReadWeak(const std::string& key) {
    StatusOr<OpResult> out(Status::Internal("none"));
    client_->ReadWeak(key, [&](StatusOr<OpResult> r) { out = std::move(r); });
    loop_.Run();
    return out;
  }
  StatusOr<OpResult> ReadStrong(const std::string& key) {
    StatusOr<OpResult> out(Status::Internal("none"));
    client_->ReadStrong(key, [&](StatusOr<OpResult> r) { out = std::move(r); });
    loop_.Run();
    return out;
  }
  StatusOr<OpResult> Write(const std::string& key, const std::string& value) {
    StatusOr<OpResult> out(Status::Internal("none"));
    client_->Write(key, value, [&](StatusOr<OpResult> r) { out = std::move(r); });
    loop_.Run();
    return out;
  }

  EventLoop loop_;
  Topology topology_;
  Network network_;
  PbCluster cluster_;
  std::unique_ptr<PbClient> client_;
};

TEST_F(PbStoreTest, PrimaryIsFirstRegion) {
  EXPECT_EQ(topology_.RegionOf(cluster_.primary()->id()), Region::kVirginia);
}

TEST_F(PbStoreTest, MissingKeyNotFound) {
  const auto r = ReadWeak("none");
  ASSERT_TRUE(r.ok());
  EXPECT_FALSE(r->found);
}

TEST_F(PbStoreTest, WriteThenStrongReadIsFresh) {
  Write("k", "v1");
  const auto r = ReadStrong("k");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->value, "v1");
}

TEST_F(PbStoreTest, WeakReadEventuallyFresh) {
  Write("k", "v1");
  loop_.RunFor(Seconds(1));  // propagation settles
  EXPECT_EQ(ReadWeak("k")->value, "v1");
}

TEST_F(PbStoreTest, WeakReadCanBeStaleDuringPropagation) {
  cluster_.Preload("k", "old");
  // The write reaches the primary (VRG) after ~41.5 ms one-way; propagation back to the
  // IRL backup needs another ~41.5 ms. A weak read issued in between sees the old value.
  client_->Write("k", "new", [](StatusOr<OpResult>) {});
  StatusOr<OpResult> weak(Status::Internal("none"));
  loop_.RunFor(Millis(50));  // write applied at primary; propagation still in flight
  client_->ReadWeak("k", [&](StatusOr<OpResult> r) { weak = std::move(r); });
  loop_.RunFor(Millis(5));
  ASSERT_TRUE(weak.ok());
  EXPECT_EQ(weak->value, "old");  // stale: the backup has not heard yet
  loop_.Run();
  EXPECT_EQ(ReadWeak("k")->value, "new");  // eventually fresh
}

TEST_F(PbStoreTest, WeakIsFasterThanStrong) {
  cluster_.Preload("k", "v");
  SimTime weak_done = 0;
  SimTime strong_done = 0;
  const SimTime start = loop_.Now();
  client_->ReadWeak("k", [&](StatusOr<OpResult>) { weak_done = loop_.Now() - start; });
  client_->ReadStrong("k", [&](StatusOr<OpResult>) { strong_done = loop_.Now() - start; });
  loop_.Run();
  EXPECT_LT(weak_done, strong_done);
  EXPECT_LT(weak_done, Millis(5));     // local backup, 2 ms RTT
  EXPECT_GT(strong_done, Millis(80));  // primary in VRG, 83 ms RTT
}

TEST_F(PbStoreTest, LastWriterWinsOnBackups) {
  Write("k", "v1");
  Write("k", "v2");
  loop_.RunFor(Seconds(1));
  for (const Region r : {Region::kIreland, Region::kFrankfurt}) {
    EXPECT_EQ(cluster_.NodeIn(r)->LocalGet("k").value(), "v2");
  }
}

TEST_F(PbStoreTest, PreloadReachesAllNodes) {
  cluster_.Preload("k", "v");
  EXPECT_EQ(cluster_.NodeIn(Region::kVirginia)->LocalGet("k").value(), "v");
  EXPECT_EQ(cluster_.NodeIn(Region::kIreland)->LocalGet("k").value(), "v");
  EXPECT_EQ(cluster_.NodeIn(Region::kFrankfurt)->LocalGet("k").value(), "v");
}

}  // namespace
}  // namespace icg
