// ZooKeeper binding: queue ops over weak/strong levels, the weak-only background-commit
// semantics used by the ticket fast path, and operation validation.
#include "src/bindings/zookeeper_binding.h"

#include <gtest/gtest.h>

#include "src/harness/deployment.h"

namespace icg {
namespace {

class ZkBindingTest : public ::testing::Test {
 protected:
  ZkBindingTest() : world_(1, 0.0) { stack_ = MakeZooKeeperStack(world_); }

  SimWorld world_;
  std::optional<ZooKeeperStack> stack_;
};

TEST_F(ZkBindingTest, AdvertisesWeakAndStrong) {
  EXPECT_EQ(stack_->binding->SupportedLevels(),
            (std::vector<ConsistencyLevel>{ConsistencyLevel::kWeak, ConsistencyLevel::kStrong}));
}

TEST_F(ZkBindingTest, IcgEnqueueDeliversBothLevels) {
  std::vector<ConsistencyLevel> seen;
  stack_->binding->SubmitOperation(
      Operation::Enqueue("q", "e"), {ConsistencyLevel::kWeak, ConsistencyLevel::kStrong},
      [&](StatusOr<OpResult> r, ConsistencyLevel level, ResponseKind) {
        ASSERT_TRUE(r.ok());
        seen.push_back(level);
      });
  world_.loop().Run();
  EXPECT_EQ(seen, (std::vector<ConsistencyLevel>{ConsistencyLevel::kWeak,
                                                 ConsistencyLevel::kStrong}));
}

TEST_F(ZkBindingTest, StrongOnlyEnqueueSingleView) {
  int callbacks = 0;
  stack_->binding->SubmitOperation(Operation::Enqueue("q", "e"), {ConsistencyLevel::kStrong},
                                   [&](StatusOr<OpResult>, ConsistencyLevel level,
                                       ResponseKind) {
                                     callbacks++;
                                     EXPECT_EQ(level, ConsistencyLevel::kStrong);
                                   });
  world_.loop().Run();
  EXPECT_EQ(callbacks, 1);
}

TEST_F(ZkBindingTest, WeakOnlyEnqueueReturnsFastAndCommitsInBackground) {
  stack_->cluster->PreloadQueue("q", 0, "t");
  SimTime responded_at = 0;
  stack_->binding->SubmitOperation(Operation::Enqueue("q", "e"), {ConsistencyLevel::kWeak},
                                   [&](StatusOr<OpResult> r, ConsistencyLevel level,
                                       ResponseKind) {
                                     ASSERT_TRUE(r.ok());
                                     EXPECT_EQ(level, ConsistencyLevel::kWeak);
                                     responded_at = world_.loop().Now();
                                   });
  world_.loop().Run();
  // The weak response arrives at ~client-session RTT, far before the commit.
  EXPECT_LT(responded_at, Millis(30));
  // "The dequeue completes in the background": the element is eventually durable.
  for (const auto& server : stack_->cluster->servers()) {
    EXPECT_EQ(server->LocalQueue("q").Size(), 1u);
  }
}

TEST_F(ZkBindingTest, WeakOnlyDequeueDrainsInBackground) {
  stack_->cluster->PreloadQueue("q", 3, "t");
  StatusOr<OpResult> weak(Status::Internal("none"));
  stack_->binding->SubmitOperation(Operation::Dequeue("q"), {ConsistencyLevel::kWeak},
                                   [&](StatusOr<OpResult> r, ConsistencyLevel,
                                       ResponseKind) { weak = std::move(r); });
  world_.loop().Run();
  ASSERT_TRUE(weak.ok());
  EXPECT_TRUE(weak->found);
  EXPECT_EQ(weak->seqno, 0);
  for (const auto& server : stack_->cluster->servers()) {
    EXPECT_EQ(server->LocalQueue("q").Size(), 2u);  // the dequeue committed
  }
}

TEST_F(ZkBindingTest, PeekIsWeakOnly) {
  stack_->cluster->PreloadQueue("q", 2, "t");
  StatusOr<OpResult> head(Status::Internal("none"));
  stack_->binding->SubmitOperation(Operation::Peek("q"), {ConsistencyLevel::kWeak},
                                   [&](StatusOr<OpResult> r, ConsistencyLevel,
                                       ResponseKind) { head = std::move(r); });
  world_.loop().Run();
  ASSERT_TRUE(head.ok());
  EXPECT_EQ(head->value, "t0");

  Status strong_status;
  stack_->binding->SubmitOperation(Operation::Peek("q"), {ConsistencyLevel::kStrong},
                                   [&](StatusOr<OpResult> r, ConsistencyLevel,
                                       ResponseKind) { strong_status = r.status(); });
  EXPECT_EQ(strong_status.code(), StatusCode::kInvalidArgument);
}

TEST_F(ZkBindingTest, KeyValueOpsRejected) {
  Status status;
  stack_->binding->SubmitOperation(Operation::Get("k"), {ConsistencyLevel::kStrong},
                                   [&](StatusOr<OpResult> r, ConsistencyLevel,
                                       ResponseKind) { status = r.status(); });
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  stack_->binding->SubmitOperation(Operation::Put("k", "v"), {ConsistencyLevel::kStrong},
                                   [&](StatusOr<OpResult> r, ConsistencyLevel,
                                       ResponseKind) { status = r.status(); });
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
}

TEST_F(ZkBindingTest, ThroughCorrectableClientEndToEnd) {
  stack_->cluster->PreloadQueue("q", 2, "t");
  auto c = stack_->client->Invoke(Operation::Dequeue("q"));
  std::vector<ConsistencyLevel> levels;
  c.OnUpdate([&](const View<OpResult>& v) { levels.push_back(v.level); });
  c.OnFinal([&](const View<OpResult>& v) { levels.push_back(v.level); });
  world_.loop().Run();
  EXPECT_EQ(levels, (std::vector<ConsistencyLevel>{ConsistencyLevel::kWeak,
                                                   ConsistencyLevel::kStrong}));
  EXPECT_EQ(c.Final().value().value, "t0");
}

}  // namespace
}  // namespace icg
