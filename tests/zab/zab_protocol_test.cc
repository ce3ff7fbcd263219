// Zab-protocol tests: commit ordering, quorum behaviour, session-server routing, CZK
// local simulation with speculative cursors, and the client-driven dequeue recipes.
#include <gtest/gtest.h>

#include "src/harness/deployment.h"

namespace icg {
namespace {

class ZabTest : public ::testing::Test {
 protected:
  ZabTest() : world_(/*seed=*/3, /*jitter_sigma=*/0.0) {}

  ZooKeeperStack MakeStack(Region client = Region::kIreland, Region session = Region::kFrankfurt,
                           Region leader = Region::kIreland) {
    return MakeZooKeeperStack(world_, client, session, leader);
  }

  SimWorld world_;
};

TEST_F(ZabTest, LeaderFlagSetCorrectly) {
  auto stack = MakeStack();
  EXPECT_TRUE(stack.cluster->ServerIn(Region::kIreland)->is_leader());
  EXPECT_FALSE(stack.cluster->ServerIn(Region::kFrankfurt)->is_leader());
  EXPECT_FALSE(stack.cluster->ServerIn(Region::kVirginia)->is_leader());
}

TEST_F(ZabTest, EnqueueCommitsOnAllServers) {
  auto stack = MakeStack();
  bool done = false;
  stack.zab_client->Enqueue("q", "x", /*icg=*/false,
                            [&](StatusOr<OpResult> r, bool is_final, ResponseKind) {
                              ASSERT_TRUE(r.ok());
                              if (is_final) {
                                EXPECT_EQ(r->seqno, 0);
                                done = true;
                              }
                            });
  world_.loop().Run();
  ASSERT_TRUE(done);
  world_.loop().RunFor(Seconds(1));
  for (const auto& server : stack.cluster->servers()) {
    EXPECT_EQ(server->LocalQueue("q").Size(), 1u);
    EXPECT_EQ(server->last_applied_zxid(), 1u);
  }
}

TEST_F(ZabTest, OpsApplyInZxidOrderEverywhere) {
  auto stack = MakeStack();
  for (int i = 0; i < 20; ++i) {
    stack.zab_client->Enqueue("q", "e" + std::to_string(i), false,
                              [](StatusOr<OpResult>, bool, ResponseKind) {});
  }
  world_.loop().Run();
  for (const auto& server : stack.cluster->servers()) {
    const auto& entries = server->LocalQueue("q").entries();
    ASSERT_EQ(entries.size(), 20u);
    for (int i = 0; i < 20; ++i) {
      EXPECT_EQ(entries[static_cast<size_t>(i)].data, "e" + std::to_string(i));
      EXPECT_EQ(entries[static_cast<size_t>(i)].seq, i);
    }
  }
}

TEST_F(ZabTest, StateConsistentUnderJitterReordering) {
  // With jitter, commit messages can overtake each other; the apply path must still
  // produce identical queue contents on every server.
  SimWorld jittery(/*seed=*/11, /*jitter_sigma=*/0.4);
  auto stack = MakeZooKeeperStack(jittery);
  auto second = AddZooKeeperClient(jittery, stack, Region::kVirginia, Region::kVirginia);
  for (int i = 0; i < 30; ++i) {
    stack.zab_client->Enqueue("q", "a" + std::to_string(i), false,
                              [](StatusOr<OpResult>, bool, ResponseKind) {});
    second.zab_client->Enqueue("q", "b" + std::to_string(i), false,
                               [](StatusOr<OpResult>, bool, ResponseKind) {});
  }
  jittery.loop().Run();
  const auto& reference = stack.cluster->servers().front()->LocalQueue("q").entries();
  ASSERT_EQ(reference.size(), 60u);
  for (const auto& server : stack.cluster->servers()) {
    EXPECT_EQ(server->LocalQueue("q").entries(), reference);
  }
}

TEST_F(ZabTest, SessionThroughLeaderSkipsForwardHop) {
  auto via_follower = MakeStack(Region::kIreland, Region::kFrankfurt, Region::kIreland);
  SimTime follower_final = 0;
  via_follower.zab_client->Enqueue("q", "x", false,
                                   [&](StatusOr<OpResult>, bool is_final, ResponseKind) {
                                     if (is_final) {
                                       follower_final = world_.loop().Now();
                                     }
                                   });
  world_.loop().Run();

  SimWorld world2(/*seed=*/3, /*jitter_sigma=*/0.0);
  auto via_leader = MakeZooKeeperStack(world2, Region::kIreland, Region::kIreland,
                                       Region::kIreland);
  SimTime leader_final = 0;
  via_leader.zab_client->Enqueue("q", "x", false,
                                 [&](StatusOr<OpResult>, bool is_final, ResponseKind) {
                                   if (is_final) {
                                     leader_final = world2.loop().Now();
                                   }
                                 });
  world2.loop().Run();
  EXPECT_LT(leader_final, follower_final);  // no client->follower->leader detour
}

TEST_F(ZabTest, DequeueEmptyQueueReturnsNotFound) {
  auto stack = MakeStack();
  bool done = false;
  stack.zab_client->Dequeue("q", false, [&](StatusOr<OpResult> r, bool is_final, ResponseKind) {
    if (is_final) {
      ASSERT_TRUE(r.ok());
      EXPECT_FALSE(r->found);
      done = true;
    }
  });
  world_.loop().Run();
  EXPECT_TRUE(done);
}

TEST_F(ZabTest, IcgEnqueuePredictsCorrectZnodeName) {
  auto stack = MakeStack();
  stack.cluster->PreloadQueue("q", 5, "t");
  int64_t predicted = -1;
  int64_t committed = -1;
  stack.zab_client->Enqueue("q", "x", /*icg=*/true,
                            [&](StatusOr<OpResult> r, bool is_final, ResponseKind) {
                              if (is_final) {
                                committed = r->seqno;
                              } else {
                                predicted = r->seqno;
                              }
                            });
  world_.loop().Run();
  EXPECT_EQ(predicted, 5);
  EXPECT_EQ(committed, 5);
}

TEST_F(ZabTest, ConcurrentIcgDequeuesPromiseDistinctElements) {
  auto stack = MakeStack();
  stack.cluster->PreloadQueue("q", 10, "t");
  std::vector<int64_t> promised;
  for (int i = 0; i < 4; ++i) {
    stack.zab_client->Dequeue("q", /*icg=*/true,
                              [&](StatusOr<OpResult> r, bool is_final, ResponseKind) {
                                if (!is_final && r.ok() && r->found) {
                                  promised.push_back(r->seqno);
                                }
                              });
  }
  world_.loop().Run();
  ASSERT_EQ(promised.size(), 4u);
  EXPECT_EQ(promised, (std::vector<int64_t>{0, 1, 2, 3}));
}

TEST_F(ZabTest, SpeculativeCursorResyncsAfterCommits) {
  auto stack = MakeStack();
  stack.cluster->PreloadQueue("q", 4, "t");
  // First ICG dequeue promises seq 0 and commits.
  stack.zab_client->Dequeue("q", true, [](StatusOr<OpResult>, bool, ResponseKind) {});
  world_.loop().Run();
  // Next promise must be seq 1 (cursor resynced, not double-advanced).
  int64_t promised = -1;
  stack.zab_client->Dequeue("q", true,
                            [&](StatusOr<OpResult> r, bool is_final, ResponseKind) {
                              if (!is_final) {
                                promised = r->seqno;
                              }
                            });
  world_.loop().Run();
  EXPECT_EQ(promised, 1);
}

TEST_F(ZabTest, GetChildrenListsWholeQueue) {
  auto stack = MakeStack();
  stack.cluster->PreloadQueue("q", 7, "t");
  std::vector<int64_t> children;
  stack.zab_client->GetChildren("q", [&](std::vector<int64_t> c) { children = std::move(c); });
  world_.loop().Run();
  ASSERT_EQ(children.size(), 7u);
  EXPECT_EQ(children.front(), 0);
  EXPECT_EQ(children.back(), 6);
}

TEST_F(ZabTest, GetChildrenBytesGrowWithQueueSize) {
  auto stack = MakeStack();
  stack.cluster->PreloadQueue("q", 100, "t");
  stack.zab_client->GetChildren("q", [](std::vector<int64_t>) {});
  world_.loop().Run();
  const int64_t small_bytes = stack.zab_client->LinkBytes();

  auto big = MakeZooKeeperStack(world_);
  big.cluster->PreloadQueue("q", 1000, "t");
  big.zab_client->GetChildren("q", [](std::vector<int64_t>) {});
  world_.loop().Run();
  EXPECT_GT(big.zab_client->LinkBytes(), 5 * small_bytes);
}

TEST_F(ZabTest, ReadDataFetchesElementBySeq) {
  auto stack = MakeStack();
  stack.cluster->PreloadQueue("q", 3, "elem");
  std::string data;
  stack.zab_client->ReadData("q", 1, [&](StatusOr<OpResult> r, bool, ResponseKind) {
    data = r->value;
  });
  world_.loop().Run();
  EXPECT_EQ(data, "elem1");
}

TEST_F(ZabTest, RecipeDequeueZkTakesHead) {
  auto stack = MakeStack();
  stack.cluster->PreloadQueue("q", 3, "t");
  StatusOr<OpResult> out(Status::Internal("none"));
  stack.zab_client->RecipeDequeueZk("q", [&](StatusOr<OpResult> r) { out = std::move(r); });
  world_.loop().Run();
  ASSERT_TRUE(out.ok());
  EXPECT_TRUE(out->found);
  EXPECT_EQ(out->seqno, 0);
  EXPECT_EQ(out->value, "t0");
  world_.loop().RunFor(Seconds(1));
  EXPECT_EQ(stack.cluster->ServerIn(Region::kIreland)->LocalQueue("q").Size(), 2u);
}

TEST_F(ZabTest, RecipeDequeueZkEmptyQueue) {
  auto stack = MakeStack();
  StatusOr<OpResult> out(Status::Internal("none"));
  stack.zab_client->RecipeDequeueZk("q", [&](StatusOr<OpResult> r) { out = std::move(r); });
  world_.loop().Run();
  ASSERT_TRUE(out.ok());
  EXPECT_FALSE(out->found);
}

TEST_F(ZabTest, RecipeDequeueCzkTakesHead) {
  auto stack = MakeStack();
  stack.cluster->PreloadQueue("q", 3, "t");
  StatusOr<OpResult> out(Status::Internal("none"));
  stack.zab_client->RecipeDequeueCzk("q", [&](StatusOr<OpResult> r) { out = std::move(r); });
  world_.loop().Run();
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out->seqno, 0);
}

TEST_F(ZabTest, ContendingRecipesNeverDuplicate) {
  auto stack = MakeStack();
  stack.cluster->PreloadQueue("q", 20, "t");
  auto c1 = stack.cluster->MakeClient(Region::kFrankfurt, Region::kFrankfurt);
  auto c2 = stack.cluster->MakeClient(Region::kFrankfurt, Region::kFrankfurt);
  std::vector<int64_t> taken;
  for (int i = 0; i < 10; ++i) {
    c1->RecipeDequeueZk("q", [&](StatusOr<OpResult> r) {
      if (r.ok() && r->found) {
        taken.push_back(r->seqno);
      }
    });
    c2->RecipeDequeueZk("q", [&](StatusOr<OpResult> r) {
      if (r.ok() && r->found) {
        taken.push_back(r->seqno);
      }
    });
  }
  world_.loop().Run();
  ASSERT_EQ(taken.size(), 20u);
  std::sort(taken.begin(), taken.end());
  for (int i = 0; i < 20; ++i) {
    EXPECT_EQ(taken[static_cast<size_t>(i)], i);  // each element taken exactly once
  }
}

TEST_F(ZabTest, FollowerCrashQuorumStillCommits) {
  auto stack = MakeStack();
  world_.network().Crash(stack.cluster->ServerIn(Region::kVirginia)->id());
  bool done = false;
  stack.zab_client->Enqueue("q", "x", false,
                            [&](StatusOr<OpResult>, bool is_final, ResponseKind) {
                              done |= is_final;
                            });
  world_.loop().Run();
  EXPECT_TRUE(done);  // leader + FRK follower form a majority
}

TEST_F(ZabTest, LeaderCrashBlocksCommitsButNotPreliminaries) {
  auto stack = MakeStack();
  stack.cluster->PreloadQueue("q", 5, "t");
  world_.network().Crash(stack.cluster->leader()->id());
  stack.client->SetTimeout(Seconds(2));
  bool got_preliminary = false;
  bool got_error = false;
  stack.client->Invoke(Operation::Dequeue("q"))
      .SetCallbacks([&](const View<OpResult>&) { got_preliminary = true; },
                    [&](const View<OpResult>&) { FAIL() << "commit impossible"; },
                    [&](const Status& s) {
                      got_error = true;
                      EXPECT_EQ(s.code(), StatusCode::kTimeout);
                    });
  world_.loop().Run();
  EXPECT_TRUE(got_preliminary);  // ICG still delivered the weak view
  EXPECT_TRUE(got_error);
}

}  // namespace
}  // namespace icg
