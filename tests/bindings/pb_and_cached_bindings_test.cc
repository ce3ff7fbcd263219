// Primary-backup binding (Listing 7), cached primary-backup binding (news reader), and
// cached-causal binding (mobile/disconnected): level routing, coherence, staleness.
#include <gtest/gtest.h>

#include "src/bindings/cached_causal_binding.h"
#include "src/bindings/cached_pb_binding.h"
#include "src/bindings/primary_backup_binding.h"
#include "src/harness/deployment.h"
#include "src/stores/causal_store.h"

namespace icg {
namespace {

// --- PrimaryBackupBinding (Listing 7) --------------------------------------------------

class PbBindingTest : public ::testing::Test {
 protected:
  PbBindingTest() : world_(1, 0.0) {
    cluster_ = std::make_unique<PbCluster>(
        &world_.network(), &world_.topology(),
        std::vector<Region>{Region::kVirginia, Region::kIreland, Region::kFrankfurt});
    client_ = cluster_->MakeClient(Region::kIreland, Region::kIreland);
    binding_ = std::make_shared<PrimaryBackupBinding>(client_.get());
    correctable_client_ = std::make_unique<CorrectableClient>(binding_, &world_.loop());
  }

  SimWorld world_;
  std::unique_ptr<PbCluster> cluster_;
  std::unique_ptr<PbClient> client_;
  std::shared_ptr<PrimaryBackupBinding> binding_;
  std::unique_ptr<CorrectableClient> correctable_client_;
};

TEST_F(PbBindingTest, WeakReadsBackupStrongReadsPrimary) {
  // Backup and primary intentionally disagree.
  cluster_->NodeIn(Region::kIreland)->LocalPut("k", "backup-version", Version{1, 0});
  cluster_->primary()->LocalPut("k", "primary-version", Version{2, 0});

  auto weak = correctable_client_->InvokeWeak(Operation::Get("k"));
  auto strong = correctable_client_->InvokeStrong(Operation::Get("k"));
  world_.loop().Run();
  EXPECT_EQ(weak.Final().value().value, "backup-version");
  EXPECT_EQ(strong.Final().value().value, "primary-version");
}

TEST_F(PbBindingTest, InvokeDeliversBothViewsWeakFirst) {
  cluster_->Preload("k", "v");
  std::vector<ConsistencyLevel> levels;
  auto c = correctable_client_->Invoke(Operation::Get("k"));
  c.OnUpdate([&](const View<OpResult>& v) { levels.push_back(v.level); });
  c.OnFinal([&](const View<OpResult>& v) { levels.push_back(v.level); });
  world_.loop().Run();
  // Both requests run in parallel (the "more sophisticated binding"); the nearby backup
  // answers first, the distant primary closes.
  EXPECT_EQ(levels, (std::vector<ConsistencyLevel>{ConsistencyLevel::kWeak,
                                                   ConsistencyLevel::kStrong}));
}

TEST_F(PbBindingTest, WritesGoToPrimary) {
  auto put = correctable_client_->InvokeStrong(Operation::Put("k", "v1"));
  world_.loop().Run();
  ASSERT_TRUE(put.Final().ok());
  EXPECT_EQ(cluster_->primary()->LocalGet("k").value(), "v1");
}

TEST_F(PbBindingTest, QueueOpsRejected) {
  auto c = correctable_client_->InvokeStrong(Operation::Enqueue("q", "e"));
  EXPECT_EQ(c.state(), CorrectableState::kError);
  EXPECT_EQ(c.Final().status().code(), StatusCode::kInvalidArgument);
}

// --- CachedPbBinding (news reader) ------------------------------------------------------

class CachedPbTest : public ::testing::Test {
 protected:
  CachedPbTest() : world_(1, 0.0) { stack_ = MakeNewsStack(world_); }

  void WarmCache(const std::string& key) {
    stack_->client->InvokeStrong(Operation::Get(key));
    world_.loop().Run();
  }

  SimWorld world_;
  std::optional<NewsStack> stack_;
};

TEST_F(CachedPbTest, ThreeLevelsAdvertised) {
  EXPECT_EQ(stack_->binding->SupportedLevels(),
            (std::vector<ConsistencyLevel>{ConsistencyLevel::kCache, ConsistencyLevel::kWeak,
                                           ConsistencyLevel::kStrong}));
}

TEST_F(CachedPbTest, ColdCacheReportsMissAtCacheLevel) {
  stack_->cluster->Preload("k", "v");
  std::vector<std::pair<ConsistencyLevel, bool>> views;
  auto c = stack_->client->Invoke(Operation::Get("k"));
  c.OnUpdate([&](const View<OpResult>& v) { views.push_back({v.level, v.value.found}); });
  c.OnFinal([&](const View<OpResult>& v) { views.push_back({v.level, v.value.found}); });
  world_.loop().Run();
  ASSERT_EQ(views.size(), 3u);
  EXPECT_EQ(views[0].first, ConsistencyLevel::kCache);
  EXPECT_FALSE(views[0].second);  // cache miss: found=false
  EXPECT_TRUE(views[1].second);
  EXPECT_TRUE(views[2].second);
}

TEST_F(CachedPbTest, ReadsWarmTheCache) {
  stack_->cluster->Preload("k", "v");
  WarmCache("k");
  EXPECT_EQ(stack_->cache->size(), 1u);
  auto weak = stack_->client->InvokeWeak(Operation::Get("k"));  // cache-only read
  EXPECT_EQ(weak.state(), CorrectableState::kFinal);            // resolves synchronously
  EXPECT_EQ(weak.Final().value().value, "v");
}

TEST_F(CachedPbTest, WriteThroughUpdatesCacheOnAck) {
  auto put = stack_->client->InvokeStrong(Operation::Put("k", "v2"));
  EXPECT_EQ(stack_->cache->size(), 0u);  // not before the ack
  world_.loop().Run();
  ASSERT_TRUE(put.Final().ok());
  const auto cached = stack_->cache->Get("k");
  ASSERT_TRUE(cached.has_value());
  EXPECT_EQ(cached->value, "v2");
}

TEST_F(CachedPbTest, CacheServesInstantlyAfterWarmup) {
  stack_->cluster->Preload("k", "v");
  WarmCache("k");
  const SimTime start = world_.loop().Now();
  SimTime cache_at = -1;
  auto c = stack_->client->Invoke(Operation::Get("k"));
  c.OnUpdate([&](const View<OpResult>& v) {
    if (v.level == ConsistencyLevel::kCache) {
      cache_at = v.delivered_at - start;
    }
  });
  world_.loop().Run();
  EXPECT_EQ(cache_at, 0);  // synchronous
}

// --- CachedCausalBinding ---------------------------------------------------------------

class CachedCausalTest : public ::testing::Test {
 protected:
  CachedCausalTest() : world_(1, 0.0) {
    cluster_ = std::make_unique<CausalCluster>(
        &world_.network(), &world_.topology(),
        std::vector<Region>{Region::kIreland, Region::kFrankfurt, Region::kVirginia});
    client_ = cluster_->MakeClient(Region::kIreland, Region::kIreland);
    cache_ = std::make_unique<ClientCache>();
    binding_ = std::make_shared<CachedCausalBinding>(client_.get(), cache_.get());
    correctable_client_ = std::make_unique<CorrectableClient>(binding_, &world_.loop());
  }

  SimWorld world_;
  std::unique_ptr<CausalCluster> cluster_;
  std::unique_ptr<CausalClient> client_;
  std::unique_ptr<ClientCache> cache_;
  std::shared_ptr<CachedCausalBinding> binding_;
  std::unique_ptr<CorrectableClient> correctable_client_;
};

TEST_F(CachedCausalTest, TwoLevelInvoke) {
  cluster_->Preload("k", "v");
  std::vector<ConsistencyLevel> levels;
  auto c = correctable_client_->Invoke(Operation::Get("k"));
  c.OnUpdate([&](const View<OpResult>& v) { levels.push_back(v.level); });
  c.OnFinal([&](const View<OpResult>& v) { levels.push_back(v.level); });
  world_.loop().Run();
  EXPECT_EQ(levels, (std::vector<ConsistencyLevel>{ConsistencyLevel::kCache,
                                                   ConsistencyLevel::kCausal}));
  EXPECT_EQ(c.Final().value().value, "v");
}

TEST_F(CachedCausalTest, InvokeStrongBypassesCache) {
  cluster_->Preload("k", "fresh");
  OpResult stale;
  stale.found = true;
  stale.value = "stale";
  cache_->Put("k", stale);
  auto c = correctable_client_->InvokeStrong(Operation::Get("k"));
  world_.loop().Run();
  EXPECT_EQ(c.Final().value().value, "fresh");  // cache bypassed
}

TEST_F(CachedCausalTest, InvokeWeakIsCacheOnly) {
  cluster_->Preload("k", "v");
  auto miss = correctable_client_->InvokeWeak(Operation::Get("k"));
  EXPECT_EQ(miss.state(), CorrectableState::kFinal);
  EXPECT_FALSE(miss.Final().value().found);  // cold cache: miss, no network
}

TEST_F(CachedCausalTest, DisconnectedModeServesCacheFailsStore) {
  cluster_->Preload("k", "v");
  correctable_client_->InvokeStrong(Operation::Get("k"));
  world_.loop().Run();  // warm the cache
  binding_->SetDisconnected(true);

  // Cache-level access still works offline.
  auto weak = correctable_client_->InvokeWeak(Operation::Get("k"));
  EXPECT_EQ(weak.Final().value().value, "v");

  // Store-level access fails fast.
  auto strong = correctable_client_->InvokeStrong(Operation::Get("k"));
  world_.loop().Run();
  EXPECT_EQ(strong.state(), CorrectableState::kError);
  EXPECT_EQ(strong.Final().status().code(), StatusCode::kUnavailable);

  auto put = correctable_client_->InvokeStrong(Operation::Put("k", "v2"));
  EXPECT_EQ(put.state(), CorrectableState::kError);
}

TEST_F(CachedCausalTest, WriteThroughCoherence) {
  auto put = correctable_client_->InvokeStrong(Operation::Put("k", "v1"));
  world_.loop().Run();
  ASSERT_TRUE(put.Final().ok());
  EXPECT_EQ(cache_->Get("k")->value, "v1");
}

}  // namespace
}  // namespace icg
