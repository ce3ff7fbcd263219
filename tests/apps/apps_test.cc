// Application-layer tests: ads system, Twissandra, ref-fetch speculation mechanics,
// news reader progressive display, and the Reddit listing rewrite.
#include <gtest/gtest.h>

#include "src/apps/ads.h"
#include "src/apps/news_reader.h"
#include "src/apps/reddit.h"
#include "src/apps/ref_fetch.h"
#include "src/apps/twissandra.h"
#include "src/harness/deployment.h"

namespace icg {
namespace {

AdsConfig SmallAds() {
  AdsConfig c;
  c.num_profiles = 200;
  c.num_ads = 460;
  return c;
}

TwissandraConfig SmallTwissandra() {
  TwissandraConfig c;
  c.num_users = 220;
  c.num_tweets = 650;
  return c;
}

TEST(RefParsing, RoundTrip) {
  const std::vector<int64_t> refs = {1, 42, 0, 999999};
  EXPECT_EQ(RefFetcher::ParseRefs(RefFetcher::JoinRefs(refs)), refs);
}

TEST(RefParsing, EmptyAndSingle) {
  EXPECT_TRUE(RefFetcher::ParseRefs("").empty());
  EXPECT_EQ(RefFetcher::ParseRefs("7"), (std::vector<int64_t>{7}));
  EXPECT_EQ(RefFetcher::JoinRefs({}), "");
}

class AdsTest : public ::testing::Test {
 protected:
  AdsTest() : world_(1, 0.0) {
    CassandraBindingConfig binding;
    binding.strong_read_quorum = 2;
    stack_ = MakeCassandraStack(world_, KvConfig{}, binding);
    ads_ = std::make_unique<AdsSystem>(stack_->client.get(), SmallAds());
    ads_->Preload(stack_->cluster.get());
  }

  SimWorld world_;
  std::optional<CassandraStack> stack_;
  std::unique_ptr<AdsSystem> ads_;
};

TEST_F(AdsTest, DatasetIsDeterministic) {
  EXPECT_EQ(ads_->RefsFor(5, 0), ads_->RefsFor(5, 0));
  EXPECT_NE(ads_->ProfileValue(5, 0), ads_->ProfileValue(5, 1));  // versions differ
  EXPECT_EQ(ads_->AdValue(3).size(), static_cast<size_t>(SmallAds().ad_bytes));
}

TEST_F(AdsTest, RefCountsWithinConfiguredBounds) {
  for (int64_t uid = 0; uid < 100; ++uid) {
    const auto refs = ads_->RefsFor(uid, 0);
    EXPECT_GE(static_cast<int>(refs.size()), SmallAds().min_refs);
    EXPECT_LE(static_cast<int>(refs.size()), SmallAds().max_refs);
    for (const int64_t ad : refs) {
      EXPECT_GE(ad, 0);
      EXPECT_LT(ad, SmallAds().num_ads);
    }
  }
}

TEST_F(AdsTest, FetchReturnsAllReferencedAds) {
  RefFetchOutcome outcome;
  ads_->FetchAdsByUserId(7, /*use_icg=*/true, [&](RefFetchOutcome o) { outcome = o; });
  world_.loop().Run();
  ASSERT_TRUE(outcome.ok);
  EXPECT_EQ(outcome.objects, ads_->RefsFor(7, 0).size());
  EXPECT_TRUE(outcome.speculated);
  EXPECT_FALSE(outcome.misspeculated);
}

TEST_F(AdsTest, IcgFetchFasterThanBaseline) {
  RefFetchOutcome icg;
  RefFetchOutcome base;
  ads_->FetchAdsByUserId(7, true, [&](RefFetchOutcome o) { icg = o; });
  world_.loop().Run();
  ads_->FetchAdsByUserId(7, false, [&](RefFetchOutcome o) { base = o; });
  world_.loop().Run();
  ASSERT_TRUE(icg.ok && base.ok);
  EXPECT_LT(icg.latency, base.latency);
  EXPECT_FALSE(base.speculated);
  // Speculation hides the strong read of step 1: ~20 ms of the ~80 ms baseline.
  EXPECT_NEAR(ToMillis(base.latency - icg.latency), 20.0, 6.0);
}

TEST_F(AdsTest, StaleProfileTriggersMisspeculation) {
  // The coordinator's (FRK) copy is stale; quorum partner has a newer profile.
  const std::string fresh = ads_->ProfileValue(7, 1);
  stack_->cluster->ReplicaIn(Region::kIreland)
      ->LocalPut(AdsSystem::ProfileKey(7), fresh, Version{1000000, 99});
  RefFetchOutcome outcome;
  ads_->FetchAdsByUserId(7, true, [&](RefFetchOutcome o) { outcome = o; });
  world_.loop().Run();
  ASSERT_TRUE(outcome.ok);
  EXPECT_TRUE(outcome.misspeculated);
  // The re-executed fetch serves the *fresh* reference list.
  EXPECT_EQ(outcome.objects, ads_->RefsFor(7, 1).size());
}

TEST_F(AdsTest, ProfileWithNoIdsIssuesNoMultiget) {
  // "," parses to no ad ids: the fetch answers like an empty profile and never sends an
  // empty multiget to the coordinator.
  stack_->cluster->Preload(AdsSystem::ProfileKey(7), ",");
  RefFetchOutcome outcome;
  ads_->FetchAdsByUserId(7, /*use_icg=*/true, [&](RefFetchOutcome o) { outcome = o; });
  world_.loop().Run();
  ASSERT_TRUE(outcome.ok);
  EXPECT_EQ(outcome.objects, 0u);
  EXPECT_FALSE(outcome.misspeculated);
  EXPECT_EQ(stack_->cluster->ReplicaIn(Region::kFrankfurt)->metrics().Value(
                "multireads_coordinated"),
            0);
}

TEST_F(AdsTest, UpdateProfileVisibleToStrongFetch) {
  bool updated = false;
  ads_->UpdateProfile(7, /*version=*/3, [&](bool ok) { updated = ok; });
  world_.loop().Run();
  ASSERT_TRUE(updated);
  RefFetchOutcome outcome;
  ads_->FetchAdsByUserId(7, false, [&](RefFetchOutcome o) { outcome = o; });
  world_.loop().Run();
  EXPECT_EQ(outcome.objects, ads_->RefsFor(7, 3).size());
}

class TwissandraTest : public ::testing::Test {
 protected:
  TwissandraTest() : world_(2, 0.0) {
    CassandraBindingConfig binding;
    binding.strong_read_quorum = 2;
    stack_ = MakeCassandraStack(world_, KvConfig{}, binding, Region::kIreland,
                                Region::kVirginia,
                                {Region::kVirginia, Region::kCalifornia, Region::kOregon});
    twissandra_ = std::make_unique<Twissandra>(stack_->client.get(), SmallTwissandra());
    twissandra_->Preload(stack_->cluster.get());
  }

  SimWorld world_;
  std::optional<CassandraStack> stack_;
  std::unique_ptr<Twissandra> twissandra_;
};

TEST_F(TwissandraTest, TimelineFetchesAllTweets) {
  RefFetchOutcome outcome;
  twissandra_->GetTimeline(12, true, [&](RefFetchOutcome o) { outcome = o; });
  world_.loop().Run();
  ASSERT_TRUE(outcome.ok);
  EXPECT_EQ(outcome.objects, twissandra_->TimelineFor(12, 0).size());
}

TEST_F(TwissandraTest, SpeculationGainMatchesCoordinatorRtt) {
  RefFetchOutcome icg;
  RefFetchOutcome base;
  twissandra_->GetTimeline(12, true, [&](RefFetchOutcome o) { icg = o; });
  world_.loop().Run();
  twissandra_->GetTimeline(12, false, [&](RefFetchOutcome o) { base = o; });
  world_.loop().Run();
  // VRG coordinator with NCA quorum partner: strong read ~145 ms; preliminary ~83 ms.
  EXPECT_NEAR(ToMillis(base.latency - icg.latency), 62.0, 15.0);
}

TEST_F(TwissandraTest, PostTweetRewritesTimeline) {
  bool posted = false;
  twissandra_->PostTweet(12, /*version=*/2, [&](bool ok) { posted = ok; });
  world_.loop().Run();
  ASSERT_TRUE(posted);
  RefFetchOutcome outcome;
  twissandra_->GetTimeline(12, false, [&](RefFetchOutcome o) { outcome = o; });
  world_.loop().Run();
  EXPECT_EQ(outcome.objects, twissandra_->TimelineFor(12, 2).size());
}

class NewsTest : public ::testing::Test {
 protected:
  NewsTest() : world_(3, 0.0) {
    stack_ = MakeNewsStack(world_);
    reader_ = std::make_unique<NewsReader>(stack_->client.get());
  }

  SimWorld world_;
  std::optional<NewsStack> stack_;
  std::unique_ptr<NewsReader> reader_;
};

TEST_F(NewsTest, ItemsParseAndJoinRoundTrip) {
  const std::vector<std::string> items = {"a", "b", "c"};
  EXPECT_EQ(NewsReader::ParseItems(NewsReader::JoinItems(items)), items);
  EXPECT_TRUE(NewsReader::ParseItems("").empty());
}

TEST_F(NewsTest, ProgressiveDisplayRefreshesPerView) {
  stack_->cluster->Preload("news:top", "s1\ns2");
  // Warm cache first.
  stack_->client->InvokeStrong(Operation::Get("news:top"));
  world_.loop().Run();

  int refreshes = 0;
  std::vector<NewsRefresh> history;
  reader_->GetLatestNews("top", [&](const NewsRefresh&) { refreshes++; },
                         [&](std::vector<NewsRefresh> h) { history = std::move(h); });
  world_.loop().Run();
  EXPECT_EQ(refreshes, 3);  // cache, backup, primary
  ASSERT_EQ(history.size(), 3u);
  EXPECT_TRUE(history.back().is_final);
  EXPECT_LE(history[0].at, history[1].at);
  EXPECT_LE(history[1].at, history[2].at);
}

TEST_F(NewsTest, FreshPrimaryContentArrivesLast) {
  stack_->cluster->Preload("news:top", "old");
  stack_->client->InvokeStrong(Operation::Get("news:top"));
  world_.loop().Run();
  stack_->cluster->primary()->LocalPut("news:top", "breaking\nold",
                                       Version{1000000, stack_->cluster->primary()->id()});
  std::vector<NewsRefresh> history;
  reader_->GetLatestNews("top", [](const NewsRefresh&) {},
                         [&](std::vector<NewsRefresh> h) { history = std::move(h); });
  world_.loop().Run();
  ASSERT_EQ(history.size(), 3u);
  EXPECT_EQ(history[0].items, (std::vector<std::string>{"old"}));      // cache
  EXPECT_EQ(history[1].items, (std::vector<std::string>{"old"}));      // backup
  EXPECT_EQ(history[2].items.front(), "breaking");                     // primary
}

TEST_F(NewsTest, PublishThenReadCoherent) {
  bool published = false;
  reader_->PublishNews("top", {"h1", "h2"}, [&](bool ok) { published = ok; });
  world_.loop().Run();
  ASSERT_TRUE(published);
  // The write-through cache now answers instantly with the published items.
  std::vector<NewsRefresh> history;
  reader_->GetLatestNews("top", [](const NewsRefresh&) {},
                         [&](std::vector<NewsRefresh> h) { history = std::move(h); });
  world_.loop().Run();
  EXPECT_EQ(history[0].items, (std::vector<std::string>{"h1", "h2"}));
}

TEST(RedditListing, WeakAndStrongRouteDifferently) {
  SimWorld world(4, 0.0);
  auto stack = MakeNewsStack(world);
  stack.cluster->Preload(MessagesKey(1), "m1");
  CorrectableClient& client = *stack.client;

  // strong=True bypasses the (cold) cache and reads the primary.
  auto strong = UserMessages(client, 1, /*strong=*/true);
  world.loop().Run();
  EXPECT_EQ(strong.Final().value().value, "m1");

  // default (weak) is served by the cache warmed above, instantly.
  auto weak = UserMessages(client, 1);
  EXPECT_EQ(weak.state(), CorrectableState::kFinal);
  EXPECT_EQ(weak.Final().value().value, "m1");
}

}  // namespace
}  // namespace icg
