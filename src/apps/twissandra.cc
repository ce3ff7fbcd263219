#include "src/apps/twissandra.h"

#include <utility>

namespace icg {
namespace {

uint64_t Mix(uint64_t seed, int64_t a, int64_t b) {
  uint64_t h = seed ^ 0xd1b54a32d192ed03ULL;
  h ^= static_cast<uint64_t>(a) + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
  h *= 0xbf58476d1ce4e5b9ULL;
  h ^= static_cast<uint64_t>(b) + 0x94d049bb133111ebULL + (h << 6) + (h >> 2);
  h ^= h >> 31;
  return h;
}

}  // namespace

Twissandra::Twissandra(CorrectableClient* client, TwissandraConfig config)
    : client_(client), config_(config), fetcher_(client, "tweet:") {}

std::vector<int64_t> Twissandra::TimelineFor(int64_t user, int64_t version) const {
  const uint64_t h = Mix(config_.seed, user, version);
  const int count = 1 + static_cast<int>(h % static_cast<uint64_t>(config_.max_timeline));
  std::vector<int64_t> tweets;
  tweets.reserve(static_cast<size_t>(count));
  for (int i = 0; i < count; ++i) {
    tweets.push_back(static_cast<int64_t>(Mix(config_.seed, user * 32 + i, version) %
                                          static_cast<uint64_t>(config_.num_tweets)));
  }
  return tweets;
}

std::string Twissandra::TimelineValue(int64_t user, int64_t version) const {
  return RefFetcher::JoinRefs(TimelineFor(user, version));
}

std::string Twissandra::TweetValue(int64_t tweet) const {
  // "tweet-<id>: ", then the letter 'a' + (position % 26) up to tweet_bytes.
  std::string value = "tweet-" + std::to_string(tweet) + ": ";
  const size_t prefix = value.size();
  value.resize(static_cast<size_t>(config_.tweet_bytes));
  char letter = static_cast<char>('a' + prefix % 26);
  for (size_t at = prefix; at < value.size(); ++at) {
    value[at] = letter;
    letter = letter == 'z' ? 'a' : static_cast<char>(letter + 1);
  }
  return value;
}

void Twissandra::Preload(KvCluster* cluster) const {
  // Every timeline, then every tweet.
  const int64_t users = config_.num_users;
  cluster->Preload(static_cast<size_t>(users + config_.num_tweets),
                   [this, users](size_t i, std::string* key, std::string* value) {
                     const int64_t id = static_cast<int64_t>(i);
                     if (id < users) {
                       *key = TimelineKey(id);
                       *value = TimelineValue(id, /*version=*/0);
                     } else {
                       *key = TweetKey(id - users);
                       *value = TweetValue(id - users);
                     }
                   });
}

void Twissandra::GetTimeline(int64_t user, bool use_icg,
                             std::function<void(RefFetchOutcome)> done) {
  fetcher_.Fetch(TimelineKey(user), use_icg, std::move(done));
}

void Twissandra::PostTweet(int64_t user, int64_t version, std::function<void(bool)> done) {
  client_->InvokeStrong(Operation::Put(TimelineKey(user), TimelineValue(user, version)))
      .SetCallbacks(nullptr, [done](const View<OpResult>&) { done(true); },
                    [done](const Status&) { done(false); });
}

}  // namespace icg
