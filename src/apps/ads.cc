#include "src/apps/ads.h"

#include <utility>

#include "src/common/digest.h"

namespace icg {
namespace {

// Deterministic per-entity randomness without a stateful RNG: hash of (seed, uid, slot).
uint64_t Mix(uint64_t seed, int64_t a, int64_t b) {
  uint64_t h = seed ^ 0x9e3779b97f4a7c15ULL;
  h ^= static_cast<uint64_t>(a) + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
  h *= 0xbf58476d1ce4e5b9ULL;
  h ^= static_cast<uint64_t>(b) + 0x94d049bb133111ebULL + (h << 6) + (h >> 2);
  h ^= h >> 31;
  return h;
}

}  // namespace

AdsSystem::AdsSystem(CorrectableClient* client, AdsConfig config)
    : client_(client), config_(config), fetcher_(client, "ad:") {}

std::vector<int64_t> AdsSystem::RefsFor(int64_t uid, int64_t version) const {
  const uint64_t h = Mix(config_.seed, uid, version);
  const int span = config_.max_refs - config_.min_refs + 1;
  const int count = config_.min_refs + static_cast<int>(h % static_cast<uint64_t>(span));
  std::vector<int64_t> refs;
  refs.reserve(static_cast<size_t>(count));
  for (int i = 0; i < count; ++i) {
    refs.push_back(static_cast<int64_t>(Mix(config_.seed, uid * 64 + i, version) %
                                        static_cast<uint64_t>(config_.num_ads)));
  }
  return refs;
}

std::string AdsSystem::ProfileValue(int64_t uid, int64_t version) const {
  return RefFetcher::JoinRefs(RefsFor(uid, version));
}

std::string AdsSystem::AdValue(int64_t ad) const {
  // "ad-<id>:", then the letter 'A' + (position % 26) up to ad_bytes.
  std::string value = "ad-" + std::to_string(ad) + ":";
  const size_t prefix = value.size();
  value.resize(static_cast<size_t>(config_.ad_bytes));
  char letter = static_cast<char>('A' + prefix % 26);
  for (size_t at = prefix; at < value.size(); ++at) {
    value[at] = letter;
    letter = letter == 'Z' ? 'A' : static_cast<char>(letter + 1);
  }
  return value;
}

void AdsSystem::Preload(KvCluster* cluster) const {
  // Every profile, then every ad.
  const int64_t profiles = config_.num_profiles;
  cluster->Preload(static_cast<size_t>(profiles + config_.num_ads),
                   [this, profiles](size_t i, std::string* key, std::string* value) {
                     const int64_t id = static_cast<int64_t>(i);
                     if (id < profiles) {
                       *key = ProfileKey(id);
                       *value = ProfileValue(id, /*version=*/0);
                     } else {
                       *key = AdKey(id - profiles);
                       *value = AdValue(id - profiles);
                     }
                   });
}

void AdsSystem::FetchAdsByUserId(int64_t uid, bool use_icg,
                                 std::function<void(RefFetchOutcome)> done) {
  fetcher_.Fetch(ProfileKey(uid), use_icg, std::move(done));
}

void AdsSystem::UpdateProfile(int64_t uid, int64_t version, std::function<void(bool)> done) {
  client_->InvokeStrong(Operation::Put(ProfileKey(uid), ProfileValue(uid, version)))
      .SetCallbacks(nullptr, [done](const View<OpResult>&) { done(true); },
                    [done](const Status&) { done(false); });
}

}  // namespace icg
