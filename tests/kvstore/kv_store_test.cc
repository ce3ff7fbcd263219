// KvStore: lookups through index growth, overwrite-in-place, first-insertion iteration
// order, absent keys (empty store, after clear(), inside a probe run), string_view
// lookups, batched lookups (FindMany) and bulk loads (Reserve, hashed inserts).
#include "src/kvstore/kv_store.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <iterator>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace icg {
namespace {

void Set(KvStore& store, std::string_view key, VersionedValue vv) {
  *store.TryEmplace(key).first = std::move(vv);
}

// `count` keys whose hashes share their low 16 bits, so they share a home slot at every
// index size up to 65536 slots and fill one contiguous probe run.
std::vector<std::string> CollidingKeys(size_t count) {
  std::vector<std::string> colliding;
  const uint64_t home = std::hash<std::string_view>{}("seed") & 0xffff;
  for (int i = 0; colliding.size() < count; ++i) {
    std::string key = "c" + std::to_string(i);
    if ((std::hash<std::string_view>{}(key) & 0xffff) == home) {
      colliding.push_back(std::move(key));
    }
  }
  return colliding;
}

std::vector<std::string> Keys(const KvStore& store) {
  std::vector<std::string> keys;
  for (const auto& [key, vv] : store) {
    keys.push_back(key);
  }
  return keys;
}

TEST(KvStoreTest, GrowsThroughManyDoublings) {
  constexpr int kKeys = 200'000;
  KvStore store;
  for (int i = 0; i < kKeys; ++i) {
    const auto [stored, inserted] = store.TryEmplace("key" + std::to_string(i));
    ASSERT_TRUE(inserted) << i;
    *stored = VersionedValue{"v" + std::to_string(i), Version{i + 1, 1}};
  }
  EXPECT_EQ(store.size(), static_cast<size_t>(kKeys));
  for (int i = 0; i < kKeys; ++i) {
    const VersionedValue* found = store.Find("key" + std::to_string(i));
    ASSERT_NE(found, nullptr) << i;
    EXPECT_EQ(found->value, "v" + std::to_string(i));
    EXPECT_EQ(found->version, (Version{i + 1, 1}));
  }
  EXPECT_EQ(store.Find("key" + std::to_string(kKeys)), nullptr);
}

TEST(KvStoreTest, OverwriteKeepsSizeAndPosition) {
  KvStore store;
  Set(store, "a", VersionedValue{"1", Version{1, 1}});
  Set(store, "b", VersionedValue{"2", Version{2, 1}});
  Set(store, "c", VersionedValue{"3", Version{3, 1}});
  const auto [stored, inserted] = store.TryEmplace("b");
  EXPECT_FALSE(inserted);
  EXPECT_EQ(stored->value, "2");
  *stored = VersionedValue{"2b", Version{4, 1}};
  EXPECT_EQ(store.size(), 3u);
  EXPECT_EQ(Keys(store), (std::vector<std::string>{"a", "b", "c"}));
  EXPECT_EQ(std::next(store.begin())->second.value, "2b");
}

TEST(KvStoreTest, IterationFollowsFirstInsertion) {
  KvStore store;
  const std::vector<std::string> order = {"m", "z", "a", "q", "b", "y"};
  for (const auto& key : order) {
    Set(store, key, VersionedValue{key, Version{1, 1}});
  }
  Set(store, "a", VersionedValue{"again", Version{2, 1}});  // not a second insertion
  EXPECT_EQ(Keys(store), order);
}

TEST(KvStoreTest, AbsentKeysFindNothing) {
  KvStore store;
  EXPECT_EQ(store.Find("k"), nullptr);
  EXPECT_TRUE(store.empty());

  Set(store, "k", VersionedValue{"v", Version{1, 1}});
  ASSERT_NE(store.Find("k"), nullptr);
  store.clear();
  EXPECT_EQ(store.Find("k"), nullptr);
  EXPECT_TRUE(store.empty());
  EXPECT_TRUE(store.TryEmplace("k").second);  // usable again after clear()
}

TEST(KvStoreTest, AbsentKeyInsideADenseProbeRun) {
  // A key with the same low hash bits as a dense probe run that was never inserted must
  // walk the whole run and come back empty.
  std::vector<std::string> colliding = CollidingKeys(12);
  const std::string absent = colliding.back();
  colliding.pop_back();

  KvStore store;
  for (size_t i = 0; i < colliding.size(); ++i) {
    Set(store, colliding[i], VersionedValue{std::to_string(i), Version{1, 1}});
  }
  EXPECT_EQ(store.Find(absent), nullptr);
  for (size_t i = 0; i < colliding.size(); ++i) {
    const VersionedValue* found = store.Find(colliding[i]);
    ASSERT_NE(found, nullptr) << colliding[i];
    EXPECT_EQ(found->value, std::to_string(i));
  }
}

TEST(KvStoreTest, FindsByStringView) {
  KvStore store;
  Set(store, "profile:42", VersionedValue{"v", Version{1, 1}});
  const std::string buffer = "xxprofile:42yy";
  const std::string_view view = std::string_view(buffer).substr(2, 10);
  const VersionedValue* found = store.Find(view);
  ASSERT_NE(found, nullptr);
  EXPECT_EQ(found->value, "v");
  EXPECT_FALSE(store.TryEmplace(view).second);
  EXPECT_EQ(store.Find(std::string_view(buffer).substr(2, 9)), nullptr);  // "profile:4"
}

TEST(KvStoreTest, FindManyMatchesFind) {
  std::vector<std::string> colliding = CollidingKeys(12);
  const std::string absent_in_run = colliding.back();
  colliding.pop_back();

  KvStore store;
  for (int i = 0; i < 5000; ++i) {  // grows the index from 16 to 8192 slots
    Set(store, "key" + std::to_string(i), VersionedValue{"v" + std::to_string(i), Version{i, 1}});
  }
  for (size_t i = 0; i < colliding.size(); ++i) {
    Set(store, colliding[i], VersionedValue{std::to_string(i), Version{1, 1}});
  }
  Set(store, "empty-value", VersionedValue{"", Version{1, 1}});

  // Present and absent keys interleaved, a dense probe run and the absent key inside it,
  // duplicates and an empty value: several groups' worth.
  std::vector<std::string> mixed;
  for (int i = 0; i < 40; ++i) {
    mixed.push_back("key" + std::to_string(i * 97));
    mixed.push_back("absent" + std::to_string(i));
  }
  mixed.insert(mixed.end(), colliding.begin(), colliding.end());
  mixed.push_back(absent_in_run);
  mixed.push_back("key0");
  mixed.push_back("key0");
  mixed.push_back("empty-value");

  const std::vector<std::vector<std::string>> batches = {
      {}, {"key1"}, {"absent"}, {absent_in_run}, {"key7", "key7", "key7"}, mixed};
  const VersionedValue untouched;
  for (const auto& keys : batches) {
    std::vector<const VersionedValue*> out(keys.size(), &untouched);
    store.FindMany(keys, out);
    for (size_t i = 0; i < keys.size(); ++i) {
      EXPECT_EQ(out[i], store.Find(keys[i])) << keys[i];
    }
  }
  std::vector<const VersionedValue*> out(mixed.size());
  store.FindMany(mixed, out);
  EXPECT_EQ(out.front()->value, "v0");
  EXPECT_EQ(out[1], nullptr);
}

TEST(KvStoreTest, ReserveChangesNoLookupOrOrder) {
  // Dense probe runs of colliding keys interleaved with ordinary keys, so runs cross,
  // then an overwrite of an early key.
  const std::vector<std::string> colliding = CollidingKeys(30);
  std::vector<std::string> keys;
  for (size_t i = 0; i < 300; ++i) {
    keys.push_back(i % 10 == 0 ? colliding[i / 10] : "key" + std::to_string(i));
  }
  keys.push_back(keys[3]);

  // Reserve on an empty store and on one already holding half the keys, for fewer and
  // for more entries than then arrive, against a store never reserved.
  for (const size_t before : {size_t{0}, size_t{150}}) {
    for (const size_t reserved : {size_t{20}, size_t{1000}}) {
      SCOPED_TRACE(testing::Message() << before << " before, " << reserved << " reserved");
      KvStore plain;
      KvStore bulk;
      for (size_t i = 0; i < keys.size(); ++i) {
        if (i == before) {
          bulk.Reserve(bulk.size() + reserved);
          EXPECT_GE(bulk.capacity(), bulk.size() + reserved);
        }
        const VersionedValue vv{"v" + std::to_string(i), Version{static_cast<SimTime>(i), 1}};
        *plain.TryEmplace(keys[i]).first = vv;
        const uint64_t hash = KvStore::Hash(keys[i]);
        bulk.PrefetchSlot(hash);
        *bulk.TryEmplace(keys[i], hash).first = vv;
      }
      EXPECT_EQ(Keys(bulk), Keys(plain));
      EXPECT_EQ(bulk, plain);
      for (const std::string& key : {keys[0], keys[3], keys[150], keys[299], colliding[29],
                                     std::string("absent")}) {
        const VersionedValue* found = bulk.Find(key);
        const VersionedValue* expected = plain.Find(key);
        ASSERT_EQ(found == nullptr, expected == nullptr) << key;
        if (found != nullptr) {
          EXPECT_EQ(*found, *expected) << key;
        }
      }
    }
  }
}

TEST(KvStoreTest, ReservedEntriesArriveWithoutGrowth) {
  KvStore store;
  store.Reserve(1000);
  const size_t capacity = store.capacity();
  EXPECT_GE(capacity, 1000u);
  for (int i = 0; i < 1000; ++i) {
    Set(store, "key" + std::to_string(i), VersionedValue{"v", Version{1, 1}});
  }
  EXPECT_EQ(store.capacity(), capacity);
  store.Reserve(10);  // never shrinks
  EXPECT_EQ(store.capacity(), capacity);
}

}  // namespace
}  // namespace icg
