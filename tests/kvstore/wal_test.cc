// WAL + snapshot durability semantics: append/sync watermarks, crash tail loss, torn
// records and recovery's cut of them, replay after a covered LSN, truncation, and the
// snapshot image's layout, load and validation.
#include "src/kvstore/wal.h"

#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <string_view>
#include <vector>

#include "src/common/digest.h"
#include "src/kvstore/kv_store.h"
#include "src/kvstore/snapshot.h"
#include "src/kvstore/versioned_value.h"

namespace icg {
namespace {

void Set(KvStore& store, std::string_view key, VersionedValue vv) {
  *store.TryEmplace(key).first = std::move(vv);
}

Wal::ReplayResult ReplayInto(const Wal& wal, std::vector<Wal::Record>* out,
                             uint64_t from_lsn = 0) {
  return wal.Replay(from_lsn, [out](const Wal::Record& r) { out->push_back(r); });
}

TEST(WalTest, AppendAssignsIncreasingLsns) {
  Wal wal("w");
  EXPECT_EQ(wal.Append("a", "1", Version{10, 1}), 1u);
  EXPECT_EQ(wal.Append("b", "2", Version{20, 1}), 2u);
  EXPECT_EQ(wal.Append("c", "3", Version{30, 2}), 3u);
  EXPECT_EQ(wal.next_lsn(), 4u);
  EXPECT_EQ(wal.appended_records(), 3);
}

TEST(WalTest, ReplayReturnsRecordsInAppendOrder) {
  Wal wal("w");
  wal.Append("a", "1", Version{10, 1});
  wal.Append("b", "22", Version{20, 3});
  wal.Sync();
  std::vector<Wal::Record> records;
  const auto result = ReplayInto(wal, &records);
  ASSERT_EQ(result.records, 2u);
  EXPECT_EQ(result.last_lsn, 2u);
  EXPECT_FALSE(result.torn_tail);
  EXPECT_EQ(records[0].key, "a");
  EXPECT_EQ(records[0].value, "1");
  EXPECT_EQ(records[0].version, (Version{10, 1}));
  EXPECT_EQ(records[1].key, "b");
  EXPECT_EQ(records[1].value, "22");
  EXPECT_EQ(records[1].version, (Version{20, 3}));
}

TEST(WalTest, SyncAdvancesWatermarkAndChargesConfiguredLatency) {
  Wal wal("w");
  wal.SetFaults(WalFaults{.fsync_latency = Micros(150), .torn_tail = false});
  wal.Append("a", "1", Version{1, 1});
  EXPECT_GT(wal.unsynced_bytes(), 0);
  EXPECT_EQ(wal.Sync(), Micros(150));
  EXPECT_EQ(wal.unsynced_bytes(), 0);
  EXPECT_EQ(wal.synced_bytes(), wal.device_bytes());
  // An empty sync is free regardless of the configured latency: nothing to flush.
  EXPECT_EQ(wal.Sync(), SimDuration{0});
  EXPECT_EQ(wal.syncs(), 1);
}

TEST(WalTest, CrashDropsUnsyncedTail) {
  Wal wal("w");
  wal.Append("durable", "v", Version{1, 1});
  wal.Sync();
  wal.Append("lost", "v", Version{2, 1});  // never synced
  wal.Crash();
  std::vector<Wal::Record> records;
  const auto result = ReplayInto(wal, &records);
  EXPECT_EQ(result.records, 1u);
  EXPECT_FALSE(result.torn_tail);
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].key, "durable");
}

TEST(WalTest, TornTailFaultLeavesInvalidPartialRecord) {
  Wal wal("w");
  wal.SetFaults(WalFaults{.fsync_latency = 0, .torn_tail = true});
  wal.Append("durable", "v", Version{1, 1});
  wal.Sync();
  wal.Append("torn", "vvvvvvvv", Version{2, 1});
  const int64_t synced_before = wal.synced_bytes();
  const int64_t full = wal.device_bytes();
  wal.Crash();
  // A strict partial prefix of the unsynced record survived on the device (everything
  // still on the medium counts as synced after the crash — it IS the disk contents)...
  EXPECT_GT(wal.device_bytes(), synced_before);
  EXPECT_LT(wal.device_bytes(), full);
  // ...and replay rejects it without losing the synced record before it.
  std::vector<Wal::Record> records;
  const auto result = ReplayInto(wal, &records);
  EXPECT_EQ(result.records, 1u);
  EXPECT_TRUE(result.torn_tail);
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].key, "durable");
}

TEST(WalTest, TornTailCutIsDeterministic) {
  auto run = [] {
    Wal wal("w");
    wal.SetFaults(WalFaults{.fsync_latency = 0, .torn_tail = true});
    wal.Append("k1", "value-one", Version{1, 1});
    wal.Sync();
    wal.Append("k2", "value-two", Version{2, 1});
    wal.Crash();
    return wal.device_bytes();
  };
  EXPECT_EQ(run(), run());
}

TEST(WalTest, CorruptedByteFailsChecksumAndEndsReplay) {
  Wal wal("w");
  wal.Append("a", "1", Version{1, 1});
  wal.Append("b", "2", Version{2, 1});
  wal.Sync();
  // Corrupt the second record through the torn-tail machinery's replay validation by
  // replaying a device whose tail was cut mid-record: truncate-by-hand via a fresh WAL
  // is not exposed, so corrupt by crashing with a partial unsynced third record.
  wal.SetFaults(WalFaults{.fsync_latency = 0, .torn_tail = true});
  wal.Append("c", "3", Version{3, 1});
  wal.Crash();
  std::vector<Wal::Record> records;
  const auto result = ReplayInto(wal, &records);
  EXPECT_EQ(result.records, 2u);
  EXPECT_TRUE(result.torn_tail);
  EXPECT_EQ(result.last_lsn, 2u);
}

TEST(WalTest, ReplayFromLsnSkipsCoveredRecords) {
  Wal wal("w");
  wal.Append("a", "1", Version{1, 1});
  wal.Append("b", "2", Version{2, 1});
  wal.Append("c", "3", Version{3, 1});
  wal.Sync();
  std::vector<Wal::Record> records;
  const auto result = ReplayInto(wal, &records, /*from_lsn=*/2);
  EXPECT_EQ(result.records, 1u);
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].key, "c");
  EXPECT_EQ(records[0].lsn, 3u);
}

TEST(WalTest, TruncateThroughDropsPrefixAndPreservesSuffix) {
  Wal wal("w");
  wal.Append("a", "1", Version{1, 1});
  wal.Append("b", "2", Version{2, 1});
  wal.Append("c", "3", Version{3, 1});
  wal.Sync();
  const int64_t before = wal.device_bytes();
  wal.TruncateThrough(2);
  EXPECT_LT(wal.device_bytes(), before);
  EXPECT_EQ(wal.truncated_through(), 2u);
  std::vector<Wal::Record> records;
  const auto result = ReplayInto(wal, &records, /*from_lsn=*/2);
  EXPECT_EQ(result.records, 1u);
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].key, "c");
}

TEST(WalTest, CrashThenMoreAppendsKeepsLsnMonotone) {
  Wal wal("w");
  wal.Append("a", "1", Version{1, 1});
  wal.Sync();
  wal.Append("lost", "x", Version{2, 1});
  wal.Crash();
  // The restarted writer continues from the in-memory LSN counter: LSNs never repeat
  // even though record 2's bytes died with the tail.
  const uint64_t lsn = wal.Append("b", "2", Version{3, 1});
  EXPECT_GT(lsn, 2u);
  wal.Sync();
  std::vector<Wal::Record> records;
  const auto result = ReplayInto(wal, &records);
  EXPECT_EQ(result.records, 2u);
  EXPECT_EQ(records[0].key, "a");
  EXPECT_EQ(records[1].key, "b");
}

TEST(WalTest, RecoveryCutsTornTailSoLaterAppendsSurvive) {
  Wal wal("w");
  wal.SetFaults(WalFaults{.fsync_latency = 0, .torn_tail = true});
  wal.Append("a", "1", Version{1, 1});
  wal.Sync();
  const int64_t valid_bytes = wal.device_bytes();
  wal.Append("b", "2", Version{2, 1});  // torn by the crash
  wal.Crash();
  ASSERT_GT(wal.device_bytes(), valid_bytes);
  std::vector<Wal::Record> records;
  const auto recovered =
      wal.Recover(0, [&records](const Wal::Record& r) { records.push_back(r); });
  EXPECT_EQ(recovered.records, 1u);
  EXPECT_TRUE(recovered.torn_tail);
  EXPECT_EQ(wal.device_bytes(), valid_bytes);
  EXPECT_EQ(wal.synced_bytes(), valid_bytes);

  // A synced (hence acknowledgeable) record appended after recovery survives the next
  // crash, and truncation walks whole records.
  const uint64_t c_lsn = wal.Append("c", "3", Version{3, 1});
  wal.Sync();
  wal.Crash();
  records.clear();
  const auto result = ReplayInto(wal, &records);
  EXPECT_FALSE(result.torn_tail);
  ASSERT_EQ(records.size(), 2u);
  EXPECT_EQ(records[0].key, "a");
  EXPECT_EQ(records[1].key, "c");
  wal.TruncateThrough(c_lsn);
  EXPECT_EQ(wal.device_bytes(), 0);
  EXPECT_EQ(wal.synced_bytes(), 0);
}

TEST(SnapshotTest, LoadRoundTripsStorageAndCoveredLsn) {
  SnapshotManager snap("s");
  EXPECT_FALSE(snap.HasSnapshot());
  std::string every_byte;
  for (int b = 0; b < 256; ++b) {
    every_byte.push_back(static_cast<char>(b));
  }
  KvStore storage;
  Set(storage, "a", VersionedValue{"1", Version{10, 1}});
  Set(storage, "b", VersionedValue{"two", Version{20, 2}});
  Set(storage, "empty", VersionedValue{"", Version{30, 3}});
  Set(storage, "bytes", VersionedValue{every_byte, Version{40, 1}});
  Set(storage, "a-key-longer-than-an-inline-string", VersionedValue{"v", Version{50, 2}});
  snap.Take(storage, /*through_lsn=*/7);
  EXPECT_TRUE(snap.HasSnapshot());
  EXPECT_EQ(snap.covered_lsn(), 7u);
  EXPECT_EQ(snap.snapshots_taken(), 1);

  // The layout snapshot.h documents: a 16-byte header, a 20-byte header per record, the
  // key and value bytes, and the 8-byte checksum of everything before it.
  int64_t expected_bytes = 16 + 8;
  for (const auto& [key, vv] : storage) {
    expected_bytes += 20 + static_cast<int64_t>(key.size() + vv.value.size());
  }
  EXPECT_EQ(snap.image_bytes(), expected_bytes);
  const std::string_view image = snap.image();
  uint64_t checksum = 0;
  std::memcpy(&checksum, image.data() + image.size() - 8, 8);
  EXPECT_EQ(checksum, Xxh64(image.substr(0, image.size() - 8)));

  KvStore loaded;
  uint64_t through = 0;
  ASSERT_TRUE(snap.Load(&loaded, &through));
  EXPECT_EQ(through, 7u);
  EXPECT_EQ(loaded, storage);
}

TEST(SnapshotTest, LoadRejectsCorruptOrTruncatedImages) {
  SnapshotManager snap("s");
  KvStore storage;
  Set(storage, "key", VersionedValue{"value", Version{10, 1}});
  Set(storage, "k2", VersionedValue{"v2", Version{20, 2}});
  snap.Take(storage, /*through_lsn=*/7);
  const std::string image(snap.image());
  auto expect_rejected = [](std::string_view bytes) {
    KvStore out;
    Set(out, "stale", VersionedValue{"x", Version{1, 1}});
    uint64_t through = 99;
    EXPECT_FALSE(SnapshotManager::Load(bytes, &out, &through));
    EXPECT_TRUE(out.empty());
    EXPECT_EQ(through, 0u);
  };

  // Every single-bit flip — in the header, a record header, a key, a value or the
  // checksum itself — fails the checksum.
  for (size_t bit = 0; bit < image.size() * 8; ++bit) {
    SCOPED_TRACE(bit);
    std::string flipped = image;
    flipped[bit / 8] = static_cast<char>(flipped[bit / 8] ^ (1 << (bit % 8)));
    expect_rejected(flipped);
  }
  // So does every truncation, down to images too short to hold a header and checksum.
  for (size_t size = 0; size < image.size(); ++size) {
    SCOPED_TRACE(size);
    expect_rejected(std::string_view(image).substr(0, size));
  }

  // Images whose checksum matches but whose records do not fill the body exactly.
  auto resealed = [&image](size_t at, uint64_t field, size_t width) {
    std::string bytes = image;
    std::memcpy(bytes.data() + at, &field, width);
    const uint64_t checksum = Xxh64(std::string_view(bytes).substr(0, bytes.size() - 8));
    std::memcpy(bytes.data() + bytes.size() - 8, &checksum, 8);
    return bytes;
  };
  expect_rejected(resealed(8, 3, 8));           // one entry more than the records
  expect_rejected(resealed(8, 1, 8));           // trailing bytes after the last record
  expect_rejected(resealed(16 + 12, 1000, 4));  // the first key runs past the body
  KvStore loaded;
  uint64_t through = 0;
  EXPECT_TRUE(SnapshotManager::Load(resealed(0, 7, 8), &loaded, &through));
  EXPECT_EQ(loaded, storage);
}

TEST(SnapshotTest, LoadWithoutSnapshotReturnsFalse) {
  SnapshotManager snap("s");
  KvStore loaded;
  uint64_t through = 99;
  EXPECT_FALSE(snap.Load(&loaded, &through));
  EXPECT_TRUE(loaded.empty());
  EXPECT_EQ(through, 0u);
}

TEST(SnapshotTest, TakeReplacesPreviousSnapshotAtomically) {
  SnapshotManager snap("s");
  KvStore v1;
  Set(v1, "a", VersionedValue{"old", Version{1, 1}});
  snap.Take(v1, 3);
  KvStore v2;
  Set(v2, "a", VersionedValue{"new", Version{5, 1}});
  Set(v2, "b", VersionedValue{"fresh", Version{6, 1}});
  snap.Take(v2, 9);
  EXPECT_EQ(snap.snapshots_taken(), 2);

  KvStore loaded;
  uint64_t through = 0;
  ASSERT_TRUE(snap.Load(&loaded, &through));
  EXPECT_EQ(through, 9u);
  EXPECT_EQ(loaded, v2);
}

TEST(SnapshotTest, SnapshotPlusReplayRebuildsExactState) {
  // The recovery composition the replica uses: snapshot covers a prefix, replay covers
  // the synced suffix, LWW application makes any overlap harmless.
  Wal wal("w");
  SnapshotManager snap("s");
  KvStore storage;
  auto put = [&](const std::string& key, const std::string& value, Version version) {
    wal.Append(key, value, version);
    Set(storage, key, VersionedValue{value, version});
  };
  put("a", "1", Version{10, 1});
  put("b", "2", Version{20, 1});
  wal.Sync();
  snap.Take(storage, /*through_lsn=*/2);
  wal.TruncateThrough(2);
  put("a", "1b", Version{30, 1});
  put("c", "3", Version{40, 1});
  wal.Sync();
  const KvStore expected = storage;  // every synced put survives the crash
  put("lost", "x", Version{50, 1});  // unsynced: dies with the crash
  wal.Crash();

  KvStore rebuilt;
  uint64_t through = 0;
  ASSERT_TRUE(snap.Load(&rebuilt, &through));
  const auto replay = wal.Replay(through, [&](const Wal::Record& r) {
    const auto [stored, inserted] = rebuilt.TryEmplace(r.key);
    if (inserted || stored->OlderThan(r.version)) {
      *stored = VersionedValue{r.value, r.version};
    }
  });
  EXPECT_EQ(replay.records, 2u);
  // Same entries in the same (first-insertion) order.
  EXPECT_EQ(rebuilt, expected);
}

}  // namespace
}  // namespace icg
