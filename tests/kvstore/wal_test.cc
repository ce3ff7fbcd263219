// WAL + snapshot durability semantics: append/sync watermarks, crash tail loss, torn
// records and recovery's cut of them, replay after a covered LSN, truncation, the
// snapshot image's layout, load, validation and buffer reuse, and the logs and stores a
// dataset preload leaves on every replica.
#include "src/kvstore/wal.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <iterator>
#include <string>
#include <string_view>
#include <tuple>
#include <utility>
#include <vector>

#include "src/common/digest.h"
#include "src/kvstore/cluster.h"
#include "src/kvstore/kv_store.h"
#include "src/kvstore/partitioner.h"
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

template <typename T>
void Put(std::string& out, T field) {
  char bytes[sizeof field];
  std::memcpy(bytes, &field, sizeof field);
  out.append(bytes, sizeof field);
}

// One record in the wire format wal.h documents, built field by field:
// [u32 len][u64 lsn][i64 ts][i32 writer][u32 klen][u32 vlen][key][value][u64 checksum].
std::string Encode(const Wal::Record& r) {
  std::string payload;
  Put(payload, r.lsn);
  Put(payload, static_cast<int64_t>(r.version.timestamp));
  Put(payload, static_cast<int32_t>(r.version.writer));
  Put(payload, static_cast<uint32_t>(r.key.size()));
  Put(payload, static_cast<uint32_t>(r.value.size()));
  payload += r.key;
  payload += r.value;
  std::string record;
  Put(record, static_cast<uint32_t>(payload.size()));
  record += payload;
  Put(record, Xxh64(payload));
  return record;
}

std::string Encode(const std::vector<Wal::Record>& records) {
  std::string bytes;
  for (const Wal::Record& r : records) {
    bytes += Encode(r);
  }
  return bytes;
}

void ExpectSameRecord(const Wal::Record& actual, const Wal::Record& expected) {
  EXPECT_EQ(actual.lsn, expected.lsn);
  EXPECT_EQ(actual.key, expected.key);
  EXPECT_EQ(actual.value, expected.value);
  EXPECT_EQ(actual.version, expected.version);
}

// The device holds exactly `bytes`, and replay applies exactly `survivors`, then stops
// at a torn record if `torn`.
void ExpectDevice(const Wal& wal, const std::string& bytes,
                  const std::vector<Wal::Record>& survivors, bool torn) {
  EXPECT_TRUE(wal.device() == bytes);  // not EXPECT_EQ: a mismatch would print ~200 KB
  EXPECT_EQ(wal.device_bytes(), static_cast<int64_t>(bytes.size()));
  std::vector<Wal::Record> replayed;
  const auto result = ReplayInto(wal, &replayed);
  EXPECT_EQ(result.torn_tail, torn);
  EXPECT_EQ(result.bytes_scanned, static_cast<int64_t>(Encode(survivors).size()));
  ASSERT_EQ(replayed.size(), survivors.size());
  for (size_t i = 0; i < survivors.size(); ++i) {
    ExpectSameRecord(replayed[i], survivors[i]);
  }
}

// Records of 1 KiB tile the chunks: kTilesPerChunk of them fill one exactly.
constexpr size_t kRecordOverheadBytes = 4 + 8 + 8 + 4 + 4 + 4 + 8;
constexpr size_t kTileBytes = 1024;
static_assert(Wal::kChunkBytes % kTileBytes == 0);
constexpr size_t kTilesPerChunk = Wal::kChunkBytes / kTileBytes;

// Appends a record whose encoding is `bytes` long and returns it.
Wal::Record AppendSized(Wal& wal, size_t bytes = kTileBytes) {
  Wal::Record r;
  r.lsn = wal.next_lsn();
  char key[16];
  std::snprintf(key, sizeof key, "k%07llu", static_cast<unsigned long long>(r.lsn));
  r.key = key;
  r.value.assign(bytes - kRecordOverheadBytes - r.key.size(),
                 static_cast<char>('a' + r.lsn % 26));
  r.version = Version{static_cast<SimTime>(r.lsn * 10), 1};
  EXPECT_EQ(wal.Append(r.key, r.value, r.version), r.lsn);
  return r;
}

// Wal::Crash's torn cut: the device keeps `synced` bytes plus about half of the
// unsynced tail, nudged by the device's last byte.
int64_t TornCut(int64_t synced, const std::string& device) {
  const int64_t tail = static_cast<int64_t>(device.size()) - synced;
  const int64_t keep = tail <= 4 ? tail / 2 : 4 + (tail - 4) / 2 + (device.back() & 0x3);
  return synced + std::min(keep, tail);
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
  wal.Append("key-b", "value-two", Version{2, 3});
  wal.Append("c", "", Version{3, 1});
  const std::string device = wal.device();
  const std::vector<Wal::Record> records = {{1, "a", "1", Version{1, 1}},
                                            {2, "key-b", "value-two", Version{2, 3}},
                                            {3, "c", "", Version{3, 1}}};
  std::vector<size_t> ends;
  for (const Wal::Record& r : records) {
    ends.push_back((ends.empty() ? 0 : ends.back()) + Encode(r).size());
  }
  ASSERT_EQ(ends.back(), device.size());

  // Every single-bit flip — in a length header, a payload field, a key, a value or a
  // checksum — ends replay at the flipped record, after exactly the records before it.
  for (size_t bit = 0; bit < device.size() * 8; ++bit) {
    SCOPED_TRACE(bit);
    std::string flipped = device;
    flipped[bit / 8] = static_cast<char>(flipped[bit / 8] ^ (1 << (bit % 8)));
    const size_t hit = static_cast<size_t>(
        std::upper_bound(ends.begin(), ends.end(), bit / 8) - ends.begin());
    std::vector<Wal::Record> applied;
    const auto result =
        Wal::Replay(flipped, 0, [&applied](const Wal::Record& r) { applied.push_back(r); });
    EXPECT_TRUE(result.torn_tail);
    EXPECT_EQ(result.records, hit);
    EXPECT_EQ(result.bytes_scanned, hit == 0 ? 0 : static_cast<int64_t>(ends[hit - 1]));
    ASSERT_EQ(applied.size(), hit);
    for (size_t i = 0; i < hit; ++i) {
      ExpectSameRecord(applied[i], records[i]);
    }
  }
}

TEST(WalTest, DeviceHoldsTheDocumentedEncoding) {
  Wal wal("w");
  std::string every_byte;
  for (int b = 0; b < 256; ++b) {
    every_byte.push_back(static_cast<char>(b));
  }
  const std::vector<Wal::Record> records = {{1, "a", "1", Version{10, 1}},
                                            {2, "empty", "", Version{-5, 0}},
                                            {3, every_byte, every_byte, Version{30, 7}}};
  std::string expected;
  Wal encoded_once("e");  // the same records, encoded by Wal::Encode and appended as bytes
  for (const Wal::Record& r : records) {
    EXPECT_EQ(wal.Append(r.key, r.value, r.version), r.lsn);
    expected += Encode(r);
    std::string record(Wal::EncodedSize(r.key, r.value), '\0');
    Wal::Encode(record.data(), r.lsn, r.key, r.value, r.version);
    EXPECT_EQ(record, Encode(r));
    EXPECT_EQ(encoded_once.AppendEncoded(record), r.lsn);
  }
  EXPECT_EQ(wal.device(), expected);
  EXPECT_EQ(wal.device_bytes(), static_cast<int64_t>(expected.size()));
  EXPECT_EQ(encoded_once.device(), expected);
  EXPECT_EQ(encoded_once.appended_records(), wal.appended_records());
  EXPECT_EQ(encoded_once.next_lsn(), wal.next_lsn());
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

TEST(WalTest, RecordsTileChunksAndALargerRecordGetsAChunkOfItsOwn) {
  Wal wal("w");
  std::vector<Wal::Record> records;
  for (size_t i = 0; i < 3 * kTilesPerChunk + 5; ++i) {
    records.push_back(AppendSized(wal));
  }
  records.push_back(AppendSized(wal, Wal::kChunkBytes + 3 * kTileBytes + 7));
  records.push_back(AppendSized(wal, 100));
  records.push_back(AppendSized(wal, Wal::kChunkBytes));
  records.push_back(AppendSized(wal));
  EXPECT_EQ(wal.Sync(), SimDuration{0});
  const std::string bytes = Encode(records);
  ExpectDevice(wal, bytes, records, /*torn=*/false);
  EXPECT_EQ(wal.synced_bytes(), static_cast<int64_t>(bytes.size()));
}

TEST(WalTest, CrashCutsAnUnsyncedTailThatStartsInAFreshChunk) {
  for (const bool torn : {false, true}) {
    SCOPED_TRACE(torn);
    Wal wal("w");
    wal.SetFaults(WalFaults{.fsync_latency = 0, .torn_tail = torn});
    std::vector<Wal::Record> records;
    for (size_t i = 0; i < kTilesPerChunk; ++i) {
      records.push_back(AppendSized(wal));
    }
    wal.Sync();
    const int64_t synced = wal.synced_bytes();
    ASSERT_EQ(synced, static_cast<int64_t>(Wal::kChunkBytes));
    for (int i = 0; i < 3; ++i) {
      records.push_back(AppendSized(wal));  // the first chunk is full: a second opens
    }
    const std::string full = wal.device();
    ASSERT_TRUE(full == Encode(records));
    wal.Crash();

    // Untorn, the device ends at the watermark. Torn, it keeps half the tail: the first
    // unsynced record whole and part of the second.
    const int64_t cut = torn ? TornCut(synced, full) : synced;
    std::vector<Wal::Record> survivors(records.begin(),
                                       records.begin() + kTilesPerChunk + (torn ? 1 : 0));
    ExpectDevice(wal, full.substr(0, cut), survivors, torn);
    EXPECT_EQ(wal.synced_bytes(), cut);

    // Recovery cuts the torn record inside the second chunk, and later appends land
    // right after the cut.
    const auto recovered = wal.Recover(0, [](const Wal::Record&) {});
    EXPECT_EQ(recovered.records, survivors.size());
    EXPECT_EQ(recovered.torn_tail, torn);
    const int64_t kept = static_cast<int64_t>(Encode(survivors).size());
    EXPECT_EQ(wal.device_bytes(), kept);
    EXPECT_EQ(wal.synced_bytes(), kept);
    survivors.push_back(AppendSized(wal));
    survivors.push_back(AppendSized(wal, 3 * kTileBytes));
    wal.Sync();
    ExpectDevice(wal, Encode(survivors), survivors, /*torn=*/false);
    EXPECT_EQ(wal.synced_bytes(), wal.device_bytes());
  }
}

TEST(WalTest, RecoverCutsBackAcrossAChunkBoundary) {
  Wal wal("w");
  wal.SetFaults(WalFaults{.fsync_latency = 0, .torn_tail = true});
  std::vector<Wal::Record> records;
  for (size_t i = 0; i < kTilesPerChunk; ++i) {
    records.push_back(AppendSized(wal));
  }
  wal.Sync();
  const int64_t synced = wal.synced_bytes();
  for (size_t i = 0; i < 2 * kTilesPerChunk; ++i) {
    records.push_back(AppendSized(wal));  // fills the second and third chunks
  }
  const std::string full = wal.device();
  wal.Crash();

  // Half of a two-chunk tail: the whole second chunk survives, and the cut lands a few
  // bytes into the third, inside the first record's length header or just past it.
  const int64_t cut = TornCut(synced, full);
  ASSERT_GT(cut, 2 * static_cast<int64_t>(Wal::kChunkBytes));
  ASSERT_LT(cut, 2 * static_cast<int64_t>(Wal::kChunkBytes) + 8);
  std::vector<Wal::Record> survivors(records.begin(), records.begin() + 2 * kTilesPerChunk);
  ExpectDevice(wal, full.substr(0, cut), survivors, /*torn=*/true);
  EXPECT_EQ(wal.synced_bytes(), cut);

  // Recovery cuts back to the end of the second chunk, and the third goes.
  const auto recovered = wal.Recover(0, [](const Wal::Record&) {});
  EXPECT_EQ(recovered.records, survivors.size());
  EXPECT_TRUE(recovered.torn_tail);
  EXPECT_EQ(recovered.last_lsn, survivors.back().lsn);
  EXPECT_EQ(wal.device_bytes(), 2 * static_cast<int64_t>(Wal::kChunkBytes));
  EXPECT_EQ(wal.synced_bytes(), wal.device_bytes());
  ExpectDevice(wal, Encode(survivors), survivors, /*torn=*/false);

  // Later appends land after the cut and survive the next crash once synced.
  survivors.push_back(AppendSized(wal));
  survivors.push_back(AppendSized(wal, 200));
  wal.Sync();
  wal.Crash();
  ExpectDevice(wal, Encode(survivors), survivors, /*torn=*/false);
  EXPECT_EQ(wal.synced_bytes(), wal.device_bytes());
}

TEST(WalTest, TruncateThroughTheMiddleOfTheSecondChunk) {
  Wal wal("w");
  std::vector<Wal::Record> records;
  for (size_t i = 0; i < kTilesPerChunk + kTilesPerChunk / 2; ++i) {
    records.push_back(AppendSized(wal));
  }
  wal.Sync();
  const size_t synced = records.size();
  for (size_t i = 0; i < kTilesPerChunk; ++i) {
    records.push_back(AppendSized(wal));  // unsynced, into the third chunk
  }

  // Through an LSN in the middle of the second chunk: the first chunk goes whole, and
  // the second now starts at the first surviving record.
  const size_t covered = kTilesPerChunk + kTilesPerChunk / 4;
  wal.TruncateThrough(records[covered - 1].lsn);
  EXPECT_EQ(wal.truncated_through(), records[covered - 1].lsn);
  std::vector<Wal::Record> survivors(records.begin() + covered, records.end());
  ExpectDevice(wal, Encode(survivors), survivors, /*torn=*/false);
  EXPECT_EQ(wal.synced_bytes(), static_cast<int64_t>((synced - covered) * kTileBytes));

  // A crash cuts at the watermark inside the truncated chunk, and appends land after it.
  wal.Crash();
  survivors.resize(synced - covered);
  ExpectDevice(wal, Encode(survivors), survivors, /*torn=*/false);
  EXPECT_EQ(wal.synced_bytes(), wal.device_bytes());
  survivors.push_back(AppendSized(wal));
  wal.Sync();
  survivors.push_back(AppendSized(wal));  // unsynced

  // Truncation stops at the watermark even when the LSN covers every record.
  wal.TruncateThrough(wal.next_lsn());
  survivors.erase(survivors.begin(), survivors.end() - 1);
  ExpectDevice(wal, Encode(survivors), survivors, /*torn=*/false);
  EXPECT_EQ(wal.synced_bytes(), 0);
  EXPECT_EQ(wal.unsynced_bytes(), static_cast<int64_t>(kTileBytes));
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
  // An entry count far beyond what the bytes can hold (every entry takes at least 20)
  // fails too, and Load sizes the store for no more entries than the bytes could hold.
  expect_rejected(resealed(8, 100'000, 8));
  {
    KvStore out;
    uint64_t ignored = 0;
    EXPECT_FALSE(SnapshotManager::Load(resealed(8, 100'000, 8), &out, &ignored));
    EXPECT_LE(out.capacity(), image.size() / 20);
  }
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
  // A larger store after a smaller one outgrows the image buffer; a smaller one after a
  // larger one is written over the front of it. Each image stands alone.
  KvStore v1;
  Set(v1, "a", VersionedValue{"old", Version{1, 1}});
  KvStore v2;
  Set(v2, "a", VersionedValue{"new", Version{5, 1}});
  Set(v2, "b", VersionedValue{std::string(300, 'f'), Version{6, 1}});
  KvStore v3;
  Set(v3, "c", VersionedValue{"short", Version{7, 2}});
  SnapshotManager snap("s");
  uint64_t lsn = 0;
  for (const KvStore* store : {&v1, &v2, &v3}) {
    lsn += 3;
    snap.Take(*store, lsn);
    int64_t expected_bytes = 16 + 8;
    for (const auto& [key, vv] : *store) {
      expected_bytes += 20 + static_cast<int64_t>(key.size() + vv.value.size());
    }
    EXPECT_EQ(snap.image_bytes(), expected_bytes);
    KvStore loaded;
    uint64_t through = 0;
    ASSERT_TRUE(snap.Load(&loaded, &through));
    EXPECT_EQ(through, lsn);
    EXPECT_EQ(loaded, *store);
  }
  EXPECT_EQ(snap.snapshots_taken(), 3);
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

// --- Dataset preloading --------------------------------------------------------------

// Record i of a 40-record dataset: three full staged groups and part of a fourth, with an
// empty value, a value larger than a WAL chunk and a key loaded twice.
std::pair<std::string, std::string> DatasetRecord(size_t i) {
  if (i == 11) {
    return {"empty", ""};
  }
  if (i == 20) {
    return {"large", std::string(Wal::kChunkBytes + 6000, 'L')};
  }
  if (i == 33) {
    return {"r5", "r5-again"};  // overwrites record 5 in place
  }
  return {"r" + std::to_string(i), "value-" + std::to_string(i * 7)};
}

struct PreloadWorld {
  PreloadWorld()
      : topology(RttMatrix::Ec2Default()),
        network(&loop, &topology, /*seed=*/1, /*jitter_sigma=*/0.0),
        cluster(&network, &topology, &config,
                {Region::kFrankfurt, Region::kIreland, Region::kVirginia}) {}

  EventLoop loop;
  Topology topology;
  Network network;
  KvConfig config;
  KvCluster cluster;
};

TEST(PreloadTest, BulkLoadEqualsOneRecordAtATime) {
  constexpr size_t kRecords = 40;
  PreloadWorld bulk;
  bulk.cluster.Preload(kRecords, [](size_t i, std::string* key, std::string* value) {
    std::tie(*key, *value) = DatasetRecord(i);
  });
  PreloadWorld single;
  for (size_t i = 0; i < kRecords; ++i) {
    const auto [key, value] = DatasetRecord(i);
    single.cluster.Preload(key, value);
  }

  // The reference: each record stored and logged on each replica in turn, at version
  // {1, primary}, the primary named by the ring over the replicas in cluster order.
  PreloadWorld reference;
  std::vector<NodeId> ids;
  for (const auto& replica : reference.cluster.replicas()) {
    ids.push_back(replica->id());
  }
  const Partitioner ring(ids, /*replication_factor=*/1);
  std::string expected_device;
  for (size_t i = 0; i < kRecords; ++i) {
    const auto [key, value] = DatasetRecord(i);
    const Version version{1, ring.PrimaryFor(key)};
    for (const auto& replica : reference.cluster.replicas()) {
      replica->LocalPut(key, value, version);
    }
    expected_device += Encode(Wal::Record{i + 1, key, value, version});
  }

  for (const PreloadWorld* world : {&bulk, &single}) {
    ASSERT_EQ(world->cluster.replicas().size(), reference.cluster.replicas().size());
    for (size_t r = 0; r < reference.cluster.replicas().size(); ++r) {
      SCOPED_TRACE(testing::Message() << (world == &bulk ? "bulk" : "single") << ", replica " << r);
      KvReplica& got = *world->cluster.replicas()[r];
      KvReplica& want = *reference.cluster.replicas()[r];
      EXPECT_EQ(got.LocalStore(), want.LocalStore());
      EXPECT_TRUE(got.wal()->device() == want.wal()->device());
      EXPECT_TRUE(got.wal()->device() == expected_device);
      EXPECT_EQ(got.wal()->next_lsn(), kRecords + 1);
      EXPECT_EQ(got.wal()->next_lsn(), want.wal()->next_lsn());
      EXPECT_EQ(got.wal()->appended_records(), want.wal()->appended_records());
      EXPECT_EQ(got.wal()->syncs(), want.wal()->syncs());
      EXPECT_EQ(got.wal()->synced_bytes(), want.wal()->synced_bytes());
    }
  }

  // The repeated key kept its first position and took its second value.
  const KvStore& store = bulk.cluster.replicas()[0]->LocalStore();
  EXPECT_EQ(store.size(), kRecords - 1);
  EXPECT_EQ(std::next(store.begin(), 5)->first, "r5");
  EXPECT_EQ(std::next(store.begin(), 5)->second.value, "r5-again");
}

}  // namespace
}  // namespace icg
