// Snapshot manager for a replica's LWW store, paired with the WAL.
//
// A snapshot is a checksummed serialization of the whole versioned key-value store plus
// the LSN of the last WAL record it covers. The image lists entries in store order (the
// KvStore's first-insertion order), so loading it rebuilds the same iteration order.
// Like the WAL device, the snapshot "file" is a byte buffer that survives
// KvReplica::Crash(). Writing is modeled as atomic (write-temp-then-rename in a real
// system): a snapshot either exists completely and validates, or the previous one still
// does — there is no torn-snapshot state. Take writes each image over the previous
// one's buffer, and allocates a new buffer only when the store outgrew the old one, so a
// replica never holds two images and the copy writes into pages it already touched. The
// overwrite keeps the model atomic because Take is one synchronous step in virtual
// time: no crash, read or event runs between its first byte and its last, so nothing
// can see a half-written image.
//
// Image layout (integers little-endian, fixed width):
//
//   [u64 covered_lsn][u64 entries]
//   entries x ([i64 version.timestamp][i32 version.writer][u32 key_len][u32 value_len]
//              [key bytes][value bytes])
//   [u64 xxh64(everything before it)]
//
// so an image is exactly 24 + sum(20 + |key| + |value|) bytes. Take sums that size over
// the store first, allocates the image once at that size, uninitialized (a std::string
// would zero-fill it first), and copies every record straight into it, so each byte is
// written once and nothing doubles or is copied again. The checksum is Xxh64
// (src/common/digest.h), which hashes the image a word at a time: a snapshot of a
// 100k-entry store is a ~13 MB image, and byte-serial FNV-1a took longer over it than
// building it did.
//
// Recovery order is the classical one: load the newest valid snapshot, then replay the
// WAL strictly after its covered LSN. After a snapshot is taken the WAL prefix it
// covers is truncated, which bounds both replay time and device growth. Cadence is
// driven by the replica (KvConfig::snapshot_every appended records; 0 disables
// snapshots entirely, keeping the default timeline untouched).
#ifndef ICG_KVSTORE_SNAPSHOT_H_
#define ICG_KVSTORE_SNAPSHOT_H_

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>

#include "src/common/types.h"
#include "src/kvstore/kv_store.h"

namespace icg {

class SnapshotManager {
 public:
  explicit SnapshotManager(std::string name) : name_(std::move(name)) {}

  // Serializes `storage` and records that WAL records with lsn <= through_lsn are
  // covered. Atomic: replaces any previous snapshot, writing over its buffer when it
  // is large enough, so a view from image() is valid only until the next Take.
  void Take(const KvStore& storage, uint64_t through_lsn);

  // Loads the snapshot into `out` (replacing its contents) and reports the covered
  // LSN. Returns false — leaving `out` empty and `through_lsn` 0 — when no snapshot
  // exists or the image does not validate.
  bool Load(KvStore* out, uint64_t* through_lsn) const {
    return Load(image(), out, through_lsn);
  }
  // The same for an image given as bytes. It validates when it is at least 24 bytes,
  // its checksum matches and its records fill it exactly. `out` is sized once for the
  // image's entry count, capped by what the image's bytes can hold.
  static bool Load(std::string_view image, KvStore* out, uint64_t* through_lsn);

  bool HasSnapshot() const { return image_size_ != 0; }

  // --- Observability -------------------------------------------------------------------
  std::string_view image() const { return {image_.get(), image_size_}; }
  int64_t snapshots_taken() const { return snapshots_taken_; }
  int64_t image_bytes() const { return static_cast<int64_t>(image_size_); }
  uint64_t covered_lsn() const { return covered_lsn_; }
  const std::string& name() const { return name_; }

 private:
  std::string name_;
  std::unique_ptr<char[]> image_;  // the simulated snapshot file (atomic replace on Take)
  size_t image_size_ = 0;          // the image's bytes: a prefix of the buffer
  size_t image_capacity_ = 0;      // the buffer's size
  uint64_t covered_lsn_ = 0;
  int64_t snapshots_taken_ = 0;
};

}  // namespace icg

#endif  // ICG_KVSTORE_SNAPSHOT_H_
