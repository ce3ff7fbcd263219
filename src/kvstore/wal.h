// Per-replica write-ahead log over a simulated storage device.
//
// The "device" is memory that survives KvReplica::Crash() — the moral equivalent of the
// disk outliving the process in a kill -9. Appends land on the device immediately but
// only become *durable* once Sync() advances the synced watermark (fsync). A crash
// discards the unsynced tail; with torn-tail faults enabled, a deterministic prefix of
// that tail survives and its last record is torn, exactly like a real log whose last
// sectors made it to the platter and whose next one did not.
//
// Record wire format (all integers little-endian, fixed width):
//
//   [u32 payload_len][u64 lsn][i64 version.timestamp][i32 version.writer]
//   [u32 key_len][u32 value_len][key bytes][value bytes][u64 xxh64(payload)]
//
// `payload_len` counts everything between itself and the trailing checksum. The
// checksum is Xxh64 (src/common/digest.h), which hashes the payload a word at a time:
// every preloaded key is logged on every replica, so it runs over every byte a preload
// writes. Replay validates both the length header (against the remaining device bytes)
// and the checksum; the first violation ends replay cleanly — by construction only
// unsynced (hence unacknowledged) records can be torn, so stopping there never loses an
// acknowledged write. Recover() then cuts the device after the last valid record, so a
// torn fragment never outlives the recovery that found it. Records apply under LWW, so
// replaying a record that is also covered by a snapshot (or re-replaying the whole log)
// is idempotent: zero duplication by version comparison, not by replay bookkeeping.
//
// The device is a sequence of fixed-size chunks (kChunkBytes), like the segments of a
// commit log. Append writes each record once into the tail chunk, and opens a new chunk,
// allocated without zero-fill, when the record does not fit; a record larger than a
// chunk gets an exact-size chunk of its own. No record straddles two chunks, so the
// device never doubles and no byte is copied after it is written. Read in order, the
// chunks hold exactly the bytes one contiguous log would: device_bytes(),
// synced_bytes() and every cut are offsets into that logical byte sequence.
// TruncateThrough frees the chunks a snapshot covers and advances an offset into the
// first surviving one; nothing is moved.
//
// Determinism: the device is plain memory, Sync's latency is a fixed configured
// duration charged on the caller's service queue, and the torn-tail cut point is a pure
// function of the unsynced tail's length and last byte (see Crash) — no entropy, so
// crash trials fingerprint identically at every LoopGroup width. That last byte is the
// last record's top checksum byte, so the checksum is part of the cut: changing it moves
// every torn-tail crash trial.
#ifndef ICG_KVSTORE_WAL_H_
#define ICG_KVSTORE_WAL_H_

#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <string>
#include <string_view>

#include "src/common/types.h"

namespace icg {

// Fault injection for the simulated device (the ICG_WAL_FAULTS sweep in CI).
struct WalFaults {
  // Extra service time a Sync() costs (slow fsync). 0 keeps appends free, which is what
  // keeps the default configuration bit-identical to the pre-durability timeline.
  SimDuration fsync_latency = 0;
  // On crash, keep a deterministic prefix of the unsynced tail instead of dropping the
  // tail at the sync watermark (torn write).
  bool torn_tail = false;
};

class Wal {
 public:
  // Capacity of a device chunk, chosen by measuring peak RSS on the benchmark's four
  // workloads with chunks of 16 KiB to 1 MiB: 64 KiB read lowest, or within 0.1 MB of
  // it, on three of them. It sits below glibc's default mmap threshold (128 KiB), so
  // chunks come from the heap and truncation returns them to its free lists.
  static constexpr size_t kChunkBytes = size_t{64} << 10;

  struct Record {
    uint64_t lsn = 0;
    std::string key;
    std::string value;
    Version version;
  };

  struct ReplayResult {
    uint64_t records = 0;        // records handed to the apply callback
    uint64_t last_lsn = 0;       // highest LSN applied (0 if none)
    bool torn_tail = false;      // replay ended at a torn/corrupt record
    int64_t bytes_scanned = 0;   // end of the last valid record
  };

  explicit Wal(std::string name) : name_(std::move(name)) {}

  void SetFaults(WalFaults faults) { faults_ = faults; }
  const WalFaults& faults() const { return faults_; }

  // Appends one record to the device. NOT durable until the next Sync().
  // Returns the record's LSN (strictly increasing from 1).
  uint64_t Append(std::string_view key, std::string_view value, const Version& version);

  // Makes every appended byte durable and returns the fsync latency the caller must
  // charge (on its service queue) before acknowledging anything covered by this sync.
  SimDuration Sync();

  // Crash simulation: the unsynced tail is lost. With torn_tail faults, the device
  // keeps the synced bytes plus about half of the unsynced tail:
  //
  //   keep = tail <= 4 ? tail / 2 : 4 + (tail - 4) / 2 + (last device byte & 0x3)
  //
  // The cut halves the *whole* tail, so when it holds several records the earlier ones
  // can survive intact; the record the cut lands in is torn, fails validation on
  // replay, and stays on the device until Recover() cuts it.
  void Crash();

  // Replays every valid record in append order, handing each to `apply` (LWW makes the
  // callback idempotent). Starts after `from_lsn` (records with lsn <= from_lsn are
  // skipped — they are covered by a snapshot). Stops cleanly at the first length or
  // checksum violation.
  ReplayResult Replay(uint64_t from_lsn,
                      const std::function<void(const Record&)>& apply) const;
  // The same over `bytes`, a run of records in the wire format. Replay runs it over each
  // chunk in turn; `torn_tail` is set exactly when the records do not fill `bytes`.
  static ReplayResult Replay(std::string_view bytes, uint64_t from_lsn,
                             const std::function<void(const Record&)>& apply);

  // Recovery after Crash(): Replay, then cut the device at the end of the last valid
  // record, dropping a torn fragment. Without the cut, records appended after recovery
  // would lie behind the fragment, where the next Replay never reaches them and
  // TruncateThrough would misread the fragment's length header.
  ReplayResult Recover(uint64_t from_lsn, const std::function<void(const Record&)>& apply);

  // Drops the device prefix covering records with lsn <= through_lsn (snapshot
  // truncation). Synced bytes shrink accordingly; unsynced bytes are untouched.
  void TruncateThrough(uint64_t through_lsn);

  // --- Observability -------------------------------------------------------------------
  // The device's bytes in order, copied into one string.
  std::string device() const;
  uint64_t next_lsn() const { return next_lsn_; }
  int64_t appended_records() const { return appended_records_; }
  int64_t syncs() const { return syncs_; }
  int64_t device_bytes() const { return device_bytes_; }
  int64_t synced_bytes() const { return synced_bytes_; }
  int64_t unsynced_bytes() const { return device_bytes_ - synced_bytes_; }
  uint64_t truncated_through() const { return truncated_through_; }
  const std::string& name() const { return name_; }

 private:
  // One allocation of the device. Its live bytes are [begin, end): truncation advances
  // `begin` of the first chunk, Append and the cuts move `end` of the last.
  struct Chunk {
    std::unique_ptr<char[]> bytes;
    size_t capacity = 0;
    size_t begin = 0;
    size_t end = 0;
  };

  // Room for `n` bytes at the end of the device, in the tail chunk or a new one.
  char* Reserve(size_t n);
  // Drops every device byte from logical offset `offset` on.
  void CutAt(int64_t offset);

  std::string name_;
  WalFaults faults_;
  std::deque<Chunk> chunks_;   // the simulated persistent medium
  int64_t device_bytes_ = 0;   // live bytes over all chunks
  int64_t synced_bytes_ = 0;   // durable watermark, a logical offset
  uint64_t next_lsn_ = 1;
  uint64_t truncated_through_ = 0;  // highest LSN removed by snapshot truncation
  int64_t appended_records_ = 0;
  int64_t syncs_ = 0;
};

}  // namespace icg

#endif  // ICG_KVSTORE_WAL_H_
