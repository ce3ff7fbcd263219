#include "src/kvstore/wal.h"

#include <algorithm>
#include <cstring>

#include "src/common/digest.h"

namespace icg {
namespace {

template <typename T>
char* Put(char* at, T v) {
  std::memcpy(at, &v, sizeof v);
  return at + sizeof v;
}

char* PutBytes(char* at, std::string_view bytes) {
  std::memcpy(at, bytes.data(), bytes.size());
  return at + bytes.size();
}

template <typename T>
T Get(const char* at) {
  T v;
  std::memcpy(&v, at, sizeof v);
  return v;
}

constexpr size_t kLenBytes = 4;
constexpr size_t kChecksumBytes = 8;
// lsn + timestamp + writer + key_len + value_len
constexpr size_t kPayloadHeaderBytes = 8 + 8 + 4 + 4 + 4;

}  // namespace

uint64_t Wal::Append(std::string_view key, std::string_view value, const Version& version) {
  const uint64_t lsn = next_lsn_++;
  const size_t payload_len = kPayloadHeaderBytes + key.size() + value.size();
  char* const record = Reserve(kLenBytes + payload_len + kChecksumBytes);
  char* at = Put(record, static_cast<uint32_t>(payload_len));
  at = Put(at, lsn);
  at = Put(at, static_cast<uint64_t>(version.timestamp));
  at = Put(at, static_cast<uint32_t>(version.writer));
  at = Put(at, static_cast<uint32_t>(key.size()));
  at = Put(at, static_cast<uint32_t>(value.size()));
  at = PutBytes(at, key);
  at = PutBytes(at, value);
  Put(at, Xxh64(std::string_view(record + kLenBytes, payload_len)));
  appended_records_ += 1;
  return lsn;
}

char* Wal::Reserve(size_t n) {
  if (chunks_.empty() || chunks_.back().capacity - chunks_.back().end < n) {
    const size_t capacity = std::max(n, kChunkBytes);
    chunks_.push_back(
        Chunk{std::make_unique_for_overwrite<char[]>(capacity), capacity, 0, 0});
  }
  Chunk& tail = chunks_.back();
  char* const at = tail.bytes.get() + tail.end;
  tail.end += n;
  device_bytes_ += static_cast<int64_t>(n);
  return at;
}

void Wal::CutAt(int64_t offset) {
  while (device_bytes_ > offset) {
    Chunk& tail = chunks_.back();
    const int64_t live = static_cast<int64_t>(tail.end - tail.begin);
    if (device_bytes_ - live >= offset && chunks_.size() > 1) {
      device_bytes_ -= live;
      chunks_.pop_back();
    } else {
      tail.end -= static_cast<size_t>(device_bytes_ - offset);
      device_bytes_ = offset;
    }
  }
}

SimDuration Wal::Sync() {
  if (unsynced_bytes() == 0) {
    return 0;  // nothing to flush: a no-op fsync neither costs nor counts
  }
  synced_bytes_ = device_bytes_;
  syncs_ += 1;
  return faults_.fsync_latency;
}

void Wal::Crash() {
  size_t keep = 0;
  if (faults_.torn_tail && unsynced_bytes() > 0) {
    // About half of the unsynced tail made it to the medium (the rule in wal.h). The cut
    // is a pure function of the tail's length and the device's last byte (no RNG), so
    // crash trials stay bit-identical across LoopGroup widths. Keeping the first length
    // header whole lets replay see a plausible header whose payload or checksum is
    // missing. The last Append wrote the device's last byte at the end of the tail chunk.
    const size_t tail = static_cast<size_t>(unsynced_bytes());
    const Chunk& last = chunks_.back();
    keep = tail <= kLenBytes
               ? tail / 2
               : kLenBytes + (tail - kLenBytes) / 2 + (last.bytes[last.end - 1] & 0x3);
    keep = std::min(keep, tail);
  }
  CutAt(synced_bytes_ + static_cast<int64_t>(keep));
  synced_bytes_ = device_bytes_;
}

Wal::ReplayResult Wal::Replay(uint64_t from_lsn,
                              const std::function<void(const Record&)>& apply) const {
  ReplayResult result;
  for (const Chunk& chunk : chunks_) {
    const ReplayResult part = Replay(
        std::string_view(chunk.bytes.get() + chunk.begin, chunk.end - chunk.begin),
        from_lsn, apply);
    result.records += part.records;
    if (part.records > 0) {
      result.last_lsn = part.last_lsn;
    }
    result.bytes_scanned += part.bytes_scanned;
    if (part.torn_tail) {
      result.torn_tail = true;
      break;
    }
  }
  return result;
}

Wal::ReplayResult Wal::Replay(std::string_view bytes, uint64_t from_lsn,
                              const std::function<void(const Record&)>& apply) {
  ReplayResult result;
  size_t at = 0;
  while (at < bytes.size()) {
    if (bytes.size() - at < kLenBytes) {
      result.torn_tail = true;
      break;
    }
    const size_t payload_len = Get<uint32_t>(bytes.data() + at);
    if (payload_len < kPayloadHeaderBytes ||
        bytes.size() - at - kLenBytes < payload_len + kChecksumBytes) {
      result.torn_tail = true;
      break;
    }
    const char* const payload = bytes.data() + at + kLenBytes;
    const Digest stored = Get<uint64_t>(payload + payload_len);
    const Digest computed = Xxh64(std::string_view(payload, payload_len));
    if (stored != computed) {
      result.torn_tail = true;
      break;
    }
    Record record;
    record.lsn = Get<uint64_t>(payload);
    record.version.timestamp = static_cast<SimTime>(Get<uint64_t>(payload + 8));
    record.version.writer = static_cast<NodeId>(Get<uint32_t>(payload + 16));
    const size_t key_len = Get<uint32_t>(payload + 20);
    const size_t value_len = Get<uint32_t>(payload + 24);
    if (kPayloadHeaderBytes + key_len + value_len != payload_len) {
      result.torn_tail = true;
      break;
    }
    record.key.assign(payload + kPayloadHeaderBytes, key_len);
    record.value.assign(payload + kPayloadHeaderBytes + key_len, value_len);
    at += kLenBytes + payload_len + kChecksumBytes;
    result.bytes_scanned = static_cast<int64_t>(at);
    if (record.lsn <= from_lsn) {
      continue;  // covered by the snapshot being recovered alongside this log
    }
    result.records += 1;
    result.last_lsn = record.lsn;
    apply(record);
  }
  return result;
}

Wal::ReplayResult Wal::Recover(uint64_t from_lsn,
                               const std::function<void(const Record&)>& apply) {
  const ReplayResult result = Replay(from_lsn, apply);
  CutAt(result.bytes_scanned);
  synced_bytes_ = std::min(synced_bytes_, device_bytes_);
  return result;
}

void Wal::TruncateThrough(uint64_t through_lsn) {
  if (through_lsn <= truncated_through_) {
    return;
  }
  truncated_through_ = through_lsn;
  // Walk whole records from the front and drop every one covered by the snapshot: whole
  // chunks are freed, and the first surviving chunk starts after the last covered
  // record. Truncation only ever touches the synced region: a snapshot cannot cover
  // records that were never made durable.
  while (!chunks_.empty()) {
    Chunk& front = chunks_.front();
    size_t at = front.begin;
    while (front.end - at >= kLenBytes) {
      const size_t record_end =
          at + kLenBytes + Get<uint32_t>(front.bytes.get() + at) + kChecksumBytes;
      if (record_end > front.end ||
          static_cast<int64_t>(record_end - front.begin) > synced_bytes_ ||
          Get<uint64_t>(front.bytes.get() + at + kLenBytes) > through_lsn) {
        break;
      }
      at = record_end;
    }
    const int64_t dropped = static_cast<int64_t>(at - front.begin);
    device_bytes_ -= dropped;
    synced_bytes_ -= dropped;
    if (at < front.end || chunks_.size() == 1) {
      front.begin = at;
      return;
    }
    chunks_.pop_front();
  }
}

std::string Wal::device() const {
  std::string bytes;
  bytes.reserve(static_cast<size_t>(device_bytes_));
  for (const Chunk& chunk : chunks_) {
    bytes.append(chunk.bytes.get() + chunk.begin, chunk.end - chunk.begin);
  }
  return bytes;
}

}  // namespace icg
