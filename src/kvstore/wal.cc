#include "src/kvstore/wal.h"

#include <algorithm>
#include <cassert>
#include <cstring>

#include "src/common/digest.h"

namespace icg {
namespace {

void PutU32(std::string& out, uint32_t v) {
  char buf[4];
  std::memcpy(buf, &v, 4);
  out.append(buf, 4);
}

void PutU64(std::string& out, uint64_t v) {
  char buf[8];
  std::memcpy(buf, &v, 8);
  out.append(buf, 8);
}

uint32_t GetU32(const std::string& in, size_t at) {
  uint32_t v;
  std::memcpy(&v, in.data() + at, 4);
  return v;
}

uint64_t GetU64(const std::string& in, size_t at) {
  uint64_t v;
  std::memcpy(&v, in.data() + at, 8);
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
  const size_t payload_start = device_.size() + kLenBytes;
  device_.reserve(device_.size() + kLenBytes + payload_len + kChecksumBytes);
  PutU32(device_, static_cast<uint32_t>(payload_len));
  PutU64(device_, lsn);
  PutU64(device_, static_cast<uint64_t>(version.timestamp));
  PutU32(device_, static_cast<uint32_t>(version.writer));
  PutU32(device_, static_cast<uint32_t>(key.size()));
  PutU32(device_, static_cast<uint32_t>(value.size()));
  device_.append(key);
  device_.append(value);
  const Digest checksum =
      Fnv1a(std::string_view(device_.data() + payload_start, payload_len));
  PutU64(device_, checksum);
  appended_records_ += 1;
  return lsn;
}

SimDuration Wal::Sync() {
  if (unsynced_bytes() == 0) {
    return 0;  // nothing to flush: a no-op fsync neither costs nor counts
  }
  synced_bytes_ = device_bytes();
  syncs_ += 1;
  return faults_.fsync_latency;
}

void Wal::Crash() {
  if (faults_.torn_tail && unsynced_bytes() > 0) {
    // The first unsynced record tears: a partial prefix made it to the medium. The cut
    // point is a pure function of the record's bytes (no RNG) so crash trials stay
    // bit-identical across LoopGroup widths. Cut inside the payload whenever the record
    // is long enough for the length header to have landed, so replay sees a plausible
    // header whose payload (or checksum) is missing or corrupt.
    const size_t tail = static_cast<size_t>(unsynced_bytes());
    const size_t keep =
        tail <= kLenBytes
            ? tail / 2
            : kLenBytes + (tail - kLenBytes) / 2 + (device_.back() & 0x3);
    device_.resize(static_cast<size_t>(synced_bytes_) + std::min(keep, tail));
  } else {
    device_.resize(static_cast<size_t>(synced_bytes_));
  }
  synced_bytes_ = device_bytes();
}

Wal::ReplayResult Wal::Replay(uint64_t from_lsn,
                              const std::function<void(const Record&)>& apply) const {
  ReplayResult result;
  size_t at = 0;
  while (at < device_.size()) {
    if (device_.size() - at < kLenBytes) {
      result.torn_tail = true;
      break;
    }
    const size_t payload_len = GetU32(device_, at);
    if (payload_len < kPayloadHeaderBytes ||
        device_.size() - at - kLenBytes < payload_len + kChecksumBytes) {
      result.torn_tail = true;
      break;
    }
    const size_t payload_start = at + kLenBytes;
    const Digest stored = GetU64(device_, payload_start + payload_len);
    const Digest computed =
        Fnv1a(std::string_view(device_.data() + payload_start, payload_len));
    if (stored != computed) {
      result.torn_tail = true;
      break;
    }
    Record record;
    record.lsn = GetU64(device_, payload_start);
    record.version.timestamp = static_cast<SimTime>(GetU64(device_, payload_start + 8));
    record.version.writer = static_cast<NodeId>(GetU32(device_, payload_start + 16));
    const size_t key_len = GetU32(device_, payload_start + 20);
    const size_t value_len = GetU32(device_, payload_start + 24);
    if (kPayloadHeaderBytes + key_len + value_len != payload_len) {
      result.torn_tail = true;
      break;
    }
    record.key = device_.substr(payload_start + kPayloadHeaderBytes, key_len);
    record.value = device_.substr(payload_start + kPayloadHeaderBytes + key_len, value_len);
    at = payload_start + payload_len + kChecksumBytes;
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
  device_.resize(static_cast<size_t>(result.bytes_scanned));
  synced_bytes_ = std::min(synced_bytes_, device_bytes());
  return result;
}

void Wal::TruncateThrough(uint64_t through_lsn) {
  if (through_lsn <= truncated_through_) {
    return;
  }
  // Walk whole valid records from the front and drop every one covered by the snapshot.
  // Truncation only ever touches the synced region: a snapshot cannot cover records
  // that were never made durable.
  size_t at = 0;
  while (at + kLenBytes <= static_cast<size_t>(synced_bytes_)) {
    const size_t payload_len = GetU32(device_, at);
    const size_t record_end = at + kLenBytes + payload_len + kChecksumBytes;
    if (record_end > static_cast<size_t>(synced_bytes_)) {
      break;
    }
    const uint64_t lsn = GetU64(device_, at + kLenBytes);
    if (lsn > through_lsn) {
      break;
    }
    at = record_end;
  }
  device_.erase(0, at);
  synced_bytes_ -= static_cast<int64_t>(at);
  truncated_through_ = through_lsn;
}

}  // namespace icg
