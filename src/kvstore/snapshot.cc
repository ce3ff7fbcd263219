#include "src/kvstore/snapshot.h"

#include <algorithm>
#include <cstring>

#include "src/common/digest.h"

namespace icg {
namespace {

constexpr size_t kHeaderBytes = 8 + 8;  // covered_lsn + entries
// timestamp + writer + key_len + value_len
constexpr size_t kRecordHeaderBytes = 8 + 4 + 4 + 4;
constexpr size_t kChecksumBytes = 8;

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
T Get(std::string_view in, size_t at) {
  T v;
  std::memcpy(&v, in.data() + at, sizeof v);
  return v;
}

}  // namespace

void SnapshotManager::Take(const KvStore& storage, uint64_t through_lsn) {
  size_t size = kHeaderBytes + kChecksumBytes;
  for (const auto& [key, vv] : storage) {
    size += kRecordHeaderBytes + key.size() + vv.value.size();
  }
  if (size > image_capacity_) {
    image_.reset();  // the old image is dropped first, so a replica never holds two
    image_ = std::make_unique_for_overwrite<char[]>(size);
    image_capacity_ = size;
  }
  char* at = Put(image_.get(), through_lsn);
  at = Put(at, static_cast<uint64_t>(storage.size()));
  for (const auto& [key, vv] : storage) {
    at = Put(at, static_cast<uint64_t>(vv.version.timestamp));
    at = Put(at, static_cast<uint32_t>(vv.version.writer));
    at = Put(at, static_cast<uint32_t>(key.size()));
    at = Put(at, static_cast<uint32_t>(vv.value.size()));
    at = PutBytes(at, key);
    at = PutBytes(at, vv.value.view());
  }
  Put(at, Xxh64(std::string_view(image_.get(), size - kChecksumBytes)));
  image_size_ = size;
  covered_lsn_ = through_lsn;
  snapshots_taken_ += 1;
}

bool SnapshotManager::Load(std::string_view image, KvStore* out, uint64_t* through_lsn) {
  out->clear();
  *through_lsn = 0;
  if (image.size() < kHeaderBytes + kChecksumBytes) {
    return false;
  }
  const size_t body = image.size() - kChecksumBytes;
  if (Get<uint64_t>(image, body) != Xxh64(image.substr(0, body))) {
    return false;
  }
  const uint64_t covered = Get<uint64_t>(image, 0);
  const uint64_t entries = Get<uint64_t>(image, 8);
  // The count is only as trustworthy as the checksum: a resealed image can claim any
  // count, so reserve no more entries than the image's bytes can hold.
  out->Reserve(static_cast<size_t>(
      std::min<uint64_t>(entries, (body - kHeaderBytes) / kRecordHeaderBytes)));
  size_t at = kHeaderBytes;
  for (uint64_t i = 0; i < entries; ++i) {
    if (body - at < kRecordHeaderBytes) {
      out->clear();
      return false;
    }
    VersionedValue vv;
    vv.version.timestamp = static_cast<SimTime>(Get<uint64_t>(image, at));
    vv.version.writer = static_cast<NodeId>(Get<uint32_t>(image, at + 8));
    const size_t key_len = Get<uint32_t>(image, at + 12);
    const size_t value_len = Get<uint32_t>(image, at + 16);
    at += kRecordHeaderBytes;
    if (body - at < key_len + value_len) {
      out->clear();
      return false;
    }
    vv.value = image.substr(at + key_len, value_len);
    *out->TryEmplace(image.substr(at, key_len)).first = std::move(vv);
    at += key_len + value_len;
  }
  if (at != body) {
    out->clear();
    return false;
  }
  *through_lsn = covered;
  return true;
}

}  // namespace icg
