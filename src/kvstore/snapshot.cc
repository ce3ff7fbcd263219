#include "src/kvstore/snapshot.h"

#include <cstring>
#include <string_view>

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

}  // namespace

void SnapshotManager::Take(const KvStore& storage, uint64_t through_lsn) {
  std::string image;
  PutU64(image, through_lsn);
  PutU64(image, storage.size());
  for (const auto& [key, vv] : storage) {
    PutU64(image, static_cast<uint64_t>(vv.version.timestamp));
    PutU32(image, static_cast<uint32_t>(vv.version.writer));
    PutU32(image, static_cast<uint32_t>(key.size()));
    PutU32(image, static_cast<uint32_t>(vv.value.size()));
    image.append(key);
    image.append(vv.value.view());
  }
  const Digest checksum = Fnv1a(image);
  PutU64(image, checksum);
  image_ = std::move(image);  // atomic replace: temp-write + rename in a real system
  covered_lsn_ = through_lsn;
  snapshots_taken_ += 1;
}

bool SnapshotManager::Load(KvStore* out, uint64_t* through_lsn) const {
  out->clear();
  *through_lsn = 0;
  if (image_.size() < 24) {
    return false;
  }
  const size_t body = image_.size() - 8;
  const Digest stored = GetU64(image_, body);
  if (stored != Fnv1a(std::string_view(image_.data(), body))) {
    return false;
  }
  const uint64_t covered = GetU64(image_, 0);
  const uint64_t entries = GetU64(image_, 8);
  size_t at = 16;
  for (uint64_t i = 0; i < entries; ++i) {
    if (body - at < 20) {
      out->clear();
      return false;
    }
    VersionedValue vv;
    vv.version.timestamp = static_cast<SimTime>(GetU64(image_, at));
    vv.version.writer = static_cast<NodeId>(GetU32(image_, at + 8));
    const size_t key_len = GetU32(image_, at + 12);
    const size_t value_len = GetU32(image_, at + 16);
    at += 20;
    if (body - at < key_len + value_len) {
      out->clear();
      return false;
    }
    vv.value = std::string_view(image_).substr(at + key_len, value_len);
    *out->TryEmplace(std::string_view(image_).substr(at, key_len)).first = std::move(vv);
    at += key_len + value_len;
  }
  *through_lsn = covered;
  return true;
}

}  // namespace icg
