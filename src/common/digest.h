// Content digests for the confirmation optimization (§5.2 of the paper): a final view
// whose digest matches the preliminary is replaced by a small confirmation message.
// Xxh64 checksums bulk data (snapshot images) a word at a time.
#ifndef ICG_COMMON_DIGEST_H_
#define ICG_COMMON_DIGEST_H_

#include <bit>
#include <cstdint>
#include <cstring>
#include <initializer_list>
#include <string_view>

namespace icg {

using Digest = uint64_t;

// FNV-1a 64-bit. Not cryptographic; collision resistance adequate for a simulation where
// digests only compare a preliminary view with its own final view.
constexpr Digest Fnv1a(std::string_view data) {
  uint64_t hash = 0xcbf29ce484222325ULL;
  for (const char c : data) {
    hash ^= static_cast<uint8_t>(c);
    hash *= 0x100000001b3ULL;
  }
  return hash;
}

// Digest of a value plus its version; two views are "the same" only if both the bytes
// and the version agree, mirroring Cassandra's digest reads.
constexpr Digest ValueDigest(std::string_view value, int64_t version_timestamp) {
  uint64_t hash = Fnv1a(value);
  hash ^= static_cast<uint64_t>(version_timestamp) + 0x9e3779b97f4a7c15ULL + (hash << 6) +
          (hash >> 2);
  return hash;
}

// XXH64 with seed 0. FNV-1a multiplies once per byte, each step waiting on the last;
// XXH64 consumes 32-byte stripes in four independent 8-byte lanes, so the lanes'
// multiplies overlap and a multi-megabyte input hashes at memory speed. Every load goes
// through memcpy, so `data` may start at any address.
inline Digest Xxh64(std::string_view data) {
  constexpr uint64_t kP1 = 0x9e3779b185ebca87ULL;
  constexpr uint64_t kP2 = 0xc2b2ae3d27d4eb4fULL;
  constexpr uint64_t kP3 = 0x165667b19e3779f9ULL;
  constexpr uint64_t kP4 = 0x85ebca77c2b2ae63ULL;
  constexpr uint64_t kP5 = 0x27d4eb2f165667c5ULL;
  const auto load64 = [](const char* p) {
    uint64_t v;
    std::memcpy(&v, p, 8);
    return v;
  };
  const auto round_lane = [](uint64_t acc, uint64_t lane) {
    return std::rotl(acc + lane * kP2, 31) * kP1;
  };
  const char* p = data.data();
  const char* const end = p + data.size();
  uint64_t hash;
  if (data.size() >= 32) {
    uint64_t v1 = kP1 + kP2;
    uint64_t v2 = kP2;
    uint64_t v3 = 0;
    uint64_t v4 = -kP1;
    for (; end - p >= 32; p += 32) {
      v1 = round_lane(v1, load64(p));
      v2 = round_lane(v2, load64(p + 8));
      v3 = round_lane(v3, load64(p + 16));
      v4 = round_lane(v4, load64(p + 24));
    }
    hash = std::rotl(v1, 1) + std::rotl(v2, 7) + std::rotl(v3, 12) + std::rotl(v4, 18);
    for (const uint64_t v : {v1, v2, v3, v4}) {
      hash = (hash ^ round_lane(0, v)) * kP1 + kP4;
    }
  } else {
    hash = kP5;
  }
  hash += data.size();
  for (; end - p >= 8; p += 8) {
    hash = std::rotl(hash ^ round_lane(0, load64(p)), 27) * kP1 + kP4;
  }
  if (end - p >= 4) {
    uint32_t word;
    std::memcpy(&word, p, 4);
    hash = std::rotl(hash ^ (word * kP1), 23) * kP2 + kP3;
    p += 4;
  }
  for (; p < end; ++p) {
    hash = std::rotl(hash ^ (static_cast<uint8_t>(*p) * kP5), 11) * kP1;
  }
  hash ^= hash >> 33;
  hash *= kP2;
  hash ^= hash >> 29;
  hash *= kP3;
  hash ^= hash >> 32;
  return hash;
}

}  // namespace icg

#endif  // ICG_COMMON_DIGEST_H_
