// A replica's last-writer-wins store: the key -> VersionedValue map behind KvReplica.
//
// Entries live in one dense vector in first-insertion order. An open-addressing index
// finds a key's entry after probing one or two cache lines of slots, where a tree walks
// down ~log2(n) nodes: each 8-byte slot packs a 32-bit hash tag with the entry's
// position + 1 (0 marks an empty slot), collisions probe linearly, and the index doubles
// before it passes 7/8 full.
//
// There is no single-key erase: a replica only ever drops its whole store (Crash(),
// SnapshotManager::Load), so the index needs no tombstones, and an overwrite keeps the
// entry where it was. Iteration therefore follows first-insertion order, a pure function
// of the replica's history. The hash only places index slots; every walk over the store
// (snapshots, bootstrap dumps, recovery) follows the entry vector, so no output depends
// on the hash function.
//
// FindMany looks up a batch of keys at once. A lookup over a store much larger than the
// CPU caches is a chain of three dependent misses (index slot -> entry -> value bytes),
// so looking keys up one by one pays the chains back to back. FindMany runs each group
// of keys through three stages instead: hash every key and prefetch its home slot; walk
// each probe run's tags (the slot lines are warm by now) and prefetch the entry of the
// first tag match; then finish each probe exactly as Find does and prefetch the value's
// bytes. Each stage issues all of its group's loads before the next stage waits on
// them, so the misses of a whole group overlap.
//
// A bulk load (KvCluster::Preload, SnapshotManager::Load) knows how many records are
// coming. Reserve sizes the entry vector and the index for them at once, so the load
// never relocates entries or rehashes the index; inserting past the reserved count
// grows both as before, the index still doubling. A preload also inserts in staged
// groups, as FindMany reads: it hashes each key once (Hash), prefetches the key's home
// slot in every replica's store (PrefetchSlot), then inserts with that hash
// (TryEmplace(key, hash)), so a group's index misses overlap too.
#ifndef ICG_KVSTORE_KV_STORE_H_
#define ICG_KVSTORE_KV_STORE_H_

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "src/kvstore/versioned_value.h"

namespace icg {

class KvStore {
 public:
  using Entry = std::pair<std::string, VersionedValue>;

  size_t size() const { return entries_.size(); }
  bool empty() const { return entries_.empty(); }
  // Entries the store can hold before its entry vector must grow.
  size_t capacity() const { return entries_.capacity(); }

  // Makes room for `n` entries in all: until the store holds more than `n`, no insert
  // grows the entry vector or the index. Reserving for more entries than then arrive
  // wastes only memory. Never shrinks, and grows the entry vector at least
  // geometrically, so reserving before each of many small loads stays amortized.
  void Reserve(size_t n) {
    if (n > entries_.capacity()) {
      entries_.reserve(std::max(n, 2 * entries_.capacity()));
    }
    size_t slots = slots_.size();
    while (n * 8 > slots * 7) {
      slots *= 2;
    }
    if (slots != slots_.size()) {
      Rehash(slots);
    }
  }

  // The hash that places `key` in the index: a caller inserting one key into several
  // stores computes it once and passes it to PrefetchSlot and TryEmplace.
  static uint64_t Hash(std::string_view key) { return std::hash<std::string_view>{}(key); }

  // Starts loading the index slot where the probe for `hash` begins. Changes nothing.
  void PrefetchSlot(uint64_t hash) const {
    __builtin_prefetch(&slots_[hash & (slots_.size() - 1)], /*rw=*/1);
  }

  // First-insertion order; overwriting a key keeps its position.
  std::vector<Entry>::const_iterator begin() const { return entries_.begin(); }
  std::vector<Entry>::const_iterator end() const { return entries_.end(); }

  // The value stored under `key`, or null. A returned pointer stays valid only until
  // the next insert (TryEmplace of an absent key) or clear(): inserting may reallocate
  // the entry vector.
  const VersionedValue* Find(std::string_view key) const {
    const uint64_t slot = slots_[Probe(key, Hash(key))];
    return slot == 0 ? nullptr : &entries_[(slot & kPositionMask) - 1].second;
  }
  VersionedValue* Find(std::string_view key) {
    return const_cast<VersionedValue*>(std::as_const(*this).Find(key));
  }

  // out[i] = Find(keys[i]) for every i, with the cache misses of each group of keys
  // overlapped (see the file comment). The pointers follow Find's validity rule.
  // Allocates nothing: each group's hashes live on the stack.
  void FindMany(std::span<const std::string> keys, std::span<const VersionedValue*> out) const {
    assert(out.size() == keys.size());
    const size_t mask = slots_.size() - 1;
    uint64_t hashes[kFindGroup] = {};
    for (size_t base = 0; base < keys.size(); base += kFindGroup) {
      const size_t n = std::min(kFindGroup, keys.size() - base);
      for (size_t i = 0; i < n; ++i) {
        hashes[i] = Hash(keys[base + i]);
        __builtin_prefetch(&slots_[hashes[i] & mask]);
      }
      for (size_t i = 0; i < n; ++i) {
        const uint64_t tag = hashes[i] >> 32;
        for (size_t at = hashes[i] & mask; slots_[at] != 0; at = (at + 1) & mask) {
          if ((slots_[at] >> 32) == tag) {
            // An entry may straddle two cache lines: warm its first and last byte.
            const char* entry =
                reinterpret_cast<const char*>(&entries_[(slots_[at] & kPositionMask) - 1]);
            __builtin_prefetch(entry);
            __builtin_prefetch(entry + sizeof(Entry) - 1);
            break;
          }
        }
      }
      for (size_t i = 0; i < n; ++i) {
        const uint64_t slot = slots_[Probe(keys[base + i], hashes[i])];
        const VersionedValue* found =
            slot == 0 ? nullptr : &entries_[(slot & kPositionMask) - 1].second;
        out[base + i] = found;
        if (found != nullptr) {
          found->value.Prefetch();
        }
      }
    }
  }

  // Finds `key` or appends it with a default VersionedValue; `second` is true when it
  // was inserted. One probe either way. The pointer follows Find's validity rule.
  std::pair<VersionedValue*, bool> TryEmplace(std::string_view key) {
    return TryEmplace(key, Hash(key));
  }
  // The same with `hash` == Hash(key) computed by the caller.
  std::pair<VersionedValue*, bool> TryEmplace(std::string_view key, uint64_t hash) {
    assert(hash == Hash(key));
    if ((entries_.size() + 1) * 8 > slots_.size() * 7) {
      Rehash(slots_.size() * 2);
    }
    const size_t at = Probe(key, hash);
    if (slots_[at] != 0) {
      return {&entries_[(slots_[at] & kPositionMask) - 1].second, false};
    }
    assert(entries_.size() < kPositionMask);
    entries_.emplace_back(std::string(key), VersionedValue{});
    slots_[at] = (hash >> 32) << 32 | entries_.size();
    return {&entries_.back().second, true};
  }

  // Drops every entry; the index keeps its size.
  void clear() {
    entries_.clear();
    std::fill(slots_.begin(), slots_.end(), 0);
  }

  // Equal entries in equal order.
  friend bool operator==(const KvStore& a, const KvStore& b) { return a.entries_ == b.entries_; }

 private:
  static constexpr size_t kMinSlots = 16;  // a power of two
  static constexpr uint64_t kPositionMask = 0xffffffffu;
  // Keys per FindMany group: enough loads in flight to cover a miss, few enough that a
  // group's prefetched lines are still cached when its last stage reads them.
  static constexpr size_t kFindGroup = 16;

  // The slot holding `key`, or the empty slot that ends its probe run. The low hash bits
  // pick the home slot and the high 32 bits are the tag, so the two are independent.
  size_t Probe(std::string_view key, uint64_t hash) const {
    const size_t mask = slots_.size() - 1;
    const uint64_t tag = hash >> 32;
    size_t at = hash & mask;
    while (slots_[at] != 0) {
      const uint64_t slot = slots_[at];
      if ((slot >> 32) == tag && entries_[(slot & kPositionMask) - 1].first == key) {
        return at;
      }
      at = (at + 1) & mask;
    }
    return at;
  }

  // Rebuilds the index at `count` slots, a power of two.
  void Rehash(size_t count) {
    std::vector<uint64_t> slots(count, 0);
    const size_t mask = slots.size() - 1;
    for (size_t e = 0; e < entries_.size(); ++e) {
      const uint64_t hash = Hash(entries_[e].first);
      size_t at = hash & mask;
      while (slots[at] != 0) {
        at = (at + 1) & mask;
      }
      slots[at] = (hash >> 32) << 32 | (e + 1);
    }
    slots_ = std::move(slots);
  }

  std::vector<Entry> entries_;
  std::vector<uint64_t> slots_ = std::vector<uint64_t>(kMinSlots, 0);
};

}  // namespace icg

#endif  // ICG_KVSTORE_KV_STORE_H_
