// Last-writer-wins versioned values stored by quorum replicas.
//
// A value's bytes live in a ValueRef: an immutable, reference-counted byte string. One
// allocation holds the count, the size and the bytes; copies share the bytes and only
// bump the count, and nothing can change the bytes after construction. The count is
// atomic because a replication message or a peer reply can carry a value from a replica
// on one LoopGroup lane to a replica on another lane's thread: increments are relaxed and
// the decrement is acq_rel, as in std::shared_ptr. Equality compares bytes, never buffer
// identity, so two replicas that received the same value by different routes compare
// equal. Where a value becomes a buffer, and where it becomes bytes again, is described
// in replica.h.
#ifndef ICG_KVSTORE_VERSIONED_VALUE_H_
#define ICG_KVSTORE_VERSIONED_VALUE_H_

#include <atomic>
#include <concepts>
#include <cstddef>
#include <cstring>
#include <new>
#include <ostream>
#include <string>
#include <string_view>
#include <utility>

#include "src/common/digest.h"
#include "src/common/types.h"

namespace icg {

class ValueRef {
 public:
  // The empty value holds no buffer.
  ValueRef() = default;
  // Copies `bytes` into a new buffer (none for empty bytes). Implicit, so strings and
  // string literals stand wherever a value is expected.
  ValueRef(std::string_view bytes) {  // NOLINT(google-explicit-constructor)
    if (bytes.empty()) {
      return;
    }
    char* memory = static_cast<char*>(::operator new(sizeof(Rep) + bytes.size()));
    std::memcpy(memory + sizeof(Rep), bytes.data(), bytes.size());
    rep_ = new (memory) Rep{{1}, bytes.size()};
  }
  ValueRef(const std::string& bytes)  // NOLINT(google-explicit-constructor)
      : ValueRef(std::string_view(bytes)) {}
  ValueRef(const char* bytes)  // NOLINT(google-explicit-constructor)
      : ValueRef(std::string_view(bytes)) {}

  ValueRef(const ValueRef& other) noexcept : rep_(other.rep_) {
    if (rep_ != nullptr) {
      rep_->refs.fetch_add(1, std::memory_order_relaxed);
    }
  }
  ValueRef(ValueRef&& other) noexcept : rep_(std::exchange(other.rep_, nullptr)) {}
  ValueRef& operator=(ValueRef other) noexcept {
    std::swap(rep_, other.rep_);
    return *this;
  }
  ~ValueRef() {
    if (rep_ != nullptr && rep_->refs.fetch_sub(1, std::memory_order_acq_rel) == 1) {
      rep_->~Rep();
      ::operator delete(rep_);
    }
  }

  // Never null: the empty value points at a static empty string.
  const char* data() const {
    return rep_ != nullptr ? reinterpret_cast<const char*>(rep_ + 1) : "";
  }
  size_t size() const { return rep_ != nullptr ? rep_->size : 0; }
  bool empty() const { return rep_ == nullptr; }
  std::string_view view() const { return {data(), size()}; }
  std::string str() const { return std::string(view()); }
  // Starts loading the buffer for a reader about to copy this handle (a copy writes the
  // count) and read its bytes. Changes nothing.
  void Prefetch() const {
    if (rep_ != nullptr) {
      __builtin_prefetch(rep_, /*rw=*/1);
      __builtin_prefetch(data() + size() - 1);
    }
  }
  // Handles sharing this buffer; 0 for the empty value.
  long use_count() const {
    return rep_ != nullptr ? static_cast<long>(rep_->refs.load(std::memory_order_relaxed)) : 0;
  }

  friend bool operator==(const ValueRef& a, const ValueRef& b) { return a.view() == b.view(); }
  template <typename Bytes>
    requires std::convertible_to<const Bytes&, std::string_view>
  friend bool operator==(const ValueRef& a, const Bytes& b) {
    return a.view() == std::string_view(b);
  }
  friend std::ostream& operator<<(std::ostream& out, const ValueRef& value) {
    return out << value.view();
  }

 private:
  // Header of the single allocation; the bytes follow it.
  struct Rep {
    std::atomic<size_t> refs;
    size_t size;
  };

  Rep* rep_ = nullptr;
};

struct VersionedValue {
  ValueRef value;
  Version version;

  // True if `other` should replace this value under last-writer-wins.
  bool OlderThan(const Version& other) const { return version < other; }

  Digest ContentDigest() const { return ValueDigest(value.view(), version.timestamp); }

  friend bool operator==(const VersionedValue&, const VersionedValue&) = default;
};

}  // namespace icg

#endif  // ICG_KVSTORE_VERSIONED_VALUE_H_
