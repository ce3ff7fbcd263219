#include "src/kvstore/partitioner.h"

#include <algorithm>
#include <cassert>

#include "src/common/digest.h"
#include "src/common/random.h"

namespace icg {
namespace {

// FNV-1a alone has weak avalanche in the high bits for very short inputs (vnode labels,
// short keys), which skews ring ownership badly. A SplitMix64-style finalizer restores
// uniformity across the full 64-bit token space.
uint64_t MixToken(uint64_t x) {
  x ^= x >> 30;
  x *= 0xbf58476d1ce4e5b9ULL;
  x ^= x >> 27;
  x *= 0x94d049bb133111ebULL;
  x ^= x >> 31;
  return x;
}

}  // namespace

Partitioner::Partitioner(std::vector<NodeId> nodes, int replication_factor, int vnodes_per_node,
                         uint64_t epoch)
    : nodes_(std::move(nodes)),
      replication_factor_(replication_factor),
      vnodes_per_node_(vnodes_per_node),
      epoch_(epoch) {
  assert(!nodes_.empty());
  assert(replication_factor_ >= 1);
  assert(vnodes_per_node_ >= 1);
  for (const NodeId node : nodes_) {
    for (int v = 0; v < vnodes_per_node_; ++v) {
      const std::string vnode_key = std::to_string(node) + "#" + std::to_string(v);
      ring_[MixToken(Fnv1a(vnode_key))] = node;
    }
  }
}

Partitioner Partitioner::WithNodes(std::vector<NodeId> nodes) const {
  return Partitioner(std::move(nodes), replication_factor_, vnodes_per_node_, epoch_ + 1);
}

uint64_t Partitioner::TokenOf(const std::string& key) { return MixToken(Fnv1a(key)); }

NodeId Partitioner::OwnerOfToken(uint64_t token) const {
  auto it = ring_.lower_bound(token);
  if (it == ring_.end()) {
    it = ring_.begin();
  }
  return it->second;
}

std::vector<NodeId> Partitioner::ReplicasFor(const std::string& key) const {
  const size_t want = std::min(static_cast<size_t>(replication_factor_), nodes_.size());
  std::vector<NodeId> replicas;
  replicas.reserve(want);
  auto it = ring_.lower_bound(TokenOf(key));
  // Walk the ring clockwise, collecting distinct nodes, wrapping at the end.
  for (size_t steps = 0; steps < 2 * ring_.size() && replicas.size() < want; ++steps) {
    if (it == ring_.end()) {
      it = ring_.begin();
    }
    if (std::find(replicas.begin(), replicas.end(), it->second) == replicas.end()) {
      replicas.push_back(it->second);
    }
    ++it;
  }
  return replicas;
}

NodeId Partitioner::PrimaryFor(const std::string& key) const { return OwnerOfToken(TokenOf(key)); }

bool Partitioner::RingDiff::MovedToken(uint64_t token) const {
  for (const TokenRange& range : moved) {
    if (range.Contains(token)) {
      return true;
    }
  }
  return false;
}

double Partitioner::RingDiff::MovedFraction() const {
  long double covered = 0;
  for (const TokenRange& range : moved) {
    if (range.begin == range.end) {
      covered += 18446744073709551616.0L;  // 2^64: the whole token space
    } else {
      // Unsigned wrap makes end - begin the range width even across zero.
      covered += static_cast<long double>(range.end - range.begin);
    }
  }
  return static_cast<double>(covered / 18446744073709551616.0L);
}

Partitioner::RingDiff Partitioner::Diff(const Partitioner& from, const Partitioner& to) {
  RingDiff diff;
  diff.from_epoch = from.epoch_;
  diff.to_epoch = to.epoch_;
  for (const NodeId node : to.nodes_) {
    if (std::find(from.nodes_.begin(), from.nodes_.end(), node) == from.nodes_.end()) {
      diff.added_nodes.push_back(node);
    }
  }
  for (const NodeId node : from.nodes_) {
    if (std::find(to.nodes_.begin(), to.nodes_.end(), node) == to.nodes_.end()) {
      diff.removed_nodes.push_back(node);
    }
  }

  // Primary ownership is constant between consecutive ring boundaries (either ring's):
  // for any token t in (prev, cur], lower_bound lands on `cur`'s successor vnode in
  // each ring. Walking the merged boundary set therefore enumerates every maximal
  // constant-ownership segment; segments whose owners disagree form the moved set.
  std::vector<uint64_t> boundaries;
  boundaries.reserve(from.ring_.size() + to.ring_.size());
  for (const auto& [token, node] : from.ring_) {
    boundaries.push_back(token);
  }
  for (const auto& [token, node] : to.ring_) {
    boundaries.push_back(token);
  }
  std::sort(boundaries.begin(), boundaries.end());
  boundaries.erase(std::unique(boundaries.begin(), boundaries.end()), boundaries.end());
  if (boundaries.empty()) {
    return diff;
  }

  // The first segment is the wrap-around one: (last boundary, first boundary] through
  // zero. begin == end (a single boundary overall) degenerates to the full ring, which
  // TokenRange::Contains treats as such.
  uint64_t prev = boundaries.back();
  for (const uint64_t cur : boundaries) {
    const NodeId owner_before = from.OwnerOfToken(cur);
    const NodeId owner_after = to.OwnerOfToken(cur);
    if (owner_before != owner_after) {
      if (!diff.moved.empty() && diff.moved.back().end == prev &&
          diff.moved.back().from == owner_before && diff.moved.back().to == owner_after) {
        diff.moved.back().end = cur;  // extend the adjacent range instead of splitting
      } else {
        diff.moved.push_back(TokenRange{prev, cur, owner_before, owner_after});
      }
    }
    prev = cur;
  }
  return diff;
}

std::map<NodeId, double> Partitioner::PrimaryLoadEstimate(int sample_keys, uint64_t seed) const {
  Rng rng(seed * 0x9e3779b97f4a7c15ULL + 0x2545f4914f6cdd1dULL);
  std::map<NodeId, int64_t> counts;
  for (int i = 0; i < sample_keys; ++i) {
    counts[PrimaryFor("sample-" + std::to_string(rng.NextU64()))]++;
  }
  std::map<NodeId, double> out;
  for (const auto& [node, count] : counts) {
    out[node] = static_cast<double>(count) / sample_keys;
  }
  return out;
}

}  // namespace icg
