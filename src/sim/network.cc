#include "src/sim/network.h"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "src/sim/loop_group.h"

namespace icg {

Network::Network(EventLoop* loop, const Topology* topology, uint64_t seed, double jitter_sigma)
    : loop_(loop), topology_(topology), seed_(seed), jitter_sigma_(jitter_sigma) {
  assert(loop != nullptr && topology != nullptr);
  shards_.push_back(std::make_unique<Shard>(seed));
}

Network::Shard& Network::EnsureShard(int slot) {
  while (static_cast<size_t>(slot) >= shards_.size()) {
    // Derived seeds decorrelate jitter across loops; each shard's stream is still a
    // pure function of (seed, slot), independent of placement call order.
    const uint64_t derived =
        seed_ ^ (0x9e3779b97f4a7c15ULL * static_cast<uint64_t>(shards_.size() + 1));
    shards_.push_back(std::make_unique<Shard>(derived));
  }
  return *shards_[static_cast<size_t>(slot)];
}

void Network::BindGroup(LoopGroup* group) {
  assert(group != nullptr);
  assert(group_ == nullptr && "a network binds to one group once");
  const int home = group->IndexOf(loop_);
  assert(home >= 0 && "attach the network's home loop to the group before binding");
  assert(shards_.size() == 1 && shards_[0]->sent.empty() && shards_[0]->total_bytes == 0 &&
         "bind the group before any traffic flows");
  group_ = group;
  home_slot_ = home;
  if (home_slot_ != 0) {
    // Re-home the original shard so slot indexing stays direct. Setup-time only.
    EnsureShard(home_slot_);
    std::swap(shards_[0], shards_[static_cast<size_t>(home_slot_)]);
  }
}

void Network::PlaceNode(NodeId node, int slot) {
  assert(group_ != nullptr && "BindGroup before PlaceNode");
  assert(slot >= 0 && slot < group_->size());
  placement_[node] = slot;
  EnsureShard(slot);
}

int Network::SlotOf(NodeId node) const {
  if (group_ == nullptr) {
    return 0;
  }
  const auto it = placement_.find(node);
  return it == placement_.end() ? home_slot_ : it->second;
}

EventLoop* Network::LoopFor(NodeId node) const {
  return group_ == nullptr ? loop_ : &group_->loop(SlotOf(node));
}

Network::Shard& Network::ShardFor(NodeId from) {
  return *shards_[static_cast<size_t>(SlotOf(from))];
}

const Network::Shard* Network::ShardForOrNull(NodeId from) const {
  const size_t slot = static_cast<size_t>(SlotOf(from));
  return slot < shards_.size() ? shards_[slot].get() : nullptr;
}

SimDuration Network::SampleDelay(NodeId from, NodeId to) {
  if (from == to) {
    return kLocalDelay;
  }
  const SimDuration base = topology_->RttBetween(from, to) / 2;
  if (jitter_sigma_ <= 0.0) {
    return base;
  }
  const double jittered =
      ShardFor(from).rng.NextLognormal(static_cast<double>(base), jitter_sigma_);
  return std::max<SimDuration>(kLocalDelay, static_cast<SimDuration>(std::llround(jittered)));
}

void Network::Send(NodeId from, NodeId to, int64_t bytes, EventLoop::Task on_delivery) {
  assert(bytes >= 0);
  Shard& shard = ShardFor(from);
  auto& stats = shard.sent[{from, to}];
  stats.bytes += bytes;
  stats.messages += 1;
  shard.total_bytes += bytes;

  if (crashed_.contains(from) || crashed_.contains(to) ||
      partitioned_.contains(OrderedPair(from, to)) ||
      (loss_probability_ > 0.0 && shard.rng.NextBool(loss_probability_))) {
    shard.dropped_messages += 1;
    return;
  }
  // The send happens "now" on the sender's loop — mid-round, different loops sit at
  // different instants within the same quantum, and the sender's clock is the
  // deterministic one for this call.
  EventLoop* from_loop = LoopFor(from);
  // FIFO link: never deliver before an earlier message on the same directed link.
  SimTime deliver_at = from_loop->Now() + SampleDelay(from, to);
  SimTime& last = shard.last_delivery[{from, to}];
  deliver_at = std::max(deliver_at, last);
  last = deliver_at;

  const int to_slot = SlotOf(to);
  if (to_slot == SlotOf(from)) {
    // Same-loop fast path (every send of an unbound network, whose nodes all sit on slot
    // 0): the caller is (or may safely act as) this loop's driver.
    from_loop->ScheduleAt(deliver_at, std::move(on_delivery));
  } else {
    // Cross-loop: route through the group channel; delivered at the next barrier at
    // max(deliver_at, barrier) — the quantum bounds the extra latency.
    group_->Post(to_slot, deliver_at, std::move(on_delivery));
  }
}

const LinkStats& Network::Sent(NodeId from, NodeId to) const {
  static const LinkStats kEmpty;
  const Shard* shard = ShardForOrNull(from);
  if (shard == nullptr) {
    return kEmpty;
  }
  auto it = shard->sent.find({from, to});
  return it == shard->sent.end() ? kEmpty : it->second;
}

int64_t Network::BytesBetween(NodeId a, NodeId b) const {
  return Sent(a, b).bytes + Sent(b, a).bytes;
}

int64_t Network::MessagesBetween(NodeId a, NodeId b) const {
  return Sent(a, b).messages + Sent(b, a).messages;
}

int64_t Network::total_bytes() const {
  int64_t total = 0;
  for (const auto& shard : shards_) {
    total += shard->total_bytes;
  }
  return total;
}

int64_t Network::dropped_messages() const {
  int64_t total = 0;
  for (const auto& shard : shards_) {
    total += shard->dropped_messages;
  }
  return total;
}

void Network::ResetStats() {
  for (const auto& shard : shards_) {
    shard->sent.clear();
    shard->total_bytes = 0;
    shard->dropped_messages = 0;
  }
}

}  // namespace icg
