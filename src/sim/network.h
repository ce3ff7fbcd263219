// Message-passing network with WAN latencies, jitter, byte accounting, and failure
// injection (crashes, partitions, probabilistic loss).
//
// A message is a closure executed at the destination after the simulated propagation
// delay. Byte sizes are declared by the sender so benchmarks can report bandwidth per
// operation exactly as the paper does (client<->replica kB/op).
//
// Cross-loop mode: endpoints may live on different EventLoops of one LoopGroup
// (BindGroup + PlaceNode). Same-loop sends keep the zero-overhead in-loop schedule;
// cross-loop sends route through LoopGroup::Post and are delivered at the next round
// barrier, so cross-loop latency is bounded by the group's quantum (smaller quantum =
// tighter latency, more barriers). Everything stays deterministic at any thread width:
// all per-link mutable state (jitter RNG, FIFO clamp, byte accounting) is sharded by the
// *sender's* loop, and a node's sends only ever happen on the thread driving its loop,
// so the draw/clamp order is a pure function of that loop's own event order.
#ifndef ICG_SIM_NETWORK_H_
#define ICG_SIM_NETWORK_H_

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "src/common/random.h"
#include "src/common/types.h"
#include "src/sim/event_loop.h"
#include "src/sim/topology.h"

namespace icg {

class LoopGroup;

// Traffic accounting for one direction of one node pair.
struct LinkStats {
  int64_t bytes = 0;
  int64_t messages = 0;
};

class Network {
 public:
  // `jitter_sigma` is the log-space deviation of the lognormal latency multiplier; 0
  // disables jitter entirely (useful for exact-latency unit tests).
  Network(EventLoop* loop, const Topology* topology, uint64_t seed, double jitter_sigma = 0.08);

  // Sends `bytes` from `from` to `to`; runs `on_delivery` at the destination after the
  // propagation delay. Messages to self incur kLocalDelay. Dropped silently if either
  // endpoint is crashed, the pair is partitioned, or the loss dice say so.
  //
  // Links are FIFO, like the TCP connections real systems run on: jitter can stretch
  // delays but a message never overtakes an earlier message on the same directed link.
  // Zab (and the CZK speculative-promise ordering) depend on this, exactly as real
  // ZooKeeper depends on TCP ordering. FIFO holds across loops too: barrier clamping is
  // monotone, so a later message on a link is never delivered before an earlier one.
  void Send(NodeId from, NodeId to, int64_t bytes, EventLoop::Task on_delivery);

  // Computes the one-way delay that a message sent now would experience (inclusive of
  // jitter). Exposed for tests and for latency-prediction logic. In cross-loop mode the
  // draw comes from `from`'s loop shard, so call it from that loop's thread (or between
  // rounds).
  SimDuration SampleDelay(NodeId from, NodeId to);

  // --- Cross-loop placement ------------------------------------------------------------
  // Splits this network across the loops of `group`. The construction loop becomes the
  // "home" loop (it must already be attached to the group) and every node starts there;
  // PlaceNode pins individual nodes to other attached loops. Call during setup, before
  // any traffic, and never unbind. Delivery closures run on the *destination* node's
  // loop, so simulated components keep their single-thread-per-round affinity — the
  // harness rebinds each placed component's timers/service queue via its RebindLoop.
  void BindGroup(LoopGroup* group);
  void PlaceNode(NodeId node, int slot);
  // The LoopGroup slot `node` lives on (the home slot unless placed). 0 when unbound.
  int SlotOf(NodeId node) const;
  // The loop driving `node`: group->loop(SlotOf(node)) when bound, else the home loop.
  EventLoop* LoopFor(NodeId node) const;
  bool cross_loop() const { return group_ != nullptr; }

  // --- Failure injection ---------------------------------------------------------------
  // Mutate only between rounds (driver thread); Send reads these concurrently mid-round.
  void Crash(NodeId node) { crashed_.insert(node); }
  void Restart(NodeId node) { crashed_.erase(node); }
  bool IsCrashed(NodeId node) const { return crashed_.contains(node); }

  // Cuts both directions between a and b.
  void Partition(NodeId a, NodeId b) { partitioned_.insert(OrderedPair(a, b)); }
  void Heal(NodeId a, NodeId b) { partitioned_.erase(OrderedPair(a, b)); }

  // Probability in [0,1] that any given message is lost.
  void SetLossProbability(double p) { loss_probability_ = p; }

  // --- Accounting ---------------------------------------------------------------------
  // Query between rounds (driver thread): counters are sharded by sender loop.
  const LinkStats& Sent(NodeId from, NodeId to) const;
  // Total bytes exchanged between the pair, both directions.
  int64_t BytesBetween(NodeId a, NodeId b) const;
  int64_t MessagesBetween(NodeId a, NodeId b) const;
  int64_t total_bytes() const;
  int64_t dropped_messages() const;
  void ResetStats();

  EventLoop* loop() const { return loop_; }
  const Topology* topology() const { return topology_; }

 private:
  // All mutable per-send state, sharded by the sender's loop slot so concurrently
  // driven loops never contend — and, more importantly, so every draw and FIFO clamp
  // happens in the sender loop's deterministic event order. Padded: adjacent shards are
  // hammered by different worker threads.
  struct alignas(64) Shard {
    explicit Shard(uint64_t seed) : rng(seed) {}
    Rng rng;
    std::map<std::pair<NodeId, NodeId>, LinkStats> sent;          // keyed by (from, to)
    std::map<std::pair<NodeId, NodeId>, SimTime> last_delivery;   // FIFO enforcement
    int64_t total_bytes = 0;
    int64_t dropped_messages = 0;
  };

  static std::pair<NodeId, NodeId> OrderedPair(NodeId a, NodeId b) {
    return a < b ? std::make_pair(a, b) : std::make_pair(b, a);
  }

  Shard& ShardFor(NodeId from);
  const Shard* ShardForOrNull(NodeId from) const;
  Shard& EnsureShard(int slot);

  EventLoop* loop_;
  const Topology* topology_;
  uint64_t seed_;
  double jitter_sigma_;
  double loss_probability_ = 0.0;

  LoopGroup* group_ = nullptr;
  int home_slot_ = 0;
  std::map<NodeId, int> placement_;  // setup-time writes; concurrent reads mid-round

  std::set<NodeId> crashed_;
  std::set<std::pair<NodeId, NodeId>> partitioned_;

  // Indexed by LoopGroup slot when bound; exactly {shards_[0]} when unbound, which
  // preserves the historical single-RNG draw order bit-for-bit.
  std::vector<std::unique_ptr<Shard>> shards_;

  static constexpr SimDuration kLocalDelay = Micros(50);
};

}  // namespace icg

#endif  // ICG_SIM_NETWORK_H_
