// Pre-wired deployments of the paper's experimental setups, shared by tests, benchmarks,
// and examples: a simulated WAN world plus ready-to-use storage stacks (cluster + client
// + binding + Correctables library instance).
#ifndef ICG_HARNESS_DEPLOYMENT_H_
#define ICG_HARNESS_DEPLOYMENT_H_

#include <map>
#include <memory>
#include <vector>

#include "src/bindings/cached_causal_binding.h"
#include "src/bindings/cached_pb_binding.h"
#include "src/bindings/cassandra_binding.h"
#include "src/bindings/zookeeper_binding.h"
#include "src/correctables/binding_router.h"
#include "src/correctables/client.h"
#include "src/kvstore/cluster.h"
#include "src/sim/event_loop.h"
#include "src/sim/loop_group.h"
#include "src/sim/network.h"
#include "src/sim/topology.h"
#include "src/stores/pb_store.h"
#include "src/zab/cluster.h"

namespace icg {

// The simulated world: event loop + geographic topology + network. Construction order
// matters (the network holds pointers into the other two), hence this bundle.
//
// For intra-world parallel sharding a world can grow extra "lanes" — additional
// EventLoops it owns — onto which individual nodes are placed (via the network's
// cross-loop mode), while loop() stays the front-end loop carrying clients and routers.
class SimWorld {
 public:
  explicit SimWorld(uint64_t seed = 1, double jitter_sigma = 0.08)
      : network_(&loop_, &topology_, seed, jitter_sigma) {}

  EventLoop& loop() { return loop_; }
  Topology& topology() { return topology_; }
  Network& network() { return network_; }

  // Adds an owned lane loop (for LoopGroup placement). Setup-time only: the new lane
  // starts at virtual time 0, so create lanes before the group advances.
  EventLoop& AddLane() {
    lanes_.push_back(std::make_unique<EventLoop>());
    return *lanes_.back();
  }
  size_t lane_count() const { return lanes_.size(); }
  EventLoop& lane(size_t i) { return *lanes_.at(i); }

 private:
  EventLoop loop_;
  Topology topology_;
  Network network_;
  std::vector<std::unique_ptr<EventLoop>> lanes_;
};

// The paper's default Cassandra deployment: replicas in FRK/IRL/VRG (configurable),
// one client with a chosen coordinator, a Cassandra binding, and a Correctables client.
struct CassandraStack {
  std::unique_ptr<KvConfig> config;
  std::unique_ptr<KvCluster> cluster;
  std::unique_ptr<KvClient> kv_client;
  std::shared_ptr<CassandraBinding> binding;
  std::unique_ptr<CorrectableClient> client;
};

CassandraStack MakeCassandraStack(
    SimWorld& world, KvConfig kv_config, CassandraBindingConfig binding_config,
    Region client_region = Region::kIreland, Region coordinator_region = Region::kFrankfurt,
    std::vector<Region> replica_regions = {Region::kFrankfurt, Region::kIreland,
                                           Region::kVirginia},
    BatchConfig batch_config = {});

// Adds another client (own coordinator + binding + library instance) to an existing
// Cassandra deployment — the paper's "3 clients, one per region" load setups.
struct CassandraClientEndpoint {
  std::unique_ptr<KvClient> kv_client;
  std::shared_ptr<CassandraBinding> binding;
  std::unique_ptr<CorrectableClient> client;
};

CassandraClientEndpoint AddCassandraClient(SimWorld& world, CassandraStack& stack,
                                           CassandraBindingConfig binding_config,
                                           Region client_region, Region coordinator_region,
                                           BatchConfig batch_config = {});

// One routed client endpoint of a sharded deployment: per-coordinator connections and
// bindings (ring order, parallel to the stack's coordinator list) assembled into a
// BindingRouter behind one CorrectableClient. Endpoints are heap-held and registered
// with their stack so live membership changes can rewire every router in place; when a
// coordinator is removed, its connection and binding retire into the `retired_*` lists
// (not freed) so in-flight invocations drain against live objects.
struct ShardedEndpoint {
  Region region = Region::kIreland;
  NodeId client_node = kInvalidNode;
  CassandraBindingConfig binding_config;
  std::vector<std::unique_ptr<KvClient>> kv_clients;  // one connection per coordinator
  std::vector<std::shared_ptr<CassandraBinding>> shard_bindings;
  std::vector<std::unique_ptr<KvClient>> retired_kv_clients;
  std::vector<std::shared_ptr<CassandraBinding>> retired_bindings;
  std::shared_ptr<BindingRouter> router;
  std::unique_ptr<CorrectableClient> client;
};

// One entry per CrashCoordinator call, timestamps filled in as the detector and the
// recovery path catch up (-1 = not yet).
struct FailoverEvent {
  NodeId node = kInvalidNode;
  SimTime crashed_at = -1;
  SimTime detected_at = -1;   // detector fired and the ring routed around the corpse
  SimTime rejoined_at = -1;   // RecoverCoordinator re-admitted it
  bool was_coordinator = false;
};

// Sharded Cassandra deployment: the same replica cluster, but per-key client traffic is
// routed across a *mutable* set of coordinator replicas through BindingRouters — one
// CassandraBinding (over its own client<->coordinator connection) per coordinator, with
// a dedicated versioned consistent-hash ring over the coordinator ids deciding key
// ownership. The application still sees a single CorrectableClient per endpoint, and
// coordinators can join or leave while load is running.
class ShardedCassandraStack {
 public:
  std::unique_ptr<KvConfig> config;
  std::unique_ptr<KvCluster> cluster;

  // The primary endpoint (the one MakeShardedCassandraStack wired).
  CorrectableClient* client() const { return endpoints_.front()->client.get(); }
  BindingRouter* router() const { return endpoints_.front()->router.get(); }
  ShardedEndpoint& primary() const { return *endpoints_.front(); }
  const std::vector<std::unique_ptr<ShardedEndpoint>>& endpoints() const { return endpoints_; }

  const std::vector<NodeId>& coordinator_ids() const { return coordinator_ids_; }
  const Partitioner& shard_map() const { return *shard_map_; }
  uint64_t ring_epoch() const { return shard_map_->epoch(); }

  // --- Live membership changes, operating on the running stack ------------------------
  // Promotes the cluster replica `replica_id` into the coordinator ring: every
  // registered endpoint gets a connection + child binding to it, and every router
  // installs the successor ring (epoch + 1). Returns the primary-ownership diff —
  // ~1/(N+1) of the keyspace captured by the newcomer, nothing traded between survivors.
  Partitioner::RingDiff AddCoordinator(NodeId replica_id);
  // Demotes `replica_id` out of the ring (it keeps serving quorum/replication traffic as
  // a plain replica). Its connections retire; in-flight invocations drain; pending
  // batched cohorts re-route at flush through the new ring.
  Partitioner::RingDiff RemoveCoordinator(NodeId replica_id);
  // Bounds every shard's outstanding invocations on every endpoint's router (0 =
  // unlimited); shed work fails with a retryable OVERLOADED status.
  void SetShardQueueLimit(size_t limit);
  size_t shard_queue_limit() const { return queue_limit_; }
  // Applies `window` to every endpoint's client, re-arming pending cohorts through
  // BatchScheduler::SetConfig — safe on a running stack; under a LoopGroup call between
  // rounds (driver thread), like the membership changes. The orchestrator's batch-window
  // actuator.
  void SetBatchWindow(SimDuration window);
  SimDuration batch_window() const { return client()->batch_config().batch_window; }

  // --- Crash, failure detection & failover --------------------------------------------
  // kill -9 of a replica: the network stops accepting its messages and the replica
  // wipes its volatile state (WAL/snapshot devices survive). Deliberately does NOT
  // touch the ring — routing around the corpse is the failure detector's job, so the
  // failover window (crash -> detection -> ApplyRing) is observable. Until the ring
  // changes, traffic to the dead shard piles onto its outstanding counter and — with a
  // queue limit set — sheds with retryable OVERLOADED; after it, pending cohorts
  // re-route at flush and new work maps to survivors.
  //
  // Threading: under a LoopGroup, call between rounds (driver thread) — the same
  // contract as Network::Crash. Single-loop worlds may call from a front-loop task.
  void CrashCoordinator(NodeId replica_id);
  // Restart + recovery + rejoin: restarts the node, rebuilds the replica from snapshot
  // + WAL replay (kicking off its anti-entropy bootstrap), and re-admits it through the
  // live AddCoordinator path at a fresh ring epoch. Works for crashed plain replicas
  // too (skipping ring re-admission unless it was a coordinator when it crashed).
  void RecoverCoordinator(NodeId replica_id);

  // Heartbeat failure detector on the front loop: probes every ring coordinator each
  // kHeartbeatInterval; kMissThreshold consecutive unanswered probes declare it dead
  // and fail over (RemoveCoordinator). Recovered coordinators re-enter probing when
  // re-admitted. The prober is a repeating timer — call DisableFailureDetection() before
  // draining a world to quiescence (RunAll would otherwise never run out of events).
  void EnableFailureDetection();
  void DisableFailureDetection();
  // A ~150 ms detection window — three 50 ms ticks of silence — comfortably above the
  // topology's worst client<->coordinator RTT (IRL<->VRG, 83 ms), so an answered probe
  // always clears the counter before it can reach the threshold.
  static constexpr SimDuration kHeartbeatInterval = Millis(50);
  static constexpr int kMissThreshold = 3;

  const std::vector<FailoverEvent>& failover_log() const { return failover_log_; }
  int64_t failovers() const { return failovers_; }

 private:
  friend ShardedCassandraStack MakeShardedCassandraStack(SimWorld&, int, KvConfig,
                                                         CassandraBindingConfig, Region,
                                                         std::vector<Region>, BatchConfig);
  friend ShardedEndpoint& AddShardedCassandraClient(SimWorld& world,
                                                    ShardedCassandraStack& stack,
                                                    CassandraBindingConfig binding_config,
                                                    Region client_region,
                                                    BatchConfig batch_config);

  ShardedEndpoint& WireEndpoint(CassandraBindingConfig binding_config, Region client_region,
                                BatchConfig batch_config);
  // Rebuilds `endpoint`'s shard vector in ring order and installs the current ring on
  // its router under the ring's epoch.
  void InstallRing(ShardedEndpoint& endpoint);
  KvReplica* FindReplica(NodeId id) const;
  void ScheduleProbe();
  void ProbeOnce();

  SimWorld* world_ = nullptr;
  std::vector<NodeId> coordinator_ids_;            // replicas acting as coordinators, ring order
  std::shared_ptr<const Partitioner> shard_map_;   // RF=1 versioned ring over coordinator_ids
  size_t queue_limit_ = 0;
  std::vector<std::unique_ptr<ShardedEndpoint>> endpoints_;  // [0] is the primary

  // Failure detector state (front loop only).
  bool detection_enabled_ = false;
  TimerId probe_timer_ = 0;
  uint64_t next_probe_id_ = 1;
  std::map<NodeId, int> unanswered_probes_;  // consecutive probes without an ack
  std::vector<FailoverEvent> failover_log_;
  int64_t failovers_ = 0;
};

// Intra-world placement: which LoopGroup slot each piece of a sharded world landed on.
struct IntraWorldPlacement {
  int front_slot = -1;             // clients + routers (the world's own loop)
  std::vector<int> replica_slots;  // parallel to stack.cluster->replicas()
};

// Splits ONE sharded deployment across the loops of `group`: EVERY cluster replica —
// coordinators and join candidates alike — is pinned to its own fresh lane of `world`,
// while every client endpoint and router stays on the world's front loop. Attaches the
// front loop to the group if it is not already attached, binds the world's network to
// the group, and rebinds each replica's timers/service queue to its lane.
//
// One lane per replica (not per coordinator) is what makes LIVE membership honor the
// placement policy: lanes cannot be created after the group starts advancing, so a
// spare promoted via AddCoordinator — or a crashed coordinator re-admitted through
// RecoverCoordinator — must already own the lane it will coordinate on.
//
// Latency trade: messages between loops are delivered at the group's next round
// barrier, so `group.Options::quantum` bounds the added cross-loop latency — a smaller
// quantum tightens client<->coordinator and quorum round trips at the cost of more
// barriers (synchronization overhead) per simulated second. Quanta well under the
// topology's RTTs make the added latency negligible.
//
// Call right after building the stack and its endpoints, before any load runs.
IntraWorldPlacement PlaceShardsAcrossLoops(LoopGroup& group, SimWorld& world,
                                           ShardedCassandraStack& stack);

// Builds a cluster with one replica per `replica_regions` entry and routes traffic
// across the first `n_coordinators` of them (clamped to [1, #replicas]); the remaining
// replicas are join candidates for AddCoordinator.
ShardedCassandraStack MakeShardedCassandraStack(
    SimWorld& world, int n_coordinators, KvConfig kv_config,
    CassandraBindingConfig binding_config, Region client_region = Region::kIreland,
    std::vector<Region> replica_regions = {Region::kFrankfurt, Region::kIreland,
                                           Region::kVirginia},
    BatchConfig batch_config = {});

// Another routed client (own per-coordinator connections + router + library instance)
// against an existing sharded deployment; shares the stack's shard ring so every client
// agrees on key ownership, and participates in the stack's live membership changes. The
// returned reference is owned by (and stable for the lifetime of) the stack.
ShardedEndpoint& AddShardedCassandraClient(SimWorld& world, ShardedCassandraStack& stack,
                                           CassandraBindingConfig binding_config,
                                           Region client_region, BatchConfig batch_config = {});

// ZooKeeper-like deployment: ensemble (leader region configurable), one session client.
struct ZooKeeperStack {
  std::unique_ptr<ZabCluster> cluster;
  std::unique_ptr<ZabClient> zab_client;
  std::shared_ptr<ZooKeeperBinding> binding;
  std::unique_ptr<CorrectableClient> client;
};

ZooKeeperStack MakeZooKeeperStack(
    SimWorld& world, Region client_region = Region::kIreland,
    Region session_region = Region::kFrankfurt, Region leader_region = Region::kIreland,
    std::vector<Region> server_regions = {Region::kIreland, Region::kFrankfurt,
                                          Region::kVirginia});

struct ZooKeeperClientEndpoint {
  std::unique_ptr<ZabClient> zab_client;
  std::shared_ptr<ZooKeeperBinding> binding;
  std::unique_ptr<CorrectableClient> client;
};

ZooKeeperClientEndpoint AddZooKeeperClient(SimWorld& world, ZooKeeperStack& stack,
                                           Region client_region, Region session_region);

// News-reader deployment: primary-backup store + client-side cache, three-level binding.
struct NewsStack {
  std::unique_ptr<PbCluster> cluster;
  std::unique_ptr<PbClient> pb_client;
  std::unique_ptr<ClientCache> cache;
  std::shared_ptr<CachedPbBinding> binding;
  std::unique_ptr<CorrectableClient> client;
};

NewsStack MakeNewsStack(SimWorld& world, Region client_region = Region::kIreland,
                        Region backup_region = Region::kIreland,
                        std::vector<Region> store_regions = {Region::kVirginia,
                                                             Region::kIreland,
                                                             Region::kFrankfurt});

// Cached-causal deployment (the mobile/disconnected scenario): causally consistent
// geo-replicated store + client-side cache, two-level binding.
struct CausalStack {
  std::unique_ptr<CausalCluster> cluster;
  std::unique_ptr<CausalClient> causal_client;
  std::unique_ptr<ClientCache> cache;
  std::shared_ptr<CachedCausalBinding> binding;
  std::unique_ptr<CorrectableClient> client;
};

CausalStack MakeCausalStack(SimWorld& world, Region client_region = Region::kIreland,
                            Region replica_region = Region::kIreland,
                            std::vector<Region> store_regions = {Region::kIreland,
                                                                 Region::kFrankfurt,
                                                                 Region::kVirginia});

}  // namespace icg

#endif  // ICG_HARNESS_DEPLOYMENT_H_
