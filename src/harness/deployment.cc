#include "src/harness/deployment.h"

#include <algorithm>
#include <cassert>
#include <utility>

namespace icg {

CassandraStack MakeCassandraStack(SimWorld& world, KvConfig kv_config,
                                  CassandraBindingConfig binding_config, Region client_region,
                                  Region coordinator_region, std::vector<Region> replica_regions,
                                  BatchConfig batch_config) {
  CassandraStack stack;
  stack.config = std::make_unique<KvConfig>(kv_config);
  stack.cluster = std::make_unique<KvCluster>(&world.network(), &world.topology(),
                                              stack.config.get(), replica_regions);
  stack.kv_client = stack.cluster->MakeClient(client_region, coordinator_region);
  stack.binding = std::make_shared<CassandraBinding>(stack.kv_client.get(), binding_config);
  stack.client = std::make_unique<CorrectableClient>(stack.binding, &world.loop());
  stack.client->SetBatchConfig(batch_config);
  return stack;
}

CassandraClientEndpoint AddCassandraClient(SimWorld& world, CassandraStack& stack,
                                           CassandraBindingConfig binding_config,
                                           Region client_region, Region coordinator_region,
                                           BatchConfig batch_config) {
  CassandraClientEndpoint endpoint;
  endpoint.kv_client = stack.cluster->MakeClient(client_region, coordinator_region);
  endpoint.binding =
      std::make_shared<CassandraBinding>(endpoint.kv_client.get(), binding_config);
  endpoint.client = std::make_unique<CorrectableClient>(endpoint.binding, &world.loop());
  endpoint.client->SetBatchConfig(batch_config);
  return endpoint;
}

namespace {

// Key -> shard index through the versioned coordinator ring. The ring is captured as a
// shared_ptr-to-const (a membership change builds a successor ring rather than mutating
// this one), and the id list is copied, so the closure stays valid however the stack
// moves — and however many rings supersede it.
ShardFn RingShardFn(std::shared_ptr<const Partitioner> ring, std::vector<NodeId> coordinators) {
  return [ring = std::move(ring),
          coordinators = std::move(coordinators)](const std::string& key) -> size_t {
    const NodeId primary = ring->PrimaryFor(key);
    for (size_t i = 0; i < coordinators.size(); ++i) {
      if (coordinators[i] == primary) {
        return i;
      }
    }
    return 0;  // unreachable: the ring only contains coordinator ids
  };
}

}  // namespace

KvReplica* ShardedCassandraStack::FindReplica(NodeId id) const {
  for (const auto& replica : cluster->replicas()) {
    if (replica->id() == id) {
      return replica.get();
    }
  }
  return nullptr;
}

void ShardedCassandraStack::InstallRing(ShardedEndpoint& endpoint) {
  std::vector<std::shared_ptr<Binding>> shards(endpoint.shard_bindings.begin(),
                                               endpoint.shard_bindings.end());
  if (endpoint.router == nullptr) {
    endpoint.router = std::make_shared<BindingRouter>(
        std::move(shards), RingShardFn(shard_map_, coordinator_ids_), shard_map_->epoch());
  } else {
    const Status installed = endpoint.router->ApplyRing(
        shard_map_->epoch(), std::move(shards), RingShardFn(shard_map_, coordinator_ids_));
    assert(installed.ok());
    (void)installed;
  }
  endpoint.router->SetShardQueueLimit(queue_limit_);
}

ShardedEndpoint& ShardedCassandraStack::WireEndpoint(CassandraBindingConfig binding_config,
                                                     Region client_region,
                                                     BatchConfig batch_config) {
  auto endpoint = std::make_unique<ShardedEndpoint>();
  endpoint->region = client_region;
  endpoint->binding_config = binding_config;
  endpoint->client_node = world_->topology().AddNode(
      client_region, std::string("client-") + RegionName(client_region));
  for (const NodeId coordinator_id : coordinator_ids_) {
    KvReplica* coordinator = FindReplica(coordinator_id);
    assert(coordinator != nullptr);
    endpoint->kv_clients.push_back(
        std::make_unique<KvClient>(&world_->network(), endpoint->client_node, coordinator));
    endpoint->shard_bindings.push_back(
        std::make_shared<CassandraBinding>(endpoint->kv_clients.back().get(), binding_config));
  }
  InstallRing(*endpoint);
  endpoint->client = std::make_unique<CorrectableClient>(endpoint->router, &world_->loop());
  endpoint->client->SetBatchConfig(batch_config);
  endpoints_.push_back(std::move(endpoint));
  return *endpoints_.back();
}

Partitioner::RingDiff ShardedCassandraStack::AddCoordinator(NodeId replica_id) {
  KvReplica* replica = FindReplica(replica_id);
  assert(replica != nullptr && "AddCoordinator needs a replica of this cluster");
  assert(std::find(coordinator_ids_.begin(), coordinator_ids_.end(), replica_id) ==
             coordinator_ids_.end() &&
         "replica is already a coordinator");
  const std::shared_ptr<const Partitioner> old_ring = shard_map_;
  coordinator_ids_.push_back(replica_id);
  shard_map_ =
      std::make_shared<const Partitioner>(old_ring->WithNodes(coordinator_ids_));
  const Partitioner::RingDiff diff = Partitioner::Diff(*old_ring, *shard_map_);
  for (const auto& endpoint : endpoints_) {
    endpoint->kv_clients.push_back(
        std::make_unique<KvClient>(&world_->network(), endpoint->client_node, replica));
    endpoint->shard_bindings.push_back(std::make_shared<CassandraBinding>(
        endpoint->kv_clients.back().get(), endpoint->binding_config));
    InstallRing(*endpoint);
  }
  return diff;
}

Partitioner::RingDiff ShardedCassandraStack::RemoveCoordinator(NodeId replica_id) {
  const auto it = std::find(coordinator_ids_.begin(), coordinator_ids_.end(), replica_id);
  assert(it != coordinator_ids_.end() && "not a coordinator");
  assert(coordinator_ids_.size() > 1 && "cannot remove the last coordinator");
  const size_t index = static_cast<size_t>(it - coordinator_ids_.begin());
  const std::shared_ptr<const Partitioner> old_ring = shard_map_;
  coordinator_ids_.erase(it);
  shard_map_ =
      std::make_shared<const Partitioner>(old_ring->WithNodes(coordinator_ids_));
  const Partitioner::RingDiff diff = Partitioner::Diff(*old_ring, *shard_map_);
  for (const auto& endpoint : endpoints_) {
    // Retire rather than free: invocations already in flight against this coordinator
    // hold raw pointers into the binding and its connection; they finish their view
    // sequences while new traffic routes through the successor ring.
    endpoint->retired_kv_clients.push_back(std::move(endpoint->kv_clients[index]));
    endpoint->retired_bindings.push_back(std::move(endpoint->shard_bindings[index]));
    endpoint->kv_clients.erase(endpoint->kv_clients.begin() + static_cast<long>(index));
    endpoint->shard_bindings.erase(endpoint->shard_bindings.begin() +
                                   static_cast<long>(index));
    InstallRing(*endpoint);
  }
  return diff;
}

void ShardedCassandraStack::SetShardQueueLimit(size_t limit) {
  queue_limit_ = limit;
  for (const auto& endpoint : endpoints_) {
    endpoint->router->SetShardQueueLimit(limit);
  }
}

void ShardedCassandraStack::SetBatchWindow(SimDuration window) {
  for (const auto& endpoint : endpoints_) {
    endpoint->client->SetBatchConfig(BatchConfig{window});
  }
}

void ShardedCassandraStack::CrashCoordinator(NodeId replica_id) {
  KvReplica* replica = FindReplica(replica_id);
  assert(replica != nullptr && "CrashCoordinator needs a replica of this cluster");
  world_->network().Crash(replica_id);
  replica->Crash();
  FailoverEvent event;
  event.node = replica_id;
  event.crashed_at = world_->loop().Now();
  event.was_coordinator =
      std::find(coordinator_ids_.begin(), coordinator_ids_.end(), replica_id) !=
      coordinator_ids_.end();
  failover_log_.push_back(event);
}

void ShardedCassandraStack::RecoverCoordinator(NodeId replica_id) {
  KvReplica* replica = FindReplica(replica_id);
  assert(replica != nullptr && "RecoverCoordinator needs a replica of this cluster");
  world_->network().Restart(replica_id);
  replica->Recover();
  bool was_coordinator = false;
  for (auto it = failover_log_.rbegin(); it != failover_log_.rend(); ++it) {
    if (it->node == replica_id && it->rejoined_at < 0) {
      it->rejoined_at = world_->loop().Now();
      was_coordinator = it->was_coordinator;
      break;
    }
  }
  // Re-admit through the live membership path — but only if the detector actually
  // routed around it. A replica recovered before detection fired is still in the ring;
  // AddCoordinator would double-insert it.
  const bool in_ring = std::find(coordinator_ids_.begin(), coordinator_ids_.end(),
                                 replica_id) != coordinator_ids_.end();
  if (was_coordinator && !in_ring) {
    AddCoordinator(replica_id);
  }
  unanswered_probes_[replica_id] = 0;
}

void ShardedCassandraStack::EnableFailureDetection() {
  for (const NodeId id : coordinator_ids_) {
    unanswered_probes_[id] = 0;
  }
  if (detection_enabled_) {
    return;  // already probing
  }
  detection_enabled_ = true;
  ScheduleProbe();
}

void ShardedCassandraStack::DisableFailureDetection() {
  detection_enabled_ = false;
  if (probe_timer_ != 0) {
    world_->loop().Cancel(probe_timer_);
    probe_timer_ = 0;
  }
}

void ShardedCassandraStack::ScheduleProbe() {
  probe_timer_ = world_->loop().Schedule(kHeartbeatInterval, [this]() {
    probe_timer_ = 0;
    if (!detection_enabled_) {
      return;
    }
    ProbeOnce();
    ScheduleProbe();
  });
}

void ShardedCassandraStack::ProbeOnce() {
  // Pass 1: evict anyone past the miss threshold. Collected before mutating so the
  // ring edit cannot invalidate the iteration.
  std::vector<NodeId> dead;
  for (const NodeId id : coordinator_ids_) {
    if (unanswered_probes_[id] >= kMissThreshold) {
      dead.push_back(id);
    }
  }
  for (const NodeId id : dead) {
    if (coordinator_ids_.size() <= 1) {
      break;  // never evict the last coordinator; keep probing until someone rejoins
    }
    RemoveCoordinator(id);
    failovers_ += 1;
    unanswered_probes_.erase(id);
    for (auto it = failover_log_.rbegin(); it != failover_log_.rend(); ++it) {
      if (it->node == id && it->detected_at < 0) {
        it->detected_at = world_->loop().Now();
        break;
      }
    }
  }
  // Pass 2: probe every current ring member from the primary endpoint's node. Replies
  // ride the network back to the front loop and clear the counter; probes to a corpse
  // are dropped at send (Network crash semantics), so only silence accumulates.
  const NodeId prober = primary().client_node;
  for (const NodeId id : coordinator_ids_) {
    KvReplica* replica = FindReplica(id);
    assert(replica != nullptr);
    unanswered_probes_[id] += 1;
    const uint64_t probe_id = next_probe_id_++;
    world_->network().Send(
        prober, id, kRequestHeaderBytes, [this, replica, prober, probe_id]() {
          replica->HandlePing(prober, probe_id, [this, id = replica->id()](uint64_t) {
            const auto it = unanswered_probes_.find(id);
            if (it != unanswered_probes_.end()) {
              it->second = 0;  // late replies from an evicted node find no entry
            }
          });
        });
  }
}

ShardedCassandraStack MakeShardedCassandraStack(SimWorld& world, int n_coordinators,
                                                KvConfig kv_config,
                                                CassandraBindingConfig binding_config,
                                                Region client_region,
                                                std::vector<Region> replica_regions,
                                                BatchConfig batch_config) {
  ShardedCassandraStack stack;
  stack.world_ = &world;
  stack.config = std::make_unique<KvConfig>(kv_config);
  stack.cluster = std::make_unique<KvCluster>(&world.network(), &world.topology(),
                                              stack.config.get(), replica_regions);
  const auto& replicas = stack.cluster->replicas();
  const size_t coordinators =
      std::min(replicas.size(), static_cast<size_t>(std::max(n_coordinators, 1)));
  for (size_t i = 0; i < coordinators; ++i) {
    stack.coordinator_ids_.push_back(replicas[i]->id());
  }
  stack.shard_map_ = std::make_shared<const Partitioner>(stack.coordinator_ids_,
                                                         /*replication_factor=*/1);
  stack.WireEndpoint(binding_config, client_region, batch_config);
  return stack;
}

ShardedEndpoint& AddShardedCassandraClient(SimWorld& world, ShardedCassandraStack& stack,
                                           CassandraBindingConfig binding_config,
                                           Region client_region, BatchConfig batch_config) {
  (void)world;  // the stack already carries its world; kept for call-site symmetry
  return stack.WireEndpoint(binding_config, client_region, batch_config);
}

IntraWorldPlacement PlaceShardsAcrossLoops(LoopGroup& group, SimWorld& world,
                                           ShardedCassandraStack& stack) {
  IntraWorldPlacement placement;
  placement.front_slot = group.IndexOf(&world.loop());
  if (placement.front_slot < 0) {
    placement.front_slot = group.Attach(&world.loop());
  }
  world.network().BindGroup(&group);

  // One fresh lane per replica — coordinators AND join candidates. Lanes cannot be
  // created once the group advances, so any replica that may ever coordinate (a spare
  // promoted via AddCoordinator, a crashed coordinator re-admitted by
  // RecoverCoordinator) must own its lane from the start; sharing would put two
  // coordinators' service queues on one thread and break the placement policy for
  // live membership changes.
  for (const auto& replica : stack.cluster->replicas()) {
    const int slot = group.Attach(&world.AddLane());
    world.network().PlaceNode(replica->id(), slot);
    replica->RebindLoop();
    placement.replica_slots.push_back(slot);
  }
  return placement;
}

ZooKeeperStack MakeZooKeeperStack(SimWorld& world, ZabConfig zab_config, Region client_region,
                                  Region session_region, Region leader_region,
                                  std::vector<Region> server_regions) {
  ZooKeeperStack stack;
  stack.config = std::make_unique<ZabConfig>(zab_config);
  stack.cluster = std::make_unique<ZabCluster>(&world.network(), &world.topology(),
                                               stack.config.get(), server_regions,
                                               leader_region);
  stack.zab_client = stack.cluster->MakeClient(client_region, session_region);
  stack.binding = std::make_shared<ZooKeeperBinding>(stack.zab_client.get());
  stack.client = std::make_unique<CorrectableClient>(stack.binding, &world.loop());
  return stack;
}

ZooKeeperClientEndpoint AddZooKeeperClient(SimWorld& world, ZooKeeperStack& stack,
                                           Region client_region, Region session_region) {
  ZooKeeperClientEndpoint endpoint;
  endpoint.zab_client = stack.cluster->MakeClient(client_region, session_region);
  endpoint.binding = std::make_shared<ZooKeeperBinding>(endpoint.zab_client.get());
  endpoint.client = std::make_unique<CorrectableClient>(endpoint.binding, &world.loop());
  return endpoint;
}

NewsStack MakeNewsStack(SimWorld& world, PbConfig pb_config, Region client_region,
                        Region backup_region, std::vector<Region> store_regions,
                        BatchConfig batch_config) {
  NewsStack stack;
  stack.config = std::make_unique<PbConfig>(pb_config);
  stack.cluster = std::make_unique<PbCluster>(&world.network(), &world.topology(),
                                              stack.config.get(), store_regions);
  stack.pb_client = stack.cluster->MakeClient(client_region, backup_region);
  stack.cache = std::make_unique<ClientCache>();
  stack.binding =
      std::make_shared<CachedPbBinding>(stack.pb_client.get(), stack.cache.get());
  stack.client = std::make_unique<CorrectableClient>(stack.binding, &world.loop());
  stack.client->SetBatchConfig(batch_config);
  return stack;
}

CausalStack MakeCausalStack(SimWorld& world, CausalConfig causal_config, Region client_region,
                            Region replica_region, std::vector<Region> store_regions,
                            BatchConfig batch_config) {
  CausalStack stack;
  stack.config = std::make_unique<CausalConfig>(causal_config);
  stack.cluster = std::make_unique<CausalCluster>(&world.network(), &world.topology(),
                                                  stack.config.get(), store_regions);
  stack.causal_client = stack.cluster->MakeClient(client_region, replica_region);
  stack.cache = std::make_unique<ClientCache>();
  stack.binding =
      std::make_shared<CachedCausalBinding>(stack.causal_client.get(), stack.cache.get());
  stack.client = std::make_unique<CorrectableClient>(stack.binding, &world.loop());
  stack.client->SetBatchConfig(batch_config);
  return stack;
}

}  // namespace icg
