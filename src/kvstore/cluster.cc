#include "src/kvstore/cluster.h"

#include <cassert>
#include <utility>

namespace icg {

KvClient::KvClient(Network* network, NodeId id, KvReplica* coordinator)
    : network_(network), id_(id), coordinator_(coordinator) {
  assert(coordinator_ != nullptr);
}

void KvClient::Read(const std::string& key, const ReadOptions& options, KvResponseFn respond) {
  const int64_t bytes = kRequestHeaderBytes + static_cast<int64_t>(key.size());
  KvReplica* coordinator = coordinator_;
  const NodeId self = id_;
  network_->Send(id_, coordinator_->id(), bytes,
                 [coordinator, self, key, options, respond = std::move(respond)]() {
                   coordinator->CoordinateRead(self, key, options, respond);
                 });
}

void KvClient::MultiRead(std::vector<std::string> keys, const ReadOptions& options,
                         KvResponseFn respond) {
  int64_t bytes = kRequestHeaderBytes;
  for (const auto& key : keys) {
    bytes += static_cast<int64_t>(key.size()) + 2;
  }
  KvReplica* coordinator = coordinator_;
  const NodeId self = id_;
  network_->Send(id_, coordinator_->id(), bytes,
                 [coordinator, self, keys = std::move(keys), options,
                  respond = std::move(respond)]() mutable {
                   coordinator->CoordinateMultiRead(self, std::move(keys), options, respond);
                 });
}

void KvClient::Write(const std::string& key, std::string value, KvResponseFn respond,
                     SimTime timestamp) {
  const int64_t bytes = kRequestHeaderBytes + static_cast<int64_t>(key.size()) +
                        static_cast<int64_t>(value.size()) + (timestamp != 0 ? 8 : 0);
  KvReplica* coordinator = coordinator_;
  const NodeId self = id_;
  network_->Send(id_, coordinator_->id(), bytes,
                 [coordinator, self, key, value = std::move(value), timestamp,
                  respond = std::move(respond)]() mutable {
                   coordinator->CoordinateWrite(self, key, std::move(value), respond,
                                                timestamp);
                 });
}

void KvClient::MultiWrite(std::vector<std::string> keys, std::vector<std::string> values,
                          KvResponseFn respond, std::vector<SimTime> timestamps) {
  int64_t bytes = kRequestHeaderBytes;
  for (const auto& key : keys) {
    bytes += static_cast<int64_t>(key.size()) + 2;
  }
  for (const auto& value : values) {
    bytes += static_cast<int64_t>(value.size()) + 2;
  }
  bytes += static_cast<int64_t>(timestamps.size()) * 8;  // per-entry client stamps
  KvReplica* coordinator = coordinator_;
  const NodeId self = id_;
  network_->Send(id_, coordinator_->id(), bytes,
                 [coordinator, self, keys = std::move(keys), values = std::move(values),
                  timestamps = std::move(timestamps), respond = std::move(respond)]() mutable {
                   coordinator->CoordinateMultiWrite(self, std::move(keys), std::move(values),
                                                     respond, std::move(timestamps));
                 });
}

int64_t KvClient::LinkBytes() const { return network_->BytesBetween(id_, coordinator_->id()); }

int64_t KvClient::LinkMessages() const {
  return network_->MessagesBetween(id_, coordinator_->id());
}

KvCluster::KvCluster(Network* network, Topology* topology, const KvConfig* config,
                     const std::vector<Region>& replica_regions)
    : network_(network), topology_(topology) {
  std::vector<NodeId> ids;
  for (const Region region : replica_regions) {
    const NodeId id = topology->AddNode(region, std::string("kv-") + RegionName(region));
    replicas_.push_back(std::make_unique<KvReplica>(network, id, config,
                                                    std::string("kv-") + RegionName(region)));
    ids.push_back(id);
  }
  partitioner_ = std::make_unique<Partitioner>(ids, /*replication_factor=*/1);
  for (auto& replica : replicas_) {
    std::vector<KvReplica*> peers;
    for (auto& other : replicas_) {
      if (other.get() != replica.get()) {
        peers.push_back(other.get());
      }
    }
    replica->SetPeers(std::move(peers));
  }
}

KvReplica* KvCluster::ReplicaIn(Region region) {
  for (auto& replica : replicas_) {
    if (topology_->RegionOf(replica->id()) == region) {
      return replica.get();
    }
  }
  return nullptr;
}

std::unique_ptr<KvClient> KvCluster::MakeClient(Region client_region, Region coordinator_region) {
  KvReplica* coordinator = ReplicaIn(coordinator_region);
  assert(coordinator != nullptr);
  const NodeId id =
      topology_->AddNode(client_region, std::string("client-") + RegionName(client_region));
  return std::make_unique<KvClient>(network_, id, coordinator);
}

void KvCluster::Preload(const std::string& key, const std::string& value) {
  // Version {1, primary} predates any runtime write (runtime timestamps are virtual
  // times >= startup), so preloaded data loses LWW ties to every real write. Every
  // replica shares one buffer, and the last takes the handle itself: each copy is an
  // atomic increment, a full barrier on x86, and a preload makes one per key and replica.
  const Version version{1, partitioner_->PrimaryFor(key)};
  ValueRef shared(value);
  for (size_t i = 0; i + 1 < replicas_.size(); ++i) {
    replicas_[i]->LocalPut(key, shared, version);
  }
  replicas_.back()->LocalPut(key, std::move(shared), version);
}

}  // namespace icg
