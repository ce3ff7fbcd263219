#include "src/stores/causal_store.h"

#include <algorithm>
#include <cassert>
#include <utility>

namespace icg {

CausalReplica::CausalReplica(Network* network, NodeId id, const std::string& name)
    : network_(network), id_(id), service_(network->loop(), name) {}

void CausalReplica::SetOriginIndex(int index, int num_replicas) {
  origin_index_ = index;
  applied_clock_.assign(static_cast<size_t>(num_replicas), 0);
}

void CausalReplica::HandleRead(NodeId client_id, const std::string& key,
                               CausalResponseFn respond) {
  service_.Submit(kReadService, [this, client_id, key, respond = std::move(respond)]() {
    OpResult result;
    if (auto it = storage_.find(key); it != storage_.end()) {
      result.found = true;
      result.value = it->second.value;
      result.version = it->second.version;
    }
    network_->Send(id_, client_id, result.WireBytes(), [respond, result]() { respond(result); });
  });
}

void CausalReplica::HandleWrite(NodeId client_id, const std::string& key, std::string value,
                                CausalResponseFn respond) {
  service_.Submit(kWriteService, [this, client_id, key, value = std::move(value),
                                  respond = std::move(respond)]() mutable {
    lamport_++;
    const Version version{lamport_, id_};
    const int64_t origin_seq = next_origin_seq_++;
    storage_[key] = Entry{value, version};
    applied_clock_[static_cast<size_t>(origin_index_)] = origin_seq;

    // Everything applied here happens-before this write, so remote replicas must reach
    // this dependency clock before applying it.
    const std::vector<int64_t> deps = applied_clock_;
    for (CausalReplica* peer : peers_) {
      const int64_t bytes = kRequestHeaderBytes + static_cast<int64_t>(key.size()) +
                            static_cast<int64_t>(value.size()) +
                            static_cast<int64_t>(deps.size()) * 8;
      const int origin = origin_index_;
      network_->Send(id_, peer->id(), bytes,
                     [peer, origin, origin_seq, deps, key, value, version]() {
                       peer->HandleReplicated(origin, origin_seq, deps, key, value, version);
                     });
    }

    OpResult ack;
    ack.found = true;
    ack.version = version;
    network_->Send(id_, client_id, kResponseHeaderBytes, [respond, ack]() { respond(ack); });
  });
}

void CausalReplica::HandleReplicated(int origin, int64_t origin_seq, std::vector<int64_t> deps,
                                     const std::string& key, std::string value, Version version) {
  service_.Submit(kApplyService,
                  [this, origin, origin_seq, deps = std::move(deps), key,
                   value = std::move(value), version]() mutable {
                    pending_.push_back(PendingWrite{origin, origin_seq, std::move(deps), key,
                                                    std::move(value), version});
                    TryApplyPending();
                  });
}

bool CausalReplica::DepsSatisfied(const PendingWrite& write) const {
  // The write itself accounts for one slot of its origin's clock: dependency on its own
  // origin is "everything the origin applied before it", i.e. origin_seq - 1.
  for (size_t i = 0; i < applied_clock_.size(); ++i) {
    const int64_t needed = (static_cast<int>(i) == write.origin)
                               ? write.origin_seq - 1
                               : write.deps[i];
    if (applied_clock_[i] < needed) {
      return false;
    }
  }
  // Per-origin FIFO: apply origin's writes in sequence order.
  return applied_clock_[static_cast<size_t>(write.origin)] == write.origin_seq - 1;
}

void CausalReplica::ApplyWrite(const PendingWrite& write) {
  auto it = storage_.find(write.key);
  if (it == storage_.end() || it->second.version < write.version) {
    storage_[write.key] = Entry{write.value, write.version};
  }
  lamport_ = std::max(lamport_, write.version.timestamp);
  applied_clock_[static_cast<size_t>(write.origin)] = write.origin_seq;
}

void CausalReplica::TryApplyPending() {
  bool progressed = true;
  while (progressed) {
    progressed = false;
    for (auto it = pending_.begin(); it != pending_.end(); ++it) {
      if (DepsSatisfied(*it)) {
        ApplyWrite(*it);
        pending_.erase(it);
        progressed = true;
        break;  // iterators invalidated; rescan
      }
    }
  }
}

std::optional<std::string> CausalReplica::LocalGet(const std::string& key) const {
  auto it = storage_.find(key);
  if (it == storage_.end()) {
    return std::nullopt;
  }
  return it->second.value;
}

void CausalReplica::LocalPut(const std::string& key, std::string value, Version version) {
  storage_[key] = Entry{std::move(value), version};
}

std::optional<OpResult> ClientCache::Get(const std::string& key) {
  auto it = entries_.find(key);
  if (it == entries_.end()) {
    misses_++;
    return std::nullopt;
  }
  hits_++;
  return it->second;
}

void ClientCache::Put(const std::string& key, const OpResult& result) {
  if (entries_.find(key) == entries_.end()) {
    lru_.push_back(key);
  }
  entries_[key] = result;
  EvictIfNeeded();
}

void ClientCache::Refresh(const std::string& key, const OpResult& result) {
  auto it = entries_.find(key);
  if (it != entries_.end() && it->second.found && it->second.version > result.version) {
    return;  // cached entry is fresher; a reordered weaker view must not regress it
  }
  Put(key, result);
}

void ClientCache::Clear() {
  entries_.clear();
  lru_.clear();
}

void ClientCache::EvictIfNeeded() {
  while (entries_.size() > capacity_ && !lru_.empty()) {
    entries_.erase(lru_.front());
    lru_.pop_front();
  }
}

CausalClient::CausalClient(Network* network, NodeId id, CausalReplica* replica)
    : network_(network), id_(id), replica_(replica) {
  assert(replica_ != nullptr);
}

void CausalClient::Read(const std::string& key, CausalResponseFn respond) {
  const int64_t bytes = kRequestHeaderBytes + static_cast<int64_t>(key.size());
  CausalReplica* replica = replica_;
  const NodeId self = id_;
  network_->Send(id_, replica_->id(), bytes, [replica, self, key, respond = std::move(respond)]() {
    replica->HandleRead(self, key, respond);
  });
}

void CausalClient::Write(const std::string& key, std::string value, CausalResponseFn respond) {
  const int64_t bytes = kRequestHeaderBytes + static_cast<int64_t>(key.size()) +
                        static_cast<int64_t>(value.size());
  CausalReplica* replica = replica_;
  const NodeId self = id_;
  network_->Send(id_, replica_->id(), bytes,
                 [replica, self, key, value = std::move(value),
                  respond = std::move(respond)]() mutable {
                   replica->HandleWrite(self, key, std::move(value), respond);
                 });
}

CausalCluster::CausalCluster(Network* network, Topology* topology,
                             const std::vector<Region>& regions)
    : network_(network), topology_(topology) {
  for (const Region region : regions) {
    const std::string name = std::string("causal-") + RegionName(region);
    const NodeId id = topology->AddNode(region, name);
    replicas_.push_back(std::make_unique<CausalReplica>(network, id, name));
  }
  for (size_t i = 0; i < replicas_.size(); ++i) {
    std::vector<CausalReplica*> peers;
    for (auto& other : replicas_) {
      if (other.get() != replicas_[i].get()) {
        peers.push_back(other.get());
      }
    }
    replicas_[i]->SetPeers(std::move(peers));
    replicas_[i]->SetOriginIndex(static_cast<int>(i), static_cast<int>(regions.size()));
  }
}

CausalReplica* CausalCluster::ReplicaIn(Region region) {
  for (auto& replica : replicas_) {
    if (topology_->RegionOf(replica->id()) == region) {
      return replica.get();
    }
  }
  return nullptr;
}

std::unique_ptr<CausalClient> CausalCluster::MakeClient(Region client_region,
                                                        Region replica_region) {
  CausalReplica* replica = ReplicaIn(replica_region);
  assert(replica != nullptr);
  const NodeId id =
      topology_->AddNode(client_region, std::string("causalcli-") + RegionName(client_region));
  return std::make_unique<CausalClient>(network_, id, replica);
}

void CausalCluster::Preload(const std::string& key, const std::string& value) {
  for (auto& replica : replicas_) {
    replica->LocalPut(key, value, Version{1, replicas_.front()->id()});
  }
}

}  // namespace icg
