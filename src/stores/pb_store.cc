#include "src/stores/pb_store.h"

#include <cassert>
#include <utility>

namespace icg {

PbNode::PbNode(Network* network, NodeId id, const std::string& name)
    : network_(network), id_(id), service_(network->loop(), name) {}

void PbNode::HandleRead(NodeId client_id, const std::string& key, PbResponseFn respond) {
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

void PbNode::HandleWrite(NodeId client_id, const std::string& key, std::string value,
                         PbResponseFn respond) {
  service_.Submit(kWriteService, [this, client_id, key, value = std::move(value),
                                  respond = std::move(respond)]() mutable {
    write_seq_ = std::max(static_cast<uint64_t>(network_->loop()->Now()), write_seq_ + 1);
    const Version version{static_cast<SimTime>(write_seq_), id_};
    storage_[key] = Entry{value, version};

    OpResult ack;
    ack.found = true;
    ack.version = version;
    network_->Send(id_, client_id, kResponseHeaderBytes, [respond, ack]() { respond(ack); });

    for (PbNode* backup : backups_) {
      const int64_t bytes = kRequestHeaderBytes + static_cast<int64_t>(key.size()) +
                            static_cast<int64_t>(value.size());
      network_->Send(id_, backup->id(), bytes, [backup, key, value, version]() {
        backup->ApplyReplicated(key, value, version);
      });
    }
  });
}

void PbNode::ApplyReplicated(const std::string& key, std::string value, Version version) {
  service_.Submit(kApplyService, [this, key, value = std::move(value), version]() {
    auto it = storage_.find(key);
    if (it == storage_.end() || it->second.version < version) {
      storage_[key] = Entry{value, version};
    }
  });
}

std::optional<std::string> PbNode::LocalGet(const std::string& key) const {
  auto it = storage_.find(key);
  if (it == storage_.end()) {
    return std::nullopt;
  }
  return it->second.value;
}

void PbNode::LocalPut(const std::string& key, std::string value, Version version) {
  storage_[key] = Entry{std::move(value), version};
}

PbClient::PbClient(Network* network, NodeId id, PbNode* primary, PbNode* backup)
    : network_(network), id_(id), primary_(primary), backup_(backup) {
  assert(primary_ != nullptr && backup_ != nullptr);
}

void PbClient::ReadFrom(PbNode* node, const std::string& key, PbResponseFn respond) {
  const int64_t bytes = kRequestHeaderBytes + static_cast<int64_t>(key.size());
  const NodeId self = id_;
  network_->Send(id_, node->id(), bytes, [node, self, key, respond = std::move(respond)]() {
    node->HandleRead(self, key, respond);
  });
}

void PbClient::ReadWeak(const std::string& key, PbResponseFn respond) {
  ReadFrom(backup_, key, std::move(respond));
}

void PbClient::ReadStrong(const std::string& key, PbResponseFn respond) {
  ReadFrom(primary_, key, std::move(respond));
}

void PbClient::Write(const std::string& key, std::string value, PbResponseFn respond) {
  const int64_t bytes = kRequestHeaderBytes + static_cast<int64_t>(key.size()) +
                        static_cast<int64_t>(value.size());
  PbNode* primary = primary_;
  const NodeId self = id_;
  network_->Send(id_, primary_->id(), bytes,
                 [primary, self, key, value = std::move(value),
                  respond = std::move(respond)]() mutable {
                   primary->HandleWrite(self, key, std::move(value), respond);
                 });
}

PbCluster::PbCluster(Network* network, Topology* topology, const std::vector<Region>& regions)
    : network_(network), topology_(topology) {
  assert(regions.size() >= 2 && "need a primary and at least one backup");
  for (size_t i = 0; i < regions.size(); ++i) {
    const std::string name =
        std::string(i == 0 ? "pb-primary-" : "pb-backup-") + RegionName(regions[i]);
    const NodeId id = topology->AddNode(regions[i], name);
    nodes_.push_back(std::make_unique<PbNode>(network, id, name));
  }
  std::vector<PbNode*> backups;
  for (size_t i = 1; i < nodes_.size(); ++i) {
    backups.push_back(nodes_[i].get());
  }
  nodes_.front()->SetBackups(std::move(backups));
}

PbNode* PbCluster::NodeIn(Region region) {
  for (auto& node : nodes_) {
    if (topology_->RegionOf(node->id()) == region) {
      return node.get();
    }
  }
  return nullptr;
}

std::unique_ptr<PbClient> PbCluster::MakeClient(Region client_region, Region backup_region) {
  PbNode* backup = NodeIn(backup_region);
  assert(backup != nullptr && backup != primary() && "backup_region must host a backup");
  const NodeId id =
      topology_->AddNode(client_region, std::string("pbcli-") + RegionName(client_region));
  return std::make_unique<PbClient>(network_, id, primary(), backup);
}

void PbCluster::Preload(const std::string& key, const std::string& value) {
  for (auto& node : nodes_) {
    node->LocalPut(key, value, Version{1, primary()->id()});
  }
}

}  // namespace icg
