#include "src/stores/pb_store.h"

#include <cassert>
#include <utility>

namespace icg {

PbNode::PbNode(Network* network, NodeId id, const PbConfig* config, const std::string& name)
    : network_(network), id_(id), config_(config), service_(network->loop(), name) {}

void PbNode::HandleRead(NodeId client_id, const std::string& key, PbResponseFn respond) {
  service_.Submit(config_->read_service, [this, client_id, key, respond = std::move(respond)]() {
    OpResult result;
    if (auto it = storage_.find(key); it != storage_.end()) {
      result.found = true;
      result.value = it->second.value;
      result.version = it->second.version;
    }
    network_->Send(id_, client_id, result.WireBytes(), [respond, result]() { respond(result); });
  });
}

void PbNode::HandleMultiRead(NodeId client_id, std::vector<std::string> keys,
                             PbResponseFn respond) {
  const SimDuration service =
      config_->read_service + (keys.empty() ? 0
                                            : static_cast<SimDuration>(keys.size() - 1) *
                                                  config_->multi_per_key_service);
  service_.Submit(service, [this, client_id, keys = std::move(keys),
                            respond = std::move(respond)]() {
    const OpResult result =
        MultiLookup(keys, [this](const std::string& key) -> std::optional<OpResult> {
          auto it = storage_.find(key);
          if (it == storage_.end()) {
            return std::nullopt;
          }
          OpResult hit;
          hit.found = true;
          hit.value = it->second.value;
          hit.version = it->second.version;
          return hit;
        });
    network_->Send(id_, client_id, result.WireBytes(), [respond, result]() { respond(result); });
  });
}

void PbNode::HandleWrite(NodeId client_id, const std::string& key, std::string value,
                         PbResponseFn respond) {
  service_.Submit(config_->write_service, [this, client_id, key, value = std::move(value),
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

void PbNode::HandleMultiWrite(NodeId client_id, std::vector<std::string> keys,
                              std::vector<std::string> values, PbResponseFn respond) {
  if (keys.empty() || keys.size() != values.size()) {
    network_->Send(id_, client_id, kResponseHeaderBytes, [respond = std::move(respond)]() {
      respond(Status::InvalidArgument("multiwrite needs matching non-empty key/value lists"));
    });
    return;
  }
  const SimDuration service =
      config_->write_service +
      static_cast<SimDuration>(keys.size() - 1) * config_->multi_per_key_service;
  service_.Submit(service, [this, client_id, keys = std::move(keys),
                            values = std::move(values), respond = std::move(respond)]() mutable {
    std::vector<OpResult> acked(keys.size());
    for (size_t i = 0; i < keys.size(); ++i) {
      write_seq_ = std::max(static_cast<uint64_t>(network_->loop()->Now()), write_seq_ + 1);
      const Version version{static_cast<SimTime>(write_seq_), id_};
      acked[i].found = true;
      acked[i].version = version;
      storage_[keys[i]] = Entry{values[i], version};
      for (PbNode* backup : backups_) {
        const int64_t bytes = kRequestHeaderBytes + static_cast<int64_t>(keys[i].size()) +
                              static_cast<int64_t>(values[i].size());
        network_->Send(id_, backup->id(), bytes,
                       [backup, key = keys[i], value = values[i], version]() {
                         backup->ApplyReplicated(key, value, version);
                       });
      }
    }
    network_->Send(id_, client_id, kResponseHeaderBytes,
                   [respond, ack = BatchResult(std::move(acked))]() { respond(ack); });
  });
}

void PbNode::ApplyReplicated(const std::string& key, std::string value, Version version) {
  service_.Submit(config_->apply_service, [this, key, value = std::move(value), version]() {
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

void PbClient::MultiReadFrom(PbNode* node, std::vector<std::string> keys,
                             PbResponseFn respond) {
  int64_t bytes = kRequestHeaderBytes;
  for (const auto& key : keys) {
    bytes += static_cast<int64_t>(key.size()) + 2;
  }
  const NodeId self = id_;
  network_->Send(id_, node->id(), bytes,
                 [node, self, keys = std::move(keys), respond = std::move(respond)]() mutable {
                   node->HandleMultiRead(self, std::move(keys), respond);
                 });
}

void PbClient::ReadWeak(const std::string& key, PbResponseFn respond) {
  ReadFrom(backup_, key, std::move(respond));
}

void PbClient::ReadStrong(const std::string& key, PbResponseFn respond) {
  ReadFrom(primary_, key, std::move(respond));
}

void PbClient::MultiReadWeak(std::vector<std::string> keys, PbResponseFn respond) {
  MultiReadFrom(backup_, std::move(keys), std::move(respond));
}

void PbClient::MultiReadStrong(std::vector<std::string> keys, PbResponseFn respond) {
  MultiReadFrom(primary_, std::move(keys), std::move(respond));
}

void PbClient::MultiWrite(std::vector<std::string> keys, std::vector<std::string> values,
                          PbResponseFn respond) {
  int64_t bytes = kRequestHeaderBytes;
  for (const auto& key : keys) {
    bytes += static_cast<int64_t>(key.size()) + 2;
  }
  for (const auto& value : values) {
    bytes += static_cast<int64_t>(value.size()) + 2;
  }
  PbNode* primary = primary_;
  const NodeId self = id_;
  network_->Send(id_, primary_->id(), bytes,
                 [primary, self, keys = std::move(keys), values = std::move(values),
                  respond = std::move(respond)]() mutable {
                   primary->HandleMultiWrite(self, std::move(keys), std::move(values), respond);
                 });
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

PbCluster::PbCluster(Network* network, Topology* topology, const PbConfig* config,
                     const std::vector<Region>& regions)
    : network_(network), topology_(topology) {
  assert(regions.size() >= 2 && "need a primary and at least one backup");
  for (size_t i = 0; i < regions.size(); ++i) {
    const std::string name =
        std::string(i == 0 ? "pb-primary-" : "pb-backup-") + RegionName(regions[i]);
    const NodeId id = topology->AddNode(regions[i], name);
    nodes_.push_back(std::make_unique<PbNode>(network, id, config, name));
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
