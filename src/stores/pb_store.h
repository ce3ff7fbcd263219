// Primary-backup replicated key-value store: the storage scheme of the paper's Listing 7
// binding example and the news-reader scenario (§4.4).
//
// Writes go to the primary, which applies them and propagates asynchronously to backups.
// Weak reads hit the client's nearest backup (fresh on expectation, possibly stale);
// strong reads hit the primary.
#ifndef ICG_STORES_PB_STORE_H_
#define ICG_STORES_PB_STORE_H_

#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "src/common/inline_function.h"
#include "src/common/metrics.h"
#include "src/common/status.h"
#include "src/correctables/operation.h"
#include "src/sim/network.h"
#include "src/sim/service_queue.h"
#include "src/sim/topology.h"

namespace icg {

// 96 inline bytes: the pipeline's EmitAt adapters (a captured emitter plus a level)
// must reach the store without a heap-allocated callback per request.
using PbResponseFn = InlineFunction<void(StatusOr<OpResult>), 96>;

class PbNode {
 public:
  // Service times on the node's single-server queue.
  static constexpr SimDuration kReadService = Micros(200);
  static constexpr SimDuration kWriteService = Micros(300);
  static constexpr SimDuration kApplyService = Micros(150);

  PbNode(Network* network, NodeId id, const std::string& name);

  // On the primary: the backup set. On backups: empty.
  void SetBackups(std::vector<PbNode*> backups) { backups_ = std::move(backups); }

  void HandleRead(NodeId client_id, const std::string& key, PbResponseFn respond);
  // Primary only: apply, ack, propagate.
  void HandleWrite(NodeId client_id, const std::string& key, std::string value,
                   PbResponseFn respond);
  // Backup side of asynchronous propagation.
  void ApplyReplicated(const std::string& key, std::string value, Version version);

  NodeId id() const { return id_; }
  ServiceQueue& service_queue() { return service_; }

  std::optional<std::string> LocalGet(const std::string& key) const;
  void LocalPut(const std::string& key, std::string value, Version version);

 private:
  struct Entry {
    std::string value;
    Version version;
  };

  Network* network_;
  NodeId id_;
  ServiceQueue service_;
  std::vector<PbNode*> backups_;
  std::map<std::string, Entry> storage_;
  uint64_t write_seq_ = 0;
};

class PbClient {
 public:
  PbClient(Network* network, NodeId id, PbNode* primary, PbNode* backup);

  void ReadWeak(const std::string& key, PbResponseFn respond);    // nearest backup
  void ReadStrong(const std::string& key, PbResponseFn respond);  // primary
  void Write(const std::string& key, std::string value, PbResponseFn respond);

  NodeId id() const { return id_; }

 private:
  void ReadFrom(PbNode* node, const std::string& key, PbResponseFn respond);

  Network* network_;
  NodeId id_;
  PbNode* primary_;
  PbNode* backup_;
};

class PbCluster {
 public:
  // First region hosts the primary; the rest host backups.
  PbCluster(Network* network, Topology* topology, const std::vector<Region>& regions);

  PbNode* primary() const { return nodes_.front().get(); }
  PbNode* NodeIn(Region region);

  // Client bound to the backup in `backup_region` for weak reads.
  std::unique_ptr<PbClient> MakeClient(Region client_region, Region backup_region);

  void Preload(const std::string& key, const std::string& value);

 private:
  Network* network_;
  Topology* topology_;
  std::vector<std::unique_ptr<PbNode>> nodes_;
};

}  // namespace icg

#endif  // ICG_STORES_PB_STORE_H_
