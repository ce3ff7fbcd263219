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

struct PbConfig {
  SimDuration read_service = Micros(200);
  SimDuration write_service = Micros(300);
  SimDuration apply_service = Micros(150);
  // Incremental cost per additional key in a batched (multi-key) read or write.
  SimDuration multi_per_key_service = Micros(50);
};

// 96 inline bytes: the pipeline's EmitAt adapters (a captured emitter plus a level)
// must reach the store without a heap-allocated callback per request.
using PbResponseFn = InlineFunction<void(StatusOr<OpResult>), 96>;

class PbNode {
 public:
  PbNode(Network* network, NodeId id, const PbConfig* config, const std::string& name);

  // On the primary: the backup set. On backups: empty.
  void SetBackups(std::vector<PbNode*> backups) { backups_ = std::move(backups); }

  void HandleRead(NodeId client_id, const std::string& key, PbResponseFn respond);
  // Batched read: one request, one response with one entry per key in request order
  // (see BatchResult).
  void HandleMultiRead(NodeId client_id, std::vector<std::string> keys, PbResponseFn respond);
  // Primary only: apply, ack, propagate.
  void HandleWrite(NodeId client_id, const std::string& key, std::string value,
                   PbResponseFn respond);
  // Primary only: apply several writes in vector order (program order per key), one ack,
  // propagate each to the backups.
  void HandleMultiWrite(NodeId client_id, std::vector<std::string> keys,
                        std::vector<std::string> values, PbResponseFn respond);
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
  const PbConfig* config_;
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

  // Batched variants: one round-trip covering several keys (cross-tick batching).
  void MultiReadWeak(std::vector<std::string> keys, PbResponseFn respond);
  void MultiReadStrong(std::vector<std::string> keys, PbResponseFn respond);
  void MultiWrite(std::vector<std::string> keys, std::vector<std::string> values,
                  PbResponseFn respond);

  NodeId id() const { return id_; }

 private:
  void ReadFrom(PbNode* node, const std::string& key, PbResponseFn respond);
  void MultiReadFrom(PbNode* node, std::vector<std::string> keys, PbResponseFn respond);

  Network* network_;
  NodeId id_;
  PbNode* primary_;
  PbNode* backup_;
};

class PbCluster {
 public:
  // First region hosts the primary; the rest host backups.
  PbCluster(Network* network, Topology* topology, const PbConfig* config,
            const std::vector<Region>& regions);

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
