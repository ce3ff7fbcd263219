// Wiring for a quorum-store deployment: one replica per region, clients anywhere.
#ifndef ICG_KVSTORE_CLUSTER_H_
#define ICG_KVSTORE_CLUSTER_H_

#include <memory>
#include <string>
#include <vector>

#include "src/kvstore/partitioner.h"
#include "src/kvstore/replica.h"
#include "src/sim/network.h"
#include "src/sim/topology.h"

namespace icg {

// A client endpoint bound to one coordinator replica, as in the paper's experiments
// (e.g., the IRL client contacting the FRK replica). Byte accounting on the
// client<->coordinator link is what Figure 8 reports.
class KvClient {
 public:
  KvClient(Network* network, NodeId id, KvReplica* coordinator);

  void Read(const std::string& key, const ReadOptions& options, KvResponseFn respond);
  void MultiRead(std::vector<std::string> keys, const ReadOptions& options,
                 KvResponseFn respond);
  // `timestamp` is the client-assigned LWW stamp (0 = let the coordinator stamp at
  // apply time); client stamps keep one writer's program order intact across coordinator
  // handoffs during live rebalancing.
  void Write(const std::string& key, std::string value, KvResponseFn respond,
             SimTime timestamp = 0);
  // One request carrying several writes; the coordinator applies them in order and
  // acknowledges once (cross-tick write batching). `timestamps` (when non-empty) is
  // parallel to `keys`.
  void MultiWrite(std::vector<std::string> keys, std::vector<std::string> values,
                  KvResponseFn respond, std::vector<SimTime> timestamps = {});

  NodeId id() const { return id_; }
  NodeId coordinator_id() const { return coordinator_->id(); }

  // Client<->coordinator traffic in both directions (application bytes).
  int64_t LinkBytes() const;
  int64_t LinkMessages() const;

 private:
  Network* network_;
  NodeId id_;
  KvReplica* coordinator_;
};

class KvCluster {
 public:
  // Adds one replica node per entry of `replica_regions` to the topology and wires the
  // peer mesh. `config` must outlive the cluster.
  KvCluster(Network* network, Topology* topology, const KvConfig* config,
            const std::vector<Region>& replica_regions);

  KvReplica* ReplicaIn(Region region);
  const std::vector<std::unique_ptr<KvReplica>>& replicas() const { return replicas_; }

  // Creates a client located in `client_region`, coordinated by the replica in
  // `coordinator_region`.
  std::unique_ptr<KvClient> MakeClient(Region client_region, Region coordinator_region);

  // Installs `key -> value` consistently on every replica (dataset preloading).
  void Preload(const std::string& key, const std::string& value);

 private:
  Network* network_;
  Topology* topology_;
  std::vector<std::unique_ptr<KvReplica>> replicas_;
  // Names each preloaded key's primary, whose id stamps the preload version. Every
  // replica stores every key (each has all the others as peers), so one owner suffices.
  std::unique_ptr<Partitioner> partitioner_;
};

}  // namespace icg

#endif  // ICG_KVSTORE_CLUSTER_H_
