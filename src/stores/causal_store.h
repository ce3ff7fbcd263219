// A causally consistent geo-replicated store plus a write-through client cache: the
// substrate of the paper's third binding (§5.2, "Causal Consistency and Caching").
//
// Causality mechanism: each replica accepts writes locally, stamps them with a Lamport
// clock and a per-origin sequence number, and replicates asynchronously. Remote writes
// apply in per-origin FIFO order and only once all their declared dependencies (the
// origin's clock snapshot) are satisfied locally — the classic dependency-check scheme
// (COPS/GentleRain style, simplified to full-replica dependency clocks).
#ifndef ICG_STORES_CAUSAL_STORE_H_
#define ICG_STORES_CAUSAL_STORE_H_

#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "src/common/inline_function.h"
#include "src/common/status.h"
#include "src/correctables/operation.h"
#include "src/sim/network.h"
#include "src/sim/service_queue.h"
#include "src/sim/topology.h"

namespace icg {

// 96 inline bytes: fits the pipeline's EmitAt adapters (emitter + level) inline.
using CausalResponseFn = InlineFunction<void(StatusOr<OpResult>), 96>;

class CausalReplica {
 public:
  // Service times on the replica's single-server queue.
  static constexpr SimDuration kReadService = Micros(200);
  static constexpr SimDuration kWriteService = Micros(250);
  static constexpr SimDuration kApplyService = Micros(150);

  CausalReplica(Network* network, NodeId id, const std::string& name);

  void SetPeers(std::vector<CausalReplica*> peers) { peers_ = std::move(peers); }
  // Dense index of this replica among all replicas (origin id in vector clocks).
  void SetOriginIndex(int index, int num_replicas);

  void HandleRead(NodeId client_id, const std::string& key, CausalResponseFn respond);
  void HandleWrite(NodeId client_id, const std::string& key, std::string value,
                   CausalResponseFn respond);

  // Replication message: a write from `origin` with its per-origin sequence number and
  // the origin's dependency clock at emission time.
  void HandleReplicated(int origin, int64_t origin_seq, std::vector<int64_t> deps,
                        const std::string& key, std::string value, Version version);

  NodeId id() const { return id_; }
  ServiceQueue& service_queue() { return service_; }
  std::optional<std::string> LocalGet(const std::string& key) const;
  void LocalPut(const std::string& key, std::string value, Version version);
  const std::vector<int64_t>& applied_clock() const { return applied_clock_; }

 private:
  struct Entry {
    std::string value;
    Version version;
  };
  struct PendingWrite {
    int origin = 0;
    int64_t origin_seq = 0;
    std::vector<int64_t> deps;
    std::string key;
    std::string value;
    Version version;
  };

  void TryApplyPending();
  bool DepsSatisfied(const PendingWrite& write) const;
  void ApplyWrite(const PendingWrite& write);

  Network* network_;
  NodeId id_;
  ServiceQueue service_;
  std::vector<CausalReplica*> peers_;

  int origin_index_ = 0;
  int64_t lamport_ = 0;
  int64_t next_origin_seq_ = 1;
  std::vector<int64_t> applied_clock_;  // per-origin seq applied locally
  std::map<std::string, Entry> storage_;
  std::deque<PendingWrite> pending_;
};

// Client-side cache with write-through coherence, as the binding requires: reads can be
// served instantly from the cache (kCache level); writes update the cache when the store
// acknowledges them, so the cache never holds a value the store has not accepted.
class ClientCache {
 public:
  explicit ClientCache(size_t capacity = 1024) : capacity_(capacity) {}

  std::optional<OpResult> Get(const std::string& key);
  void Put(const std::string& key, const OpResult& result);
  // Version-aware write-through: installs `result` unless the cached entry is already
  // strictly fresher, so a reordered weak view can never regress a stronger one.
  void Refresh(const std::string& key, const OpResult& result);
  void Clear();

  size_t size() const { return entries_.size(); }
  int64_t hits() const { return hits_; }
  int64_t misses() const { return misses_; }

 private:
  void EvictIfNeeded();

  size_t capacity_;
  std::map<std::string, OpResult> entries_;
  std::deque<std::string> lru_;  // insertion order; simple FIFO eviction
  int64_t hits_ = 0;
  int64_t misses_ = 0;
};

class CausalClient {
 public:
  CausalClient(Network* network, NodeId id, CausalReplica* replica);

  void Read(const std::string& key, CausalResponseFn respond);
  void Write(const std::string& key, std::string value, CausalResponseFn respond);

  NodeId id() const { return id_; }

 private:
  Network* network_;
  NodeId id_;
  CausalReplica* replica_;
};

class CausalCluster {
 public:
  CausalCluster(Network* network, Topology* topology, const std::vector<Region>& regions);

  CausalReplica* ReplicaIn(Region region);
  std::unique_ptr<CausalClient> MakeClient(Region client_region, Region replica_region);
  void Preload(const std::string& key, const std::string& value);

 private:
  Network* network_;
  Topology* topology_;
  std::vector<std::unique_ptr<CausalReplica>> replicas_;
};

}  // namespace icg

#endif  // ICG_STORES_CAUSAL_STORE_H_
