// Ensemble wiring and the client side of the ZooKeeper-like service, including the two
// client-driven dequeue recipes compared in Figure 10:
//
//   * ZK recipe:  getChildren (whole listing) -> getData(head) -> delete(head), retrying
//                 on conflict — the standard Curator distributed-queue pattern whose
//                 message size inflates with queue length;
//   * CZK recipe: constant-size head read -> delete(head), retrying on conflict — the
//                 paper's fix, independent of queue size.
#ifndef ICG_ZAB_CLUSTER_H_
#define ICG_ZAB_CLUSTER_H_

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "src/sim/network.h"
#include "src/sim/topology.h"
#include "src/zab/server.h"

namespace icg {

class ZabClient {
 public:
  ZabClient(Network* network, NodeId id, ZabServer* session);

  // Queue write operations; with `icg`, a preliminary (locally simulated) view precedes
  // the committed final view.
  void Enqueue(const std::string& queue, std::string data, bool icg, ZabResponseFn respond);
  void Dequeue(const std::string& queue, bool icg, ZabResponseFn respond);
  void DeleteElement(const std::string& queue, int64_t seq, ZabResponseFn respond);

  // Local reads at the session server.
  void Peek(const std::string& queue, ZabResponseFn respond);
  void GetChildren(const std::string& queue, std::function<void(std::vector<int64_t>)> respond);
  void ReadData(const std::string& queue, int64_t seq, ZabResponseFn respond);

  // Client-driven dequeue recipes (see file comment). `done` receives the dequeued
  // element, or found=false when the queue is empty.
  void RecipeDequeueZk(const std::string& queue, std::function<void(StatusOr<OpResult>)> done);
  void RecipeDequeueCzk(const std::string& queue, std::function<void(StatusOr<OpResult>)> done);

  NodeId id() const { return id_; }
  ZabServer* session() const { return session_; }
  int64_t LinkBytes() const;
  int64_t LinkMessages() const;
  int64_t recipe_retries() const { return recipe_retries_; }

 private:
  template <typename Fn>
  void SendToSession(int64_t bytes, Fn&& at_server);

  Network* network_;
  NodeId id_;
  ZabServer* session_;
  int64_t recipe_retries_ = 0;
};

class ZabCluster {
 public:
  // One server per region; the server in `leader_region` leads (static leadership — the
  // paper pins leader placement per experiment; see Figure 9 configurations).
  ZabCluster(Network* network, Topology* topology, const std::vector<Region>& regions,
             Region leader_region);

  ZabServer* ServerIn(Region region);
  ZabServer* leader() const { return leader_; }
  const std::vector<std::unique_ptr<ZabServer>>& servers() const { return servers_; }

  std::unique_ptr<ZabClient> MakeClient(Region client_region, Region session_region);

  // Installs `count` elements (named by `prefix` + index) consistently in every server's
  // local copy of `queue`, bypassing the protocol (dataset preloading).
  void PreloadQueue(const std::string& queue, int64_t count, const std::string& prefix);

 private:
  Network* network_;
  Topology* topology_;
  std::vector<std::unique_ptr<ZabServer>> servers_;
  ZabServer* leader_ = nullptr;
};

}  // namespace icg

#endif  // ICG_ZAB_CLUSTER_H_
