// The deployments the benches and oracles drive, built once. FlatTrial is the paper's
// load setup (§6.2.1): "3 clients, one per region, with each client connecting to a
// remote replica". ShardedTrial is its routed counterpart, each client spreading keys
// across a coordinator ring. AddYcsbClients puts one closed-loop YCSB client on each.
// Nothing here depends on a test framework.
#ifndef ICG_HARNESS_SCENARIO_H_
#define ICG_HARNESS_SCENARIO_H_

#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "src/harness/deployment.h"
#include "src/harness/executors.h"
#include "src/harness/icg_contract.h"
#include "src/ycsb/multi_runner.h"

namespace icg {

inline const std::vector<Region> kRegions3 = {Region::kFrankfurt, Region::kIreland,
                                              Region::kVirginia};
inline const std::vector<Region> kRegions4 = {Region::kFrankfurt, Region::kIreland,
                                              Region::kVirginia, Region::kCalifornia};
inline const std::vector<Region> kRegions5 = {Region::kFrankfurt, Region::kIreland,
                                              Region::kVirginia, Region::kCalifornia,
                                              Region::kOregon};

// Replicas in FRK/IRL/VRG and three clients, each on a remote coordinator: the stack's
// own IRL->FRK client (the one the paper's figures report), then FRK->VRG and VRG->IRL.
struct FlatTrial {
  explicit FlatTrial(uint64_t seed, CassandraBindingConfig binding = {})
      : world(seed),
        stack(MakeCassandraStack(world, KvConfig{}, binding, Region::kIreland,
                                 Region::kFrankfurt)) {
    clients.push_back(stack.client.get());
    for (const auto& [client, coordinator] :
         {std::pair{Region::kFrankfurt, Region::kVirginia},
          std::pair{Region::kVirginia, Region::kIreland}}) {
      endpoints.push_back(AddCassandraClient(world, stack, binding, client, coordinator));
      clients.push_back(endpoints.back().client.get());
    }
  }

  SimWorld world;
  CassandraStack stack;
  std::vector<CassandraClientEndpoint> endpoints;  // the FRK and VRG clients
  std::vector<CorrectableClient*> clients;         // IRL, FRK, VRG
};

// The deployment most trials drive, built in this order: a sharded Cassandra stack
// (quorum-2 strong reads) with its own client in Ireland, then one routed client per
// region in `client_regions`. The world's checker sees every invocation.
struct ShardedTrial {
  ShardedTrial(uint64_t seed, int coordinators, std::vector<Region> replicas,
               BatchConfig batch = {}, KvConfig kv = {},
               AllowedErrors allowed = AllowedErrors::kNone,
               std::vector<Region> client_regions = {Region::kFrankfurt, Region::kVirginia})
      : world(seed),
        stack(MakeShardedCassandraStack(world, coordinators, kv, CassandraBindingConfig{},
                                        Region::kIreland, std::move(replicas), batch)),
        checker(allowed) {
    clients.push_back(stack.client());
    for (const Region region : client_regions) {
      clients.push_back(
          AddShardedCassandraClient(world, stack, CassandraBindingConfig{}, region, batch)
              .client.get());
    }
  }

  // Preloads "init" at key_prefix + [0, keys).
  void Preload(const std::string& key_prefix, int keys) {
    stack.cluster->Preload(static_cast<size_t>(keys),
                           [&key_prefix](size_t i, std::string* key, std::string* value) {
                             *key = key_prefix + std::to_string(i);
                             *value = "init";
                           });
  }

  SimWorld world;
  ShardedCassandraStack stack;
  std::vector<CorrectableClient*> clients;
  IcgContractChecker checker;
};

// Adds one closed-loop YCSB client to `runner` per entry of `clients`, in order: client
// i draws from a `workload` stream seeded `first_seed + i` and issues through
// `make_executor(clients[i])`.
inline void AddYcsbClients(MultiRunner& runner, const std::vector<CorrectableClient*>& clients,
                           const WorkloadConfig& workload, uint64_t first_seed,
                           const std::function<OpExecutor(CorrectableClient*)>& make_executor) {
  for (size_t i = 0; i < clients.size(); ++i) {
    runner.AddClient(workload, first_seed + i, make_executor(clients[i]));
  }
}

// The same, issuing through MakeKvExecutor in `mode`.
inline void AddYcsbClients(MultiRunner& runner, const std::vector<CorrectableClient*>& clients,
                           const WorkloadConfig& workload, uint64_t first_seed, KvMode mode) {
  AddYcsbClients(runner, clients, workload, first_seed,
                 [mode](CorrectableClient* client) { return MakeKvExecutor(client, mode); });
}

}  // namespace icg

#endif  // ICG_HARNESS_SCENARIO_H_
