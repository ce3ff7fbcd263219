// The benchmark's four workloads and the deployments they run on.
//
// Each workload is a fixed stack configuration plus an open-loop arrival rate and a p99
// limit on the final view. The names are the contract: every performance claim in the
// repo cites (metric, workload) pairs from these definitions. See benchmark/README.md
// for why each workload exists and which layers it stresses or bypasses.
#ifndef ICG_BENCHMARK_WORKLOADS_H_
#define ICG_BENCHMARK_WORKLOADS_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/apps/ads.h"
#include "src/correctables/client.h"
#include "src/harness/deployment.h"
#include "src/sim/loop_group.h"
#include "src/ycsb/workload.h"

namespace icg::benchmark {

enum class WorkloadKind { kIcgReadB, kDurableWriteA, kAdsSpeculate, kPlacedLanesW4 };

struct WorkloadSpec {
  WorkloadKind kind;
  const char* name;
  double rate;          // nominal open-loop arrivals per virtual second, all clients
  double p99_limit_ms;  // final-view p99 a capacity rung must meet
  // Virtual length of the timed window: a whole number of seconds, so each of its
  // equal segments spans whole chunks.
  SimDuration window;
  SimDuration rung_measure;  // measured length of one capacity-ladder rung
  // Builds timed together in one set-up sample (setup_s is the median of five such
  // samples, each divided by this): more than 1 only where one build takes milliseconds.
  int setup_builds;
};

const std::vector<WorkloadSpec>& AllWorkloads();
const WorkloadSpec* FindWorkload(const std::string& name);

// The YCSB mix each client draws from.
WorkloadConfig YcsbConfigFor(const WorkloadSpec& spec);

// Wall time of the two set-up phases of one Deployment build.
struct SetupTimes {
  double stack_build_s = 0;  // Make*Stack, Add*Client, PlaceShardsAcrossLoops, AdsSystem
  double preload_s = 0;      // PreloadYcsbDataset / AdsSystem::Preload
};

// One fully built world for a workload: stack, clients, dataset and (for
// placed-lanes-w4) the LoopGroup placement. Not movable: the stacks hold pointers into
// the world.
class Deployment {
 public:
  // `threads` is the LoopGroup width for placed-lanes-w4 (0 = sequential);
  // ignored by the other workloads, which run on one event loop.
  Deployment(const WorkloadSpec& spec, uint64_t seed, int threads);
  Deployment(const Deployment&) = delete;
  Deployment& operator=(const Deployment&) = delete;
  ~Deployment();

  const WorkloadSpec& spec() const { return spec_; }
  const SetupTimes& setup_times() const { return times_; }

  // Advances every loop of the world to virtual time `until`.
  void RunUntil(SimTime until);
  EventLoop& front() { return world_.loop(); }

  const std::vector<CorrectableClient*>& clients() const { return clients_; }
  AdsSystem* ads() const { return ads_.get(); }

  // --- Observability (between chunks, on the thread that advances the world) --------
  std::vector<KvReplica*> replicas() const;
  std::vector<KvReplica*> coordinators() const;
  std::vector<BindingRouter*> routers() const;
  Network& network() { return world_.network(); }
  LoopGroup* group() const { return group_.get(); }
  ClientStats MergedClientStats() const;
  int64_t ClientLinkBytes() const;
  int64_t TotalMessages();
  int64_t EventsProcessed();

 private:
  const WorkloadSpec& spec_;
  SetupTimes times_;
  // Declared before the world: the group's workers must outlive nothing they drive,
  // and the world's loops are only touched by the group while it runs.
  std::unique_ptr<LoopGroup> group_;
  SimWorld world_;
  std::unique_ptr<ShardedCassandraStack> sharded_;
  std::unique_ptr<CassandraStack> single_;
  std::unique_ptr<AdsSystem> ads_;
  std::vector<CorrectableClient*> clients_;
};

}  // namespace icg::benchmark

#endif  // ICG_BENCHMARK_WORKLOADS_H_
