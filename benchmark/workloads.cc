#include "benchmark/workloads.h"

#include <algorithm>

#include "benchmark/trace.h"
#include "src/harness/executors.h"

namespace icg::benchmark {

const std::vector<WorkloadSpec>& AllWorkloads() {
  static const std::vector<WorkloadSpec> kWorkloads = {
      {WorkloadKind::kIcgReadB, "icg-read-b", 1200, 250, Seconds(900), Seconds(40), 1},
      {WorkloadKind::kDurableWriteA, "durable-write-a", 800, 300, Seconds(600), Seconds(40), 1},
      {WorkloadKind::kAdsSpeculate, "ads-speculate", 250, 150, Seconds(420), Seconds(30), 1},
      {WorkloadKind::kPlacedLanesW4, "placed-lanes-w4", 1200, 300, Seconds(150), Seconds(40),
       25},
  };
  return kWorkloads;
}

const WorkloadSpec* FindWorkload(const std::string& name) {
  for (const WorkloadSpec& spec : AllWorkloads()) {
    if (name == spec.name) {
      return &spec;
    }
  }
  return nullptr;
}

WorkloadConfig YcsbConfigFor(const WorkloadSpec& spec) {
  switch (spec.kind) {
    case WorkloadKind::kIcgReadB:
      return WorkloadConfig::YcsbB(RequestDistribution::kZipfian, 100000);
    case WorkloadKind::kDurableWriteA:
      return WorkloadConfig::YcsbA(RequestDistribution::kZipfian, 100000);
    case WorkloadKind::kAdsSpeculate:
      return WorkloadConfig::YcsbB(RequestDistribution::kZipfian, AdsConfig{}.num_profiles);
    case WorkloadKind::kPlacedLanesW4:
      return WorkloadConfig::YcsbB(RequestDistribution::kUniform, 4000);
  }
  return {};
}

namespace {

double SecondsSince(int64_t start_ns) { return static_cast<double>(WallNs() - start_ns) / 1e9; }

}  // namespace

Deployment::Deployment(const WorkloadSpec& spec, uint64_t seed, int threads)
    : spec_(spec), world_(seed) {
  CassandraBindingConfig binding;
  binding.strong_read_quorum = 2;
  binding.confirmations = spec.kind != WorkloadKind::kAdsSpeculate;
  KvConfig kv;
  BatchConfig batch;
  if (spec.kind == WorkloadKind::kDurableWriteA) {
    kv.wal_fsync_service = Micros(120);
    kv.snapshot_every = 5000;
    batch.batch_window = Millis(5);
  }

  int64_t start = WallNs();
  if (spec.kind == WorkloadKind::kAdsSpeculate) {
    single_ = std::make_unique<CassandraStack>(MakeCassandraStack(
        world_, kv, binding, Region::kIreland, Region::kFrankfurt,
        {Region::kFrankfurt, Region::kIreland, Region::kVirginia}, batch));
    ads_ = std::make_unique<AdsSystem>(single_->client.get(), AdsConfig{});
    clients_.push_back(single_->client.get());
    times_.stack_build_s = SecondsSince(start);
    start = WallNs();
    ads_->Preload(single_->cluster.get());
    times_.preload_s = SecondsSince(start);
    return;
  }

  const bool placed = spec.kind == WorkloadKind::kPlacedLanesW4;
  std::vector<Region> regions = {Region::kFrankfurt, Region::kIreland, Region::kVirginia};
  if (placed) {
    regions.push_back(Region::kCalifornia);
  }
  sharded_ = std::make_unique<ShardedCassandraStack>(
      MakeShardedCassandraStack(world_, static_cast<int>(regions.size()), kv, binding,
                                Region::kIreland, regions, batch));
  AddShardedCassandraClient(world_, *sharded_, binding, Region::kFrankfurt, batch);
  AddShardedCassandraClient(world_, *sharded_, binding, Region::kVirginia, batch);
  for (const auto& endpoint : sharded_->endpoints()) {
    clients_.push_back(endpoint->client.get());
  }
  times_.stack_build_s = SecondsSince(start);

  start = WallNs();
  PreloadYcsbDataset(sharded_->cluster.get(), YcsbConfigFor(spec));
  times_.preload_s = SecondsSince(start);

  if (placed) {
    start = WallNs();
    LoopGroup::Options options;
    options.threads = threads;
    options.quantum = Millis(1);
    options.adaptive_quantum = true;
    options.max_quantum = Millis(32);
    group_ = std::make_unique<LoopGroup>(options);
    PlaceShardsAcrossLoops(*group_, world_, *sharded_);
    times_.stack_build_s += SecondsSince(start);
  }
}

Deployment::~Deployment() = default;

void Deployment::RunUntil(SimTime until) {
  if (group_ != nullptr) {
    group_->RunUntil(until);
  } else {
    world_.loop().RunUntil(until);
  }
}

std::vector<KvReplica*> Deployment::replicas() const {
  const KvCluster& cluster = sharded_ != nullptr ? *sharded_->cluster : *single_->cluster;
  std::vector<KvReplica*> out;
  for (const auto& replica : cluster.replicas()) {
    out.push_back(replica.get());
  }
  return out;
}

std::vector<KvReplica*> Deployment::coordinators() const {
  std::vector<KvReplica*> out;
  for (KvReplica* replica : replicas()) {
    const bool coordinates =
        sharded_ != nullptr
            ? std::find(sharded_->coordinator_ids().begin(), sharded_->coordinator_ids().end(),
                        replica->id()) != sharded_->coordinator_ids().end()
            : replica->id() == single_->kv_client->coordinator_id();
    if (coordinates) {
      out.push_back(replica);
    }
  }
  return out;
}

std::vector<BindingRouter*> Deployment::routers() const {
  std::vector<BindingRouter*> out;
  if (sharded_ != nullptr) {
    for (const auto& endpoint : sharded_->endpoints()) {
      out.push_back(endpoint->router.get());
    }
  }
  return out;
}

ClientStats Deployment::MergedClientStats() const {
  ClientStatsGroup merged(1);
  for (const CorrectableClient* client : clients_) {
    merged.Absorb(0, client->stats());
  }
  return merged.Merged();
}

int64_t Deployment::ClientLinkBytes() const {
  if (sharded_ == nullptr) {
    return single_->kv_client->LinkBytes();
  }
  int64_t bytes = 0;
  for (const auto& endpoint : sharded_->endpoints()) {
    for (const auto& kv_client : endpoint->kv_clients) {
      bytes += kv_client->LinkBytes();
    }
  }
  return bytes;
}

int64_t Deployment::TotalMessages() {
  const Network& network = world_.network();
  const int nodes = world_.topology().NumNodes();
  int64_t messages = 0;
  for (NodeId from = 0; from < nodes; ++from) {
    for (NodeId to = 0; to < nodes; ++to) {
      messages += network.Sent(from, to).messages;
    }
  }
  return messages;
}

int64_t Deployment::EventsProcessed() {
  if (group_ == nullptr) {
    return world_.loop().events_processed();
  }
  int64_t events = 0;
  for (int i = 0; i < group_->size(); ++i) {
    events += group_->loop(i).events_processed();
  }
  return events;
}

}  // namespace icg::benchmark
