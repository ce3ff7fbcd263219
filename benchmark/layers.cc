#include "benchmark/layers.h"

#include <sys/resource.h>

#include <algorithm>
#include <ctime>

namespace icg::benchmark {

int64_t ProcessCpuNs() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<int64_t>(ts.tv_sec) * 1000000000 + ts.tv_nsec;
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // Linux reports KiB
}

Counters Capture(Deployment& deployment, const OpenLoop& load, const Tracer& tracer) {
  Counters c;
  c.wall_ns = WallNs();
  c.cpu_ns = ProcessCpuNs();
  c.now = deployment.front().Now();
  c.completed = load.completed();
  c.user_writes = load.user_writes();
  c.user_write_bytes = load.user_write_bytes();
  c.ads = load.ads_counters();
  c.stats = deployment.MergedClientStats();
  c.net_bytes = deployment.network().total_bytes();
  c.net_messages = deployment.TotalMessages();
  c.client_bytes = deployment.ClientLinkBytes();
  c.dropped = deployment.network().dropped_messages();
  c.events = deployment.EventsProcessed();
  for (KvReplica* replica : deployment.replicas()) {
    c.busy.push_back(replica->service_queue().total_busy_time());
    c.service_jobs += replica->service_queue().submitted();
    c.wal_syncs += replica->wal()->syncs();
    c.wal_records += replica->wal()->appended_records();
    c.snapshots += replica->snapshots()->snapshots_taken();
    c.snapshot_bytes = std::max(c.snapshot_bytes, replica->snapshots()->image_bytes());
  }
  if (LoopGroup* group = deployment.group()) {
    c.rounds = group->rounds();
    for (size_t i = 0; i < kLoopGroupCounters.size(); ++i) {
      c.loop_group[i] = group->metrics().Value(kLoopGroupCounters[i]);
    }
  }
  for (int i = 0; i < kNumLayers; ++i) {
    c.layers[static_cast<size_t>(i)] = tracer.totals(static_cast<Layer>(i));
  }
  return c;
}

void LayerSampler::Sample(Deployment& deployment, const OpenLoop& load) {
  int64_t outstanding = 0;
  for (BindingRouter* router : deployment.routers()) {
    outstanding += static_cast<int64_t>(router->LoadSnapshot().total_outstanding());
  }
  router_outstanding_.Record(outstanding);
  const SimTime now = deployment.front().Now();
  for (KvReplica* coordinator : deployment.coordinators()) {
    queue_wait_.Record(std::max<SimDuration>(0, coordinator->service_queue().busy_until() - now));
  }

  int64_t device_bytes = 0;
  int64_t snapshots = 0;
  for (KvReplica* replica : deployment.replicas()) {
    device_bytes += replica->wal()->device_bytes();
    snapshots += replica->snapshots()->snapshots_taken();
  }
  const int64_t user_bytes = load.user_write_bytes();
  if (primed_ && snapshots == last_snapshots_) {
    wal_growth_ += device_bytes - last_device_bytes_;
    wal_user_bytes_ += user_bytes - last_user_bytes_;
  }
  primed_ = true;
  last_device_bytes_ = device_bytes;
  last_snapshots_ = snapshots;
  last_user_bytes_ = user_bytes;
}

double LayerSampler::wal_bytes_per_user_byte() const {
  return wal_user_bytes_ == 0 ? 0.0
                              : static_cast<double>(wal_growth_) /
                                    static_cast<double>(wal_user_bytes_);
}

}  // namespace icg::benchmark
