// Counter snapshots and between-chunk samples behind the metrics. Every number is read
// through a module's public API from outside (ClientStats, LoadSnapshot, ServiceQueue,
// Wal, SnapshotManager, Network, KvClient, EventLoop, LoopGroup metrics), at chunk
// boundaries, and turned into per-window deltas.
#ifndef ICG_BENCHMARK_LAYERS_H_
#define ICG_BENCHMARK_LAYERS_H_

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "benchmark/open_loop.h"
#include "benchmark/trace.h"
#include "benchmark/workloads.h"
#include "src/common/histogram.h"

namespace icg::benchmark {

int64_t ProcessCpuNs();
double PeakRssMb();

struct Counters {
  int64_t wall_ns = 0;
  int64_t cpu_ns = 0;
  SimTime now = 0;
  int64_t completed = 0;
  int64_t user_writes = 0;
  int64_t user_write_bytes = 0;
  AdsCounters ads;
  ClientStats stats;
  int64_t net_bytes = 0;
  int64_t net_messages = 0;
  int64_t client_bytes = 0;
  int64_t dropped = 0;
  int64_t events = 0;
  std::vector<SimDuration> busy;  // per replica
  int64_t service_jobs = 0;
  int64_t wal_syncs = 0;
  int64_t wal_records = 0;
  int64_t snapshots = 0;
  int64_t snapshot_bytes = 0;  // largest current snapshot image
  int64_t rounds = 0;
  // LoopGroup::metrics() counters, in kLoopGroupCounters order.
  std::array<int64_t, 6> loop_group{};
  std::array<Tracer::LayerTotals, kNumLayers> layers{};
};

inline constexpr std::array<const char*, 6> kLoopGroupCounters = {
    "barrier_wait_ns", "rounds_inline",   "rounds_idle",
    "rounds_widened",  "channel_messages", "late_deliveries"};

Counters Capture(Deployment& deployment, const OpenLoop& load, const Tracer& tracer);

// Between-chunk samples of queueing state during a traced window.
class LayerSampler {
 public:
  void Sample(Deployment& deployment, const OpenLoop& load);

  const LatencyRecorder& router_outstanding() const { return router_outstanding_; }
  const LatencyRecorder& queue_wait() const { return queue_wait_; }
  // WAL device growth per user byte, over chunks in which no snapshot truncated the log.
  double wal_bytes_per_user_byte() const;

 private:
  LatencyRecorder router_outstanding_;  // summed over every endpoint's router
  LatencyRecorder queue_wait_;          // per coordinator: busy_until - now, in us
  bool primed_ = false;
  int64_t last_device_bytes_ = 0;
  int64_t last_snapshots_ = 0;
  int64_t last_user_bytes_ = 0;
  int64_t wal_growth_ = 0;
  int64_t wal_user_bytes_ = 0;
};

}  // namespace icg::benchmark

#endif  // ICG_BENCHMARK_LAYERS_H_
