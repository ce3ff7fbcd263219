// Open-loop load: seeded Poisson arrivals at a fixed total rate, each scheduled
// as an event at its due virtual time on the deployment's front loop and handed to a
// uniformly chosen client. Latency is measured from the due time, so a stalled system
// cannot slow its own offered load. Every KV invocation is submitted with the
// benchmark's own callbacks, which check the ICG view contract as views arrive.
//
// Virtual time advances in fixed 50 ms chunks. Chunk boundaries are part of the
// workload definition (under adaptive quanta they are LoopGroup barriers), and every
// sample and counter read happens between chunks.
#ifndef ICG_BENCHMARK_OPEN_LOOP_H_
#define ICG_BENCHMARK_OPEN_LOOP_H_

#include <cstdint>
#include <functional>
#include <string>
#include <unordered_map>
#include <vector>

#include "benchmark/trace.h"
#include "benchmark/workloads.h"
#include "src/apps/ref_fetch.h"
#include "src/common/histogram.h"
#include "src/common/random.h"
#include "src/correctables/consistency.h"
#include "src/ycsb/workload.h"

namespace icg::benchmark {

inline constexpr SimDuration kChunk = Millis(50);

struct LoadPlan {
  double rate = 0;         // arrivals per virtual second, all clients together
  SimDuration warmup = 0;  // arrivals run but are not measured
  SimDuration window = 0;  // measured arrivals; arrivals stop at its end
  SimDuration drain = 0;   // no arrivals; outstanding work completes
  int segments = 1;        // equal virtual segments of the window, timed separately

  SimTime window_start() const { return warmup; }
  SimTime window_end() const { return warmup + window; }
  SimTime end() const { return warmup + window + drain; }
};

// Contract violations seen by the benchmark's callbacks.
struct ContractViolations {
  int64_t views_after_terminal = 0;
  int64_t non_monotone_views = 0;
  int64_t duplicate_terminals = 0;
  int64_t weak_finals = 0;            // a KV final below the strongest level
  int64_t ads_prelim_after_final = 0;
  int64_t ads_not_ok = 0;

  int64_t total() const {
    return views_after_terminal + non_monotone_views + duplicate_terminals + weak_finals +
           ads_prelim_after_final + ads_not_ok;
  }
};

struct AdsCounters {
  int64_t reads = 0;
  int64_t objects = 0;
  int64_t speculated = 0;
  int64_t misspeculated = 0;
};

class OpenLoop {
 public:
  // Called by Run() between chunks with the virtual time the chunk ended at.
  using ChunkHook = std::function<void(SimTime chunk_end)>;

  OpenLoop(Deployment& deployment, LoadPlan plan, uint64_t seed, Tracer& tracer);
  OpenLoop(const OpenLoop&) = delete;
  OpenLoop& operator=(const OpenLoop&) = delete;

  // Schedules the first arrival and advances chunk by chunk to `until` (at most
  // plan.end()), calling `hook` after every chunk. Resumable: a second call continues
  // from where the first stopped.
  void Run(SimTime until, const ChunkHook& hook = nullptr);

  const LoadPlan& plan() const { return plan_; }

  // --- Results ------------------------------------------------------------------------
  int64_t arrivals() const { return static_cast<int64_t>(ops_.size()); }
  int64_t completed() const { return completed_; }
  int64_t errors() const { return errors_; }
  int64_t outstanding() const { return arrivals() - completed_ - errors_; }
  int64_t window_arrivals() const { return window_arrivals_; }
  int64_t window_completed() const { return window_completed_; }
  // Window arrivals that ended in an error or were still outstanding.
  int64_t window_failed() const;
  int64_t user_writes() const { return user_writes_; }
  int64_t user_write_bytes() const { return user_write_bytes_; }
  SimDuration max_lateness() const { return max_lateness_; }
  const ContractViolations& violations() const { return violations_; }
  const AdsCounters& ads_counters() const { return ads_; }
  // Due -> view latencies of window arrivals (preliminary: only those that had one).
  const LatencyRecorder& prelim_latency() const { return prelim_; }
  const LatencyRecorder& final_latency() const { return final_; }
  // Running FNV-1a over every terminal (arrival index, virtual time): equal at two
  // LoopGroup widths iff the completion histories are identical.
  uint64_t history_hash() const { return history_hash_; }

  // Keys this run wrote, deduplicated, in a seeded order.
  std::vector<std::string> WrittenKeySample(size_t n, uint64_t seed) const;

 private:
  struct Op {
    SimTime due = 0;
    SimTime prelim_at = -1;
    int16_t client = 0;
    ConsistencyLevel last_level = ConsistencyLevel::kCache;
    bool has_view = false;
    uint8_t terminals = 0;
    bool in_window = false;
  };

  void ScheduleNextArrival();
  void OnArrival();
  void SubmitKv(int64_t index, CorrectableClient* client, const YcsbOp& op);
  void SubmitAds(int64_t index, const YcsbOp& op);
  void OnView(int64_t index, ConsistencyLevel level, bool terminal);
  void OnTerminal(int64_t index, bool ok);
  void OnAdsRead(int64_t index, const RefFetchOutcome& outcome);

  Deployment& deployment_;
  LoadPlan plan_;
  Tracer& tracer_;
  EventLoop& front_;
  Rng arrival_rng_;
  std::vector<CoreWorkload> workloads_;  // one key/op stream per client
  bool started_ = false;
  SimTime run_to_ = 0;

  double next_due_us_ = 0;
  std::vector<Op> ops_;
  std::unordered_map<int64_t, std::string> sampled_keys_;
  std::vector<int64_t> written_;  // key index of every user write
  int64_t ads_version_ = 0;

  int64_t completed_ = 0;
  int64_t errors_ = 0;
  int64_t window_arrivals_ = 0;
  int64_t window_completed_ = 0;
  int64_t user_writes_ = 0;
  int64_t user_write_bytes_ = 0;
  SimDuration max_lateness_ = 0;
  ContractViolations violations_;
  AdsCounters ads_;
  LatencyRecorder prelim_;
  LatencyRecorder final_;
  uint64_t history_hash_ = 1469598103934665603ULL;
};

}  // namespace icg::benchmark

#endif  // ICG_BENCHMARK_OPEN_LOOP_H_
