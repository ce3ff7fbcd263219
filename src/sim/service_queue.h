// Single-server FIFO work queue modeling a node's CPU.
//
// Every request a replica handles consumes a service time on its queue; under load the
// queue builds up and latency rises, producing the saturation knees in the paper's
// latency-versus-throughput plots (Figures 6 and 11). The preliminary-flushing step of
// Correctable Cassandra costs extra service time per read, which is exactly what causes
// CC's ~6% throughput drop relative to baseline Cassandra.
#ifndef ICG_SIM_SERVICE_QUEUE_H_
#define ICG_SIM_SERVICE_QUEUE_H_

#include <cassert>
#include <cstdint>
#include <string>

#include "src/common/types.h"
#include "src/sim/event_loop.h"

namespace icg {

class ServiceQueue {
 public:
  ServiceQueue(EventLoop* loop, std::string name) : loop_(loop), name_(std::move(name)) {}

  // Enqueues work consuming `service_time` of server time; runs `done` at completion.
  // Non-preemptive FIFO: completion = max(now, previous completion) + service_time.
  void Submit(SimDuration service_time, EventLoop::Task done);

  // Moves this server onto another loop — used when its node is placed on a LoopGroup
  // lane after construction, or when a crashed replica rejoins. Legal whenever the
  // queue is quiescent: nothing in flight (either never used, drained, or cancelled via
  // CancelPending).
  void RebindLoop(EventLoop* loop) {
    assert(loop != nullptr);
    assert(InFlight() == 0 && "rebind requires a quiescent queue");
    loop_ = loop;
  }

  // Abandons every in-flight job (kill -9 of the server): their completion callbacks
  // never run and never count, and the server is immediately idle for new work. The
  // completion events already scheduled on the loop stay there but no-op — cancelling
  // by generation instead of TimerId keeps Submit free of bookkeeping.
  void CancelPending() {
    generation_ += 1;
    submitted_ = completed_;
    busy_until_ = 0;
    cancelled_ += 1;
  }

  // Time at which the server frees up if no further work arrives.
  SimTime busy_until() const { return busy_until_; }

  // Jobs submitted but not yet completed, were the clock to advance with no new arrivals.
  int64_t InFlight() const { return submitted_ - completed_; }

  int64_t submitted() const { return submitted_; }
  int64_t completed() const { return completed_; }
  int64_t cancellations() const { return cancelled_; }
  SimDuration total_busy_time() const { return total_busy_time_; }

  // Fraction of `window` the server spent busy (assuming stats reset at window start).
  double Utilization(SimDuration window) const {
    return window <= 0 ? 0.0
                       : static_cast<double>(total_busy_time_) / static_cast<double>(window);
  }

  void ResetStats() {
    submitted_ = completed_ = 0;
    total_busy_time_ = 0;
  }

  const std::string& name() const { return name_; }

 private:
  EventLoop* loop_;
  std::string name_;
  SimTime busy_until_ = 0;
  int64_t submitted_ = 0;
  int64_t completed_ = 0;
  int64_t cancelled_ = 0;
  uint64_t generation_ = 0;  // bumped by CancelPending; stale completions no-op
  SimDuration total_busy_time_ = 0;
};

}  // namespace icg

#endif  // ICG_SIM_SERVICE_QUEUE_H_
