// BatchScheduler: the cross-tick batching engine behind the InvocationPipeline.
//
// Same-tick read coalescing (PR 1) only amortizes round-trips for operations submitted
// at the same instant of virtual time; under sustained load every tick still pays one
// store round-trip per key, and writes always go out alone. The scheduler generalizes
// coalescing into a configurable *window*: operations for the same coalescing scope and
// level set accumulate for up to `batch_window` of simulated time, then flush as one
// cohort — reads as a single multiget round-trip serving every waiter, writes as a
// single in-order multiput store submission.
//
// Division of labour: the scheduler owns *when* and *with whom* an operation batches
// (cohort grouping, window timers, size caps). It never interprets waiters — they ride
// along as opaque handles — and it never talks to a binding. The pipeline owns *what a
// flush means*: it regroups a flushed cohort by the binding's current CoalescingScope
// (a rebalance may have moved keys while the window was open), launches the batched
// store submission, and fans responses back out per waiter. Per-waiter timers are armed
// at submission, so a waiter whose deadline expires inside a pending cohort fails alone
// while the rest of the cohort proceeds.
#ifndef ICG_CORRECTABLES_BATCH_SCHEDULER_H_
#define ICG_CORRECTABLES_BATCH_SCHEDULER_H_

#include <cstddef>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/correctables/consistency.h"
#include "src/correctables/operation.h"
#include "src/sim/event_loop.h"

namespace icg {

struct BatchConfig {
  // How long operations accumulate before their cohort flushes. 0 disables cross-tick
  // batching entirely: the pipeline keeps the legacy behaviour (same-tick read
  // coalescing, one store submission per write) bit-for-bit.
  SimDuration batch_window = 0;
};

class BatchScheduler {
 public:
  // A cohort reaching this many operations flushes immediately instead of waiting out
  // the window (bounds store request sizes and worst-case queueing).
  static constexpr size_t kMaxBatchOps = 128;

  // One admitted operation waiting in a cohort. `waiter` is the pipeline's per-invocation
  // delivery state, opaque to the scheduler.
  struct Pending {
    Operation op;
    std::shared_ptr<void> waiter;
  };

  // A flushed batch: every operation admitted for one (kind, scope, level-set) grouping,
  // in arrival order — which is what makes per-key program order of batched writes fall
  // out naturally.
  struct Cohort {
    bool is_read = false;
    std::string scope;
    LevelVec levels;
    std::vector<Pending> ops;
  };

  using FlushFn = std::function<void(Cohort cohort)>;

  // `loop` may be null (loop-less unit-test clients): enabled() is then always false.
  BatchScheduler(EventLoop* loop, FlushFn flush);
  // Cancels every pending flush timer: a timer firing after the owning pipeline is gone
  // would touch freed state.
  ~BatchScheduler();

  // Installs `config` for all future admissions AND re-arms every pending cohort
  // against it: each open cohort's deadline is re-derived from its original open time
  // (opened_at + new window), so no waiter is ever delayed by more than one *new*
  // batch_window. A cohort whose new deadline has already passed — including any
  // shrink-to-0 — flushes synchronously. Old timers are cancelled before new ones arm
  // and Flush() is idempotent, so waiters are neither dropped nor double-flushed by
  // reconfiguration.
  void SetConfig(const BatchConfig& config);
  const BatchConfig& config() const { return config_; }

  // Cross-tick batching is active only with a loop to schedule flush timers on and a
  // non-zero window.
  bool enabled() const { return loop_ != nullptr && config_.batch_window > 0; }

  // Queues `op` into the pending cohort for (is_read, scope, levels), opening the cohort
  // (and arming its flush timer) if none is pending. Flushes synchronously when the
  // cohort reaches kMaxBatchOps. Requires enabled().
  void Admit(bool is_read, std::string scope, const LevelVec& levels, Operation op,
             std::shared_ptr<void> waiter);

  // Flushes every pending cohort now (drain before teardown, tests, explicit barriers).
  void FlushAll();

  size_t pending_ops() const;
  size_t pending_cohorts() const { return pending_.size(); }

 private:
  struct Open {
    Cohort cohort;
    TimerId timer = 0;
    SimTime opened_at = 0;  // first admission; deadlines re-derive from this on SetConfig
  };

  void Flush(const std::string& key);

  EventLoop* loop_;
  FlushFn flush_;
  BatchConfig config_;
  std::map<std::string, Open> pending_;  // keyed by kind + scope + level-set
};

}  // namespace icg

#endif  // ICG_CORRECTABLES_BATCH_SCHEDULER_H_
