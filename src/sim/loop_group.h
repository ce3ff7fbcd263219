// LoopGroup: N EventLoops advanced in lockstep virtual-time quanta, optionally on up to
// N real threads — the parallel execution substrate behind the multi-world benchmarks.
//
// Affinity model: everything scheduled on one EventLoop (a SimWorld's network, stores,
// clients, runners) stays on that loop, and each loop is driven by exactly one thread
// within any round, so simulated components need no locking. The only object shared
// between loops is the cross-loop channel below.
//
// Synchronization model: virtual time advances in quanta. Within a round every loop
// independently runs its own events up to the round's barrier time; at the barrier the
// driver drains the cross-loop channel and schedules delivered messages onto their
// target loops. A message posted during round R becomes visible on its target at round
// R+1, at virtual time max(when, barrier_R) — in threaded AND sequential mode alike, so
// the quantum (not thread interleaving) bounds cross-loop latency.
//
// Adaptive quanta (opt-in): with `adaptive_quantum` set, each round's width follows the
// earliest pending activity — the minimum over every loop's next event time and every
// queued cross-loop message's delivery time — clamped to [quantum, max_quantum]. Dense
// traffic degenerates to fixed-quantum rounds (late-delivery clamp stays bounded by the
// base quantum); quiescent stretches collapse into a handful of wide rounds instead of
// paying a barrier every `quantum`. The schedule is a pure function of virtual-time
// state (event times + posted-message history), never of thread interleaving, so it is
// identical at every thread width — the width-sweep oracles enforce this, and
// `barrier_schedule_hash()` fingerprints the exact barrier sequence.
//
// Determinism: bit-for-bit. Each loop's event sequence is a pure function of its own
// schedule (loops never touch each other mid-round), and drained messages are merged in
// (delivery time, sender, per-sender sequence) order before scheduling, which pins the
// target's FIFO tie-break order. Running with `threads = 0` (sequential), 2, or N
// produces identical per-loop histories — the seeded tests and consistency oracles rely
// on this to validate the threaded modes against the deterministic one.
//
// Scheduling model: `threads = K` means T = min(K, loops) threads drive rounds in
// total — the calling (driver) thread plus T - 1 persistent workers. Within a pooled
// round each thread first drives its home claim units (unit u belongs to thread u mod
// T; units are normally single loops, temporarily fused groups of loops during a
// migration window — see FuseLanes), so a loop's working set stays in one core's cache
// round after round. Then it steals any unit still unclaimed, so one hot loop never
// serializes the rest of its owner's share. Claiming only changes *which thread*
// drives a unit, never a loop's own event order, so determinism is untouched. Waiting
// threads spin for about a millisecond before parking, and skip the spin when the T
// threads outnumber the cores.
//
// Cost gate: handing a round to the pool costs a publish, a wakeup and a barrier wait,
// which dwarfs a round of a few dozen events. A round therefore goes to the pool only
// when it has at least two active units AND the previous round ran at least
// kMinPooledRoundEvents events in total; every other round is driven inline by the
// driver in unit order. Units with no events due are advanced inline too (advancing an
// eventless loop runs no user code). Inline rounds cost no wakeup, no barrier wait and
// no allocation. Because the gate reads a virtual-time quantity and the driving thread
// never affects events, the event order, barrier schedule and every virtual metric are
// the same whichever rounds pool. Per-round imbalance is visible through metrics():
// events/loop high-water, barrier wait time, and channel depth.
#ifndef ICG_SIM_LOOP_GROUP_H_
#define ICG_SIM_LOOP_GROUP_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <thread>
#include <vector>

#include "src/common/metrics.h"
#include "src/common/types.h"
#include "src/sim/event_loop.h"

namespace icg {

class LoopGroup {
 public:
  struct Options {
    // 0 or 1: the deterministic sequential driver (no threads are ever created).
    // K > 1: min(K, loops) threads drive rounds in total — the caller's thread plus
    // min(K, loops) - 1 persistent workers, started on the first round — and only
    // rounds that pass the cost gate (see file comment) wake the workers.
    int threads = 0;
    // Width of one synchronization round in virtual microseconds. Smaller quanta mean
    // lower cross-loop latency but more barriers per simulated second. With
    // `adaptive_quantum` this is the *floor*: the late-delivery clamp at a barrier is
    // never worse than one base quantum.
    SimDuration quantum = 1000;
    // Let round width follow pending activity (see file comment). Off by default so
    // fixed-quantum round counts — which existing tests and benches compare across
    // execution modes — are unchanged unless a caller opts in.
    bool adaptive_quantum = false;
    // Hard cap on one adaptive round's width, bounding real-time lane skew and the
    // channel-drain interval. 0 means 64 * quantum.
    SimDuration max_quantum = 0;
    // Keep the full per-round barrier-time history in memory (barrier_history()).
    // barrier_schedule_hash() is always maintained; the history is for tests.
    bool record_barrier_schedule = false;
  };

  LoopGroup() : LoopGroup(Options()) {}
  explicit LoopGroup(Options options);
  LoopGroup(const LoopGroup&) = delete;
  LoopGroup& operator=(const LoopGroup&) = delete;
  ~LoopGroup();

  // Registers a loop (not owned) and returns its index — the shard/world affinity slot.
  // The loop must currently sit at the group's virtual time (all loops advance
  // together), and attaching after worker threads have started is not supported.
  int Attach(EventLoop* loop);

  int size() const { return static_cast<int>(slots_.size()); }
  EventLoop& loop(int i) { return *slots_[static_cast<size_t>(i)].loop; }

  // Slot index of an attached loop, or -1 if it is not attached to this group.
  int IndexOf(const EventLoop* loop) const;

  // Cross-loop message: run `task` on loop `target` at virtual time >= `when`.
  // Callable from any loop's driving thread mid-round (each sender owns a private
  // outbox run per target — no locking on the hot path) and from the driver between
  // rounds. Delivery happens at the next barrier, at max(when, barrier time).
  void Post(int target, SimTime when, EventLoop::Task task);

  // Messages accepted but not yet scheduled onto their targets. Driver-thread only.
  size_t pending_messages() const;

  // Driver-side virtual-time task: runs on the DRIVER thread at the first barrier at
  // or after max(when, Now()) — i.e. between rounds, never while any loop executes —
  // so it may safely call the between-rounds APIs (FuseLanes, Post, live membership
  // changes on hosted stacks) and re-invoke ScheduleDriverTask to repeat, which is how
  // a periodic control loop rides the substrate. Due tasks run in (when, submission)
  // order. Under adaptive quanta a pending task clamps the round horizon like any
  // other activity, so it fires at its exact virtual time; the fire schedule is a pure
  // function of virtual-time state and therefore bit-identical at every thread width.
  //
  // RunAll deliberately does NOT treat pending driver tasks as activity (a
  // self-rescheduling controller would otherwise keep the group alive forever): stop
  // the rescheduling source before draining, as with failure detection. Driver-thread
  // only, between rounds.
  void ScheduleDriverTask(SimTime when, EventLoop::Task task);

  // Driver tasks accepted but not yet run (observability for tests).
  size_t pending_driver_tasks() const { return driver_tasks_.size(); }

  // Advances every loop to `until` through repeated quantum rounds.
  void RunUntil(SimTime until);

  // Runs rounds until no loop has pending events and the channel is empty.
  void RunAll();

  // Fuses the given slots into one claim unit until virtual time `until`: within each
  // round the fused loops are driven by a single thread in ascending slot order —
  // exactly the sequential driver's order, so fusion is invisible to determinism.
  // Used as the safety window for live shard migration: while a node's old and new
  // lanes are fused, work one lane schedules onto the other mid-round stays
  // single-threaded. Driver-thread only, between rounds; `until` must be > Now().
  // Overlapping fusions merge transitively; the fusion dissolves at the first barrier
  // at or past `until`.
  void FuseLanes(const std::vector<int>& lanes, SimTime until);

  // Fusion windows currently in force (observability for tests).
  int active_fusions() const { return static_cast<int>(fusions_.size()); }

  // The group's uniform virtual time (every attached loop's Now() between rounds).
  SimTime Now() const { return now_; }

  // Barrier rounds executed so far (observability for tests and pacing diagnostics).
  int64_t rounds() const { return rounds_; }

  bool threaded() const { return options_.threads > 1; }

  // A threaded round goes to the worker pool only if the previous round processed at
  // least this many events across all loops; lighter rounds run inline on the driver.
  // Sized by a sweep: bench/parallel_loops runs 256-511 events per busy round and gains
  // from the pool; a placed 4-lane deployment at 1,200 ops/s runs < 64 per 1 ms round,
  // and pooling its rounds of >= 16 events made it 4x slower than driving them inline.
  static constexpr int64_t kMinPooledRoundEvents = 128;

  // Worker threads actually constructed: min(threads, loops) - 1, since the driver is
  // one of the K threads. Stays 0 forever in sequential mode — the regression tests
  // assert this, since the sequential driver must never spawn or block.
  int workers_started() const { return worker_count_; }

  // FNV-1a over the sequence of barrier times so far: a fingerprint of the quantum
  // schedule. Bit-identical across thread widths — the width-sweep tests compare it.
  uint64_t barrier_schedule_hash() const { return schedule_hash_; }

  // Per-round barrier times; empty unless Options::record_barrier_schedule.
  const std::vector<SimTime>& barrier_history() const { return barrier_history_; }

  // Per-round imbalance and channel observability, updated by the driver at each
  // barrier (driver-thread reads only):
  //   "rounds_threaded"          rounds executed through the worker pool
  //   "rounds_inline"            threaded-mode rounds driven by the driver without
  //                              waking the pool: <= 1 active unit, or a previous
  //                              round below kMinPooledRoundEvents
  //   "rounds_idle"              rounds where no loop had an event due (clock advance
  //                              only — the quiescent case adaptive quanta compress)
  //   "rounds_widened"           adaptive rounds wider than the base quantum
  //   "loop_events_highwater"    most events one loop processed within a single round
  //   "round_events_highwater"   most events all loops processed within a single round
  //   "barrier_wait_ns"          total real time the driver spent blocked at barriers
  //   "channel_messages"         cross-loop messages delivered across all barriers
  //   "channel_depth_highwater"  most messages drained at a single barrier
  //   "late_deliveries"          drained messages whose delivery time had already
  //                              passed and was clamped to the barrier (the latency
  //                              cost of quantum width)
  const MetricRegistry& metrics() const { return metrics_; }

  // Cross-loop messages delivered *to* slot `target` so far (driver-thread only).
  // Feed for placement decisions alongside per-loop events_processed().
  int64_t slot_delivered_messages(int target) const {
    return slots_[static_cast<size_t>(target)].delivered_messages;
  }

  // Zeroes every metrics() counter (driver-thread only, between rounds). Benches call
  // this after warmup so per-phase numbers aren't cumulative. rounds()/clock state and
  // the barrier-schedule fingerprint are untouched.
  void ResetMetrics() { metrics_.Reset(); }

  // Real cores available, for core-count-aware benchmark gates.
  static int HardwareThreads();

 private:
  struct Message {
    SimTime when = 0;
    int sender = -1;  // attached loop index, or -1 for an external (driver) post
    uint64_t seq = 0;  // per-sender submission order: the deterministic tie-break
    EventLoop::Task task;
  };

  // Cache-line padded: adjacent slots are hammered by different worker threads.
  struct alignas(64) Slot {
    EventLoop* loop = nullptr;
    uint64_t post_seq = 0;  // messages sent *by* this loop (driving thread only)
    int64_t round_events = 0;  // events this loop ran last round (its driver writes,
                               // the group driver reads after the barrier)
    int64_t delivered_messages = 0;  // cross-loop messages delivered TO this loop
                                     // (driver writes at drains)
    // Outbox runs: outbox[target] holds the messages this loop posted to `target`
    // since the last drain. Written only by the one thread driving this loop within a
    // round, read by the driver at the barrier — no lock anywhere on the send path.
    // Runs keep their capacity across drains, so steady-state sends allocate nothing.
    std::vector<std::vector<Message>> outbox;
  };

  struct Fusion {
    std::vector<int> lanes;  // sorted, >= 2 entries
    SimTime until = 0;
  };

  struct DriverTask {
    SimTime when = 0;
    uint64_t seq = 0;  // submission order: the deterministic same-time tie-break
    EventLoop::Task task;
  };

  // Runs every loop to `barrier` (sequentially or via the worker pool), then delivers
  // all queued cross-loop messages and advances the group clock.
  void RunRound(SimTime barrier);
  // Next round's barrier starting from `from`, capped at `limit`: from + quantum, or
  // the activity-following adaptive width (see file comment).
  SimTime NextBarrier(SimTime from, SimTime limit);
  void DriveLoop(int index, SimTime barrier);
  // Drives a claim unit's loops in ascending slot order (the sequential order).
  void DriveUnit(int unit_index, SimTime barrier);
  void DrainChannel();
  // Earliest pending cross-loop delivery, as seen from `from` (deliveries never land
  // in the past); returns false if the channel is empty. Driver-thread only.
  bool EarliestQueuedDelivery(SimTime from, SimTime* out) const;
  // Runs every driver task whose time has arrived, in (when, seq) order. Called by the
  // driver after a round's clock advance; a task may schedule further tasks, which run
  // in this same drain if already due.
  void RunDueDriverTasks();
  // Drops expired fusions and rebuilds units_ if the fusion set changed.
  void ExpireFusions();
  void RebuildUnits();
  void StartWorkers();
  void WorkerMain(int worker_index);
  // Claims `unit` for round `gen`; true if the caller won it (claims are exclusive).
  bool TryClaim(int unit, uint64_t gen);
  // Drives thread `thread`'s share of a pooled round (the driver is thread 0, worker w
  // is thread w + 1): its home units first, then any unit still unclaimed.
  void DriveRoundShare(int thread, uint64_t gen, SimTime barrier);
  void RecordRoundStats();
  // Counter-as-high-water: bumps `name` up to `candidate` if it is a new maximum.
  void RaiseTo(const char* name, int64_t candidate);
  SimDuration max_quantum() const {
    return options_.max_quantum > 0 ? options_.max_quantum : options_.quantum * 64;
  }

  Options options_;
  SimTime now_ = 0;
  int64_t rounds_ = 0;
  std::vector<Slot> slots_;
  MetricRegistry metrics_;  // driver-thread only (updated between rounds)

  // External (non-loop) posters: one run per target, guarded — external posts are rare
  // (test setup, bench injection) and never on a loop's hot path.
  mutable std::mutex external_mu_;
  uint64_t external_seq_ = 0;
  std::vector<std::vector<Message>> external_outbox_;

  // Claim units. units_ is the stable partition (singletons unless fused);
  // round_units_ holds the indices of units with work due this round, in unit order.
  // Both are written by the driver before a round is published and read-only during it.
  std::vector<std::vector<int>> units_;
  bool units_dirty_ = true;
  std::vector<Fusion> fusions_;
  std::vector<int> round_units_;

  // Pending driver tasks (driver-thread only; unsorted, drained by RunDueDriverTasks).
  std::vector<DriverTask> driver_tasks_;
  uint64_t driver_task_seq_ = 0;

  // Drain scratch, reused across barriers (capacity persists; no steady-state allocs).
  struct RunRef {
    std::vector<Message>* run;
    int sender;
    size_t pos;
  };
  std::vector<RunRef> drain_runs_;

  // Quantum schedule fingerprint (FNV-1a over barrier times) + optional history.
  uint64_t schedule_hash_ = 1469598103934665603ULL;
  std::vector<SimTime> barrier_history_;

  // Worker pool (created lazily on the first threaded round).
  int worker_count_ = 0;  // set before any worker starts; constant afterwards
  int spin_budget_ = 0;   // per-wait spin iterations before parking
  int64_t last_round_events_ = 0;  // events all loops ran last round (the cost gate)
  std::vector<std::thread> workers_;

  // Spin-then-park barrier. The driver publishes a round by bumping round_gen_
  // (release) after writing round_barrier_/round_units_/workers_active_;
  // workers spin on round_gen_ (acquire) and park on worker_cv_ when the budget runs
  // out. Completion runs through workers_active_: each worker fetch_subs (acq_rel) so
  // the RMW release sequence hands every worker's round writes to the driver's final
  // acquire load; the last worker wakes the driver only if it actually parked.
  std::atomic<uint64_t> round_gen_{0};
  std::atomic<int> workers_active_{0};
  std::atomic<bool> stopping_{false};
  SimTime round_barrier_ = 0;  // published by the round_gen_ release/acquire pair
  std::mutex park_mu_;
  std::condition_variable worker_cv_;  // driver -> parked workers: new round / stop
  std::condition_variable driver_cv_;  // last worker -> parked driver: round done
  int parked_workers_ = 0;     // under park_mu_
  bool driver_parked_ = false;  // under park_mu_

  // Per-unit claim stamps, indexed by unit: a thread claims a unit for a round by
  // exchanging in that round's generation. Generations only grow, so stamps never need
  // a reset; sized to size() (an upper bound on the unit count) when workers start.
  std::vector<std::atomic<uint64_t>> unit_claims_;
};

}  // namespace icg

#endif  // ICG_SIM_LOOP_GROUP_H_
