#include "src/sim/loop_group.h"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <cstddef>
#include <limits>
#include <optional>
#include <utility>

namespace icg {
namespace {

// Which attached loop the current thread is driving, so Post can stamp the sender
// deterministically without any shared counter. -1 outside DriveLoop.
thread_local int tls_driving_loop = -1;

// Barrier spin budget (pause iterations) before a waiting thread parks on a condvar.
// At ~21 ns per pause (4-vCPU x86 VM) this spins ~1 ms: bench/parallel_loops publishes
// a pooled round every few hundred microseconds, and a budget of 4000 (~85 us) parked
// workers on up to half of its rounds, costing it a wake-up each; 50000 cut parks from
// ~1,200 to ~20 per run and lifted its speedup from ~1.8x to ~2.6x (medians of 8 and 6
// alternating runs).
constexpr int kSpinIterations = 50000;

inline void CpuRelax() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#elif defined(__aarch64__)
  asm volatile("yield" ::: "memory");
#else
  std::this_thread::yield();
#endif
}

}  // namespace

LoopGroup::LoopGroup(Options options) : options_(options) {}

LoopGroup::~LoopGroup() {
  if (!workers_.empty()) {
    stopping_.store(true, std::memory_order_release);
    {
      std::lock_guard<std::mutex> lock(park_mu_);
      worker_cv_.notify_all();
    }
    for (std::thread& worker : workers_) {
      worker.join();
    }
  }
}

int LoopGroup::Attach(EventLoop* loop) {
  assert(loop != nullptr);
  assert(loop->Now() == now_ && "attached loops must share the group clock");
  assert(workers_.empty() && "attach loops before the first threaded round");
  const int index = static_cast<int>(slots_.size());
  slots_.emplace_back();
  slots_.back().loop = loop;
  // Every sender (loops + the external poster) gets a run per target.
  for (Slot& slot : slots_) {
    slot.outbox.resize(slots_.size());
  }
  external_outbox_.resize(slots_.size());
  units_dirty_ = true;
  return index;
}

void LoopGroup::Post(int target, SimTime when, EventLoop::Task task) {
  assert(target >= 0 && target < size());
  Message message;
  message.when = when;
  message.sender = tls_driving_loop;
  message.task = std::move(task);
  if (message.sender >= 0) {
    // Hot path: one thread drives a loop per round, so the sender's outbox run and
    // sequence counter are single-writer — no lock, and (runs keep capacity across
    // drains) no steady-state allocation either.
    Slot& sender = slots_[static_cast<size_t>(message.sender)];
    message.seq = ++sender.post_seq;
    sender.outbox[static_cast<size_t>(target)].push_back(std::move(message));
    return;
  }
  // External (non-loop) poster: rare, and the only sender that needs a lock.
  std::lock_guard<std::mutex> lock(external_mu_);
  message.seq = ++external_seq_;
  external_outbox_[static_cast<size_t>(target)].push_back(std::move(message));
}

void LoopGroup::ScheduleDriverTask(SimTime when, EventLoop::Task task) {
  assert(task != nullptr);
  DriverTask pending;
  pending.when = std::max(when, now_);
  pending.seq = ++driver_task_seq_;
  pending.task = std::move(task);
  driver_tasks_.push_back(std::move(pending));
}

void LoopGroup::RunDueDriverTasks() {
  // Selection sort over the (small) pending set: due tasks run in (when, seq) order,
  // and a task scheduling another already-due task sees it picked up by this drain.
  while (true) {
    size_t best = driver_tasks_.size();
    for (size_t i = 0; i < driver_tasks_.size(); ++i) {
      if (driver_tasks_[i].when > now_) {
        continue;
      }
      if (best == driver_tasks_.size() ||
          driver_tasks_[i].when < driver_tasks_[best].when ||
          (driver_tasks_[i].when == driver_tasks_[best].when &&
           driver_tasks_[i].seq < driver_tasks_[best].seq)) {
        best = i;
      }
    }
    if (best == driver_tasks_.size()) {
      return;
    }
    EventLoop::Task task = std::move(driver_tasks_[best].task);
    driver_tasks_.erase(driver_tasks_.begin() + static_cast<long>(best));
    task();
  }
}

int LoopGroup::IndexOf(const EventLoop* loop) const {
  for (size_t i = 0; i < slots_.size(); ++i) {
    if (slots_[i].loop == loop) {
      return static_cast<int>(i);
    }
  }
  return -1;
}

size_t LoopGroup::pending_messages() const {
  size_t total = 0;
  for (const Slot& slot : slots_) {
    for (const auto& run : slot.outbox) {
      total += run.size();
    }
  }
  std::lock_guard<std::mutex> lock(external_mu_);
  for (const auto& run : external_outbox_) {
    total += run.size();
  }
  return total;
}

bool LoopGroup::EarliestQueuedDelivery(SimTime from, SimTime* out) const {
  SimTime best = std::numeric_limits<SimTime>::max();
  bool found = false;
  for (const Slot& slot : slots_) {
    for (const auto& run : slot.outbox) {
      for (const Message& message : run) {
        best = std::min(best, message.when);
        found = true;
      }
    }
  }
  {
    std::lock_guard<std::mutex> lock(external_mu_);
    for (const auto& run : external_outbox_) {
      for (const Message& message : run) {
        best = std::min(best, message.when);
        found = true;
      }
    }
  }
  if (!found) {
    return false;
  }
  *out = std::max(best, from);  // deliveries never land in the past
  return true;
}

void LoopGroup::DrainChannel() {
  // Runs on the driver thread between rounds: no loop is executing, so scheduling onto
  // targets is race-free. Each sender's run is clamped to the barrier FIRST and then
  // sorted by (delivery time, seq) — clamping after sorting could invert a sender's
  // submission order among messages that collapse onto the barrier time — and the
  // per-sender runs are k-way merged by (delivery time, sender, seq). That is exactly
  // the old full-sort order, so the target's same-timestamp FIFO order — and thereby
  // determinism — is independent of which thread interleaving filled the runs.
  int64_t drained = 0;
  int64_t late = 0;
  const size_t n = slots_.size();
  for (size_t target = 0; target < n; ++target) {
    drain_runs_.clear();
    for (size_t s = 0; s < n; ++s) {
      auto& run = slots_[s].outbox[target];
      if (!run.empty()) {
        drain_runs_.push_back(RunRef{&run, static_cast<int>(s), 0});
      }
    }
    if (!external_outbox_[target].empty()) {
      drain_runs_.push_back(RunRef{&external_outbox_[target], -1, 0});
    }
    if (drain_runs_.empty()) {
      continue;
    }
    size_t remaining = 0;
    for (RunRef& ref : drain_runs_) {
      for (Message& message : *ref.run) {
        if (message.when < now_) {
          message.when = now_;
          ++late;
        }
      }
      std::sort(ref.run->begin(), ref.run->end(),
                [](const Message& a, const Message& b) {
                  if (a.when != b.when) return a.when < b.when;
                  return a.seq < b.seq;
                });
      remaining += ref.run->size();
    }
    EventLoop* loop = slots_[target].loop;
    slots_[target].delivered_messages += static_cast<int64_t>(remaining);
    drained += static_cast<int64_t>(remaining);
    while (remaining > 0) {
      size_t best = drain_runs_.size();
      for (size_t i = 0; i < drain_runs_.size(); ++i) {
        RunRef& ref = drain_runs_[i];
        if (ref.pos >= ref.run->size()) {
          continue;
        }
        if (best == drain_runs_.size()) {
          best = i;
          continue;
        }
        const Message& a = (*ref.run)[ref.pos];
        const RunRef& best_ref = drain_runs_[best];
        const Message& b = (*best_ref.run)[best_ref.pos];
        if (a.when < b.when || (a.when == b.when && ref.sender < best_ref.sender)) {
          best = i;
        }
      }
      RunRef& ref = drain_runs_[best];
      Message& message = (*ref.run)[ref.pos++];
      loop->ScheduleAt(message.when, std::move(message.task));
      --remaining;
    }
    for (RunRef& ref : drain_runs_) {
      ref.run->clear();  // capacity survives: steady-state sends stay allocation-free
    }
  }
  if (drained > 0) {
    metrics_.GetCounter("channel_messages").Increment(drained);
    RaiseTo("channel_depth_highwater", drained);
  }
  if (late > 0) {
    metrics_.GetCounter("late_deliveries").Increment(late);
  }
}

void LoopGroup::RaiseTo(const char* name, int64_t candidate) {
  Counter& counter = metrics_.GetCounter(name);
  if (candidate > counter.value()) {
    counter.Increment(candidate - counter.value());
  }
}

void LoopGroup::RecordRoundStats() {
  // Driver-thread only, after the barrier (the completion handshake orders the
  // workers' slot writes before these reads). Exposes where a round's time went: the
  // hottest loop's event count is the serial floor of the round, channel depth shows
  // cross-loop pressure, and barrier_wait_ns (recorded in RunRound) shows what the
  // driver paid.
  int64_t hottest = 0;
  int64_t total = 0;
  for (const Slot& slot : slots_) {
    hottest = std::max(hottest, slot.round_events);
    total += slot.round_events;
  }
  RaiseTo("loop_events_highwater", hottest);
  RaiseTo("round_events_highwater", total);
  last_round_events_ = total;
}

void LoopGroup::DriveLoop(int index, SimTime barrier) {
  Slot& slot = slots_[static_cast<size_t>(index)];
  const int64_t before = slot.loop->events_processed();
  tls_driving_loop = index;
  slot.loop->RunUntil(barrier);
  tls_driving_loop = -1;
  slot.round_events = slot.loop->events_processed() - before;
}

void LoopGroup::DriveUnit(int unit_index, SimTime barrier) {
  // Ascending slot order — the sequential driver's order, so a fused unit behaves
  // bit-for-bit like the sequential schedule regardless of which thread claimed it.
  for (int slot : units_[static_cast<size_t>(unit_index)]) {
    DriveLoop(slot, barrier);
  }
}

void LoopGroup::FuseLanes(const std::vector<int>& lanes, SimTime until) {
  assert(until > now_ && "a fusion window must extend past the current barrier");
  Fusion fusion;
  fusion.lanes = lanes;
  std::sort(fusion.lanes.begin(), fusion.lanes.end());
  fusion.lanes.erase(std::unique(fusion.lanes.begin(), fusion.lanes.end()),
                     fusion.lanes.end());
  if (fusion.lanes.size() < 2) {
    return;
  }
  assert(fusion.lanes.front() >= 0 && fusion.lanes.back() < size());
  fusion.until = until;
  fusions_.push_back(std::move(fusion));
  units_dirty_ = true;
}

void LoopGroup::ExpireFusions() {
  if (fusions_.empty()) {
    return;
  }
  auto expired = std::remove_if(fusions_.begin(), fusions_.end(),
                                [&](const Fusion& f) { return f.until <= now_; });
  if (expired != fusions_.end()) {
    fusions_.erase(expired, fusions_.end());
    units_dirty_ = true;
  }
}

void LoopGroup::RebuildUnits() {
  const int n = size();
  std::vector<int> parent(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) {
    parent[static_cast<size_t>(i)] = i;
  }
  auto find = [&parent](int x) {
    while (parent[static_cast<size_t>(x)] != x) {
      parent[static_cast<size_t>(x)] =
          parent[static_cast<size_t>(parent[static_cast<size_t>(x)])];
      x = parent[static_cast<size_t>(x)];
    }
    return x;
  };
  for (const Fusion& fusion : fusions_) {
    const int anchor = fusion.lanes.front();
    for (size_t i = 1; i < fusion.lanes.size(); ++i) {
      const int a = find(anchor);
      const int b = find(fusion.lanes[i]);
      if (a != b) {
        // Union by smaller root so the representative is deterministic.
        parent[static_cast<size_t>(std::max(a, b))] = std::min(a, b);
      }
    }
  }
  units_.clear();
  std::vector<int> unit_of(static_cast<size_t>(n), -1);
  for (int s = 0; s < n; ++s) {
    const int root = find(s);
    if (unit_of[static_cast<size_t>(root)] < 0) {
      unit_of[static_cast<size_t>(root)] = static_cast<int>(units_.size());
      units_.emplace_back();
    }
    units_[static_cast<size_t>(unit_of[static_cast<size_t>(root)])].push_back(s);
  }
  units_dirty_ = false;
}

void LoopGroup::StartWorkers() {
  // The driver claims units too, so K threads in total means K - 1 workers.
  worker_count_ = std::min(options_.threads, size()) - 1;
  // Spinning only pays while every thread has a core of its own: with more threads than
  // cores a spinner burns the core a peer needs to finish, so park immediately there.
  spin_budget_ = worker_count_ + 1 <= HardwareThreads() ? kSpinIterations : 0;
  unit_claims_ = std::vector<std::atomic<uint64_t>>(static_cast<size_t>(size()));
  workers_.reserve(static_cast<size_t>(worker_count_));
  for (int w = 0; w < worker_count_; ++w) {
    workers_.emplace_back([this, w]() { WorkerMain(w); });
  }
}

void LoopGroup::WorkerMain(int worker_index) {
  uint64_t seen = 0;
  while (true) {
    // Spin-then-park for the next round: bounded spinning keeps the publish->work
    // handoff in user space when rounds are short; the park keeps idle workers off
    // the cores when they are not.
    uint64_t gen;
    int spins = spin_budget_;
    while ((gen = round_gen_.load(std::memory_order_acquire)) == seen) {
      if (stopping_.load(std::memory_order_acquire)) {
        return;
      }
      if (spins-- > 0) {
        CpuRelax();
        continue;
      }
      std::unique_lock<std::mutex> lock(park_mu_);
      ++parked_workers_;
      worker_cv_.wait(lock, [&]() {
        return round_gen_.load(std::memory_order_acquire) != seen ||
               stopping_.load(std::memory_order_acquire);
      });
      --parked_workers_;
    }
    seen = gen;
    DriveRoundShare(worker_index + 1, gen, round_barrier_);
    // acq_rel: the RMW chain on workers_active_ forms one release sequence, so the
    // driver's final acquire observes every worker's round writes, not just the last
    // decrementer's.
    if (workers_active_.fetch_sub(1, std::memory_order_acq_rel) == 1) {
      std::lock_guard<std::mutex> lock(park_mu_);
      if (driver_parked_) {
        driver_cv_.notify_one();
      }
    }
  }
}

bool LoopGroup::TryClaim(int unit, uint64_t gen) {
  std::atomic<uint64_t>& claim = unit_claims_[static_cast<size_t>(unit)];
  return claim.load(std::memory_order_relaxed) != gen &&
         claim.exchange(gen, std::memory_order_relaxed) != gen;
}

void LoopGroup::DriveRoundShare(int thread, uint64_t gen, SimTime barrier) {
  // Home units first: unit u belongs to thread u % (workers + 1), so in a balanced round
  // every loop stays on the same thread — and its working set in that core's cache —
  // round after round. Then steal whatever is still unclaimed, so a thread that drew a
  // hot unit never leaves the rest of its share waiting. A claim is exclusive (the
  // exchange stamps the unit with this round's generation), so each unit is still
  // driven by exactly one thread per round: loops need no locking, and per-loop event
  // order — and therefore determinism — is untouched. Claiming only decides *which
  // thread* drives a unit.
  const int threads = worker_count_ + 1;
  for (int unit : round_units_) {
    if (unit % threads == thread && TryClaim(unit, gen)) {
      DriveUnit(unit, barrier);
    }
  }
  for (int unit : round_units_) {
    if (TryClaim(unit, gen)) {
      DriveUnit(unit, barrier);
    }
  }
}

void LoopGroup::RunRound(SimTime barrier) {
  assert(barrier >= now_);
  ExpireFusions();
  if (units_dirty_) {
    RebuildUnits();
  }
  // Deliver everything queued before the round, so externally posted work (and last
  // round's messages) is on its target before that target runs — and before the
  // activity scan below, so a delivered message counts as due work.
  DrainChannel();
  // Partition units into active (an event due by the barrier) and idle. Idle loops
  // are advanced inline by the driver: RunUntil with nothing due runs no user code,
  // just moves the clock, so it is safe off the worker pool and costs ~nothing. The
  // active set depends only on virtual-time state, so it is width-independent.
  round_units_.clear();
  for (size_t u = 0; u < units_.size(); ++u) {
    bool active = false;
    for (int s : units_[u]) {
      const auto next = slots_[static_cast<size_t>(s)].loop->NextEventTime();
      if (next.has_value() && *next <= barrier) {
        active = true;
        break;
      }
    }
    if (active) {
      round_units_.push_back(static_cast<int>(u));
    } else {
      for (int s : units_[u]) {
        Slot& slot = slots_[static_cast<size_t>(s)];
        slot.loop->RunUntil(barrier);
        slot.round_events = 0;
      }
    }
  }
  const bool use_pool = threaded() && size() > 1;
  if (use_pool && workers_.empty()) {
    StartWorkers();
  }
  // Hand the round to the pool only when it can pay for the hand-off: one active unit
  // can't be parallelized, and a round whose predecessor ran fewer than
  // kMinPooledRoundEvents events costs less to drive here than a publish + wakeup +
  // barrier wait. The previous round's total is a virtual-time quantity, and which
  // thread drives a unit never changes its events, so the choice is invisible to
  // determinism.
  const bool pooled = use_pool && round_units_.size() > 1 &&
                      last_round_events_ >= kMinPooledRoundEvents;
  if (round_units_.empty()) {
    metrics_.GetCounter("rounds_idle").Increment();
  } else if (!pooled) {
    for (int unit : round_units_) {
      DriveUnit(unit, barrier);
    }
    if (use_pool) {
      metrics_.GetCounter("rounds_inline").Increment();
    }
  } else {
    // Publish the round: round state first, then the generation bump (release) that
    // spinning workers acquire; parked workers additionally need the notify.
    round_barrier_ = barrier;
    workers_active_.store(worker_count_, std::memory_order_relaxed);
    const uint64_t gen = round_gen_.fetch_add(1, std::memory_order_release) + 1;
    {
      std::lock_guard<std::mutex> lock(park_mu_);
      if (parked_workers_ > 0) {
        worker_cv_.notify_all();
      }
    }
    // The driver is thread 0 of the round: it drives its share instead of idling.
    DriveRoundShare(/*thread=*/0, gen, barrier);
    const auto wait_start = std::chrono::steady_clock::now();
    int spins = spin_budget_;
    while (workers_active_.load(std::memory_order_acquire) != 0) {
      if (spins-- > 0) {
        CpuRelax();
        continue;
      }
      std::unique_lock<std::mutex> lock(park_mu_);
      driver_parked_ = true;
      driver_cv_.wait(lock, [&]() {
        return workers_active_.load(std::memory_order_acquire) == 0;
      });
      driver_parked_ = false;
    }
    metrics_.GetCounter("barrier_wait_ns")
        .Increment(std::chrono::duration_cast<std::chrono::nanoseconds>(
                       std::chrono::steady_clock::now() - wait_start)
                       .count());
    metrics_.GetCounter("rounds_threaded").Increment();
  }
  RecordRoundStats();
  if (options_.adaptive_quantum && barrier - now_ > options_.quantum) {
    metrics_.GetCounter("rounds_widened").Increment();
  }
  now_ = barrier;
  ++rounds_;
  schedule_hash_ ^= static_cast<uint64_t>(barrier);
  schedule_hash_ *= 1099511628211ULL;
  if (options_.record_barrier_schedule) {
    barrier_history_.push_back(barrier);
  }
  // Between rounds, after the clock advance: no loop is executing, so a due driver
  // task sees the same quiesced state the sequential driver would — the contract that
  // lets control loops mutate placement and membership safely.
  RunDueDriverTasks();
}

SimTime LoopGroup::NextBarrier(SimTime from, SimTime limit) {
  if (!options_.adaptive_quantum) {
    return std::min<SimTime>(limit, from + options_.quantum);
  }
  // Activity-following width: run to the earliest pending event or queued delivery,
  // never closer than one base quantum (the barrier-rate floor bounds overhead AND the
  // late-delivery clamp: anything posted mid-round is late by at most `quantum`) and
  // never farther than the cap. Purely a function of virtual-time state — identical at
  // every thread width.
  const SimTime floor = from + options_.quantum;
  const SimTime cap = from + max_quantum();
  SimTime horizon = cap;
  bool any = false;
  for (Slot& slot : slots_) {
    const auto next = slot.loop->NextEventTime();
    if (next.has_value()) {
      horizon = std::min(horizon, std::max(*next, from));
      any = true;
    }
  }
  SimTime queued;
  if (EarliestQueuedDelivery(from, &queued)) {
    horizon = std::min(horizon, queued);
    any = true;
  }
  // Pending driver tasks are activity too: clamping the horizon to the earliest one
  // makes a control tick fire at its exact virtual time instead of waiting out a
  // quiescent stretch collapsed into one wide round.
  for (const DriverTask& pending : driver_tasks_) {
    horizon = std::min(horizon, std::max(pending.when, from));
    any = true;
  }
  SimTime barrier = any ? std::max(horizon, floor) : cap;
  barrier = std::min(barrier, cap);
  return std::min(barrier, limit);
}

void LoopGroup::RunUntil(SimTime until) {
  while (now_ < until) {
    RunRound(NextBarrier(now_, until));
  }
}

void LoopGroup::RunAll() {
  while (true) {
    // Earliest pending activity anywhere: loop events, or queued messages (delivered at
    // max(when, now) — never in the past).
    std::optional<SimTime> earliest;
    for (Slot& slot : slots_) {
      const auto next = slot.loop->NextEventTime();
      if (next.has_value() && (!earliest.has_value() || *next < *earliest)) {
        earliest = *next;
      }
    }
    SimTime queued;
    if (EarliestQueuedDelivery(now_, &queued) &&
        (!earliest.has_value() || queued < *earliest)) {
      earliest = queued;
    }
    if (!earliest.has_value()) {
      return;
    }
    const SimTime from = std::max(*earliest, now_);
    RunRound(NextBarrier(from, std::numeric_limits<SimTime>::max()));
  }
}

int LoopGroup::HardwareThreads() {
  const unsigned n = std::thread::hardware_concurrency();
  return n == 0 ? 1 : static_cast<int>(n);
}

}  // namespace icg
