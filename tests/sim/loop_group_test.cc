#include "src/sim/loop_group.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "src/sim/event_loop.h"

namespace icg {
namespace {

// A ping-pong workload across `n_loops` loops: every event appends a record to its
// loop's trace and posts a follow-up to the next loop. The concatenated traces are a
// fingerprint of the whole execution — equal fingerprints mean bit-for-bit equal runs.
struct Mesh {
  explicit Mesh(int n_loops, LoopGroup::Options options) : group(options) {
    loops.reserve(static_cast<size_t>(n_loops));
    traces.resize(static_cast<size_t>(n_loops));
    for (int i = 0; i < n_loops; ++i) {
      loops.push_back(std::make_unique<EventLoop>());
      group.Attach(loops.back().get());
    }
  }

  void Record(int loop_index, const std::string& tag) {
    std::ostringstream line;
    line << tag << "@" << loops[static_cast<size_t>(loop_index)]->Now();
    traces[static_cast<size_t>(loop_index)].push_back(line.str());
  }

  // Schedules a hop chain starting on `origin`: each hop records, then posts the next
  // hop to (loop + 1) % n with a small virtual delay.
  void StartChain(int origin, int hops, const std::string& tag) {
    loops[static_cast<size_t>(origin)]->Schedule(0, [this, origin, hops, tag]() {
      Hop(origin, hops, tag);
    });
  }

  void Hop(int at, int remaining, const std::string& tag) {
    const std::string hop = tag + ":" + std::to_string(remaining);
    Record(at, hop);
    for (int i = 0; i < burst; ++i) {
      loops[static_cast<size_t>(at)]->Schedule(0, [this, at, hop, i]() {
        Record(at, hop + "." + std::to_string(i));
      });
    }
    if (remaining == 0) return;
    const int next = (at + 1) % group.size();
    group.Post(next, loops[static_cast<size_t>(at)]->Now() + 100,
               [this, next, remaining, tag]() { Hop(next, remaining - 1, tag); });
  }

  std::string Fingerprint() const {
    std::ostringstream out;
    for (size_t i = 0; i < traces.size(); ++i) {
      out << "loop" << i << "{";
      for (const std::string& line : traces[i]) out << line << ";";
      out << "}";
    }
    return out.str();
  }

  LoopGroup group;
  std::vector<std::unique_ptr<EventLoop>> loops;
  std::vector<std::vector<std::string>> traces;
  // Local events each hop adds on its own loop at the same virtual time: they make a
  // round heavy without adding cross-loop traffic.
  int burst = 0;
};

// A burst at which one hop alone outweighs the pool's cost gate: from the second round
// on, every round with two or more busy loops goes to the workers.
constexpr int kHeavyBurst = static_cast<int>(LoopGroup::kMinPooledRoundEvents);

struct MeshRun {
  std::string fingerprint;
  int64_t rounds_threaded = 0;
  int64_t rounds_inline = 0;
  int64_t barrier_wait_ns = 0;
};

MeshRun RunMeshWith(int n_loops, int threads, int burst) {
  LoopGroup::Options options;
  options.threads = threads;
  options.quantum = 500;
  Mesh mesh(n_loops, options);
  mesh.burst = burst;
  for (int i = 0; i < n_loops; ++i) {
    mesh.StartChain(i, /*hops=*/20, "chain" + std::to_string(i));
  }
  mesh.group.RunAll();
  EXPECT_EQ(mesh.group.pending_messages(), 0u);
  MeshRun run;
  run.fingerprint = mesh.Fingerprint();
  run.rounds_threaded = mesh.group.metrics().Value("rounds_threaded");
  run.rounds_inline = mesh.group.metrics().Value("rounds_inline");
  run.barrier_wait_ns = mesh.group.metrics().Value("barrier_wait_ns");
  return run;
}

std::string RunMesh(int n_loops, int threads, int burst = 0) {
  return RunMeshWith(n_loops, threads, burst).fingerprint;
}

TEST(LoopGroup, AttachAssignsIndices) {
  LoopGroup group;
  EventLoop a, b;
  EXPECT_EQ(group.Attach(&a), 0);
  EXPECT_EQ(group.Attach(&b), 1);
  EXPECT_EQ(group.size(), 2);
  EXPECT_EQ(&group.loop(0), &a);
  EXPECT_EQ(&group.loop(1), &b);
}

TEST(LoopGroup, RunUntilAdvancesAllLoopsTogether) {
  LoopGroup::Options options;
  options.quantum = 250;
  LoopGroup group(options);
  EventLoop a, b;
  group.Attach(&a);
  group.Attach(&b);
  int fired = 0;
  a.Schedule(600, [&]() { ++fired; });
  b.Schedule(900, [&]() { ++fired; });
  group.RunUntil(1000);
  EXPECT_EQ(fired, 2);
  EXPECT_EQ(group.Now(), 1000);
  EXPECT_EQ(a.Now(), 1000);
  EXPECT_EQ(b.Now(), 1000);
  EXPECT_EQ(group.rounds(), 4);  // 1000 / 250
}

TEST(LoopGroup, PostDeliversAtNextBarrierNotBefore) {
  LoopGroup::Options options;
  options.quantum = 1000;
  LoopGroup group(options);
  EventLoop a, b;
  group.Attach(&a);
  group.Attach(&b);
  SimTime delivered_at = -1;
  // Loop 0 posts to loop 1 mid-round at virtual time 100; the message is drained at the
  // round-2 barrier (group time 1000) and must run at max(when, 1000).
  a.Schedule(100, [&]() {
    group.Post(1, a.Now() + 50, [&]() { delivered_at = b.Now(); });
  });
  group.RunUntil(1000);
  EXPECT_EQ(delivered_at, -1);  // still queued: drained at the *start* of the next round
  EXPECT_EQ(group.pending_messages(), 1u);
  group.RunUntil(2000);
  EXPECT_EQ(delivered_at, 1000);
}

TEST(LoopGroup, ExternalPostsKeepSubmissionOrder) {
  LoopGroup group;
  EventLoop a;
  group.Attach(&a);
  std::vector<int> order;
  for (int i = 0; i < 8; ++i) {
    group.Post(0, 500, [&order, i]() { order.push_back(i); });
  }
  group.RunAll();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4, 5, 6, 7}));
}

TEST(LoopGroup, RunAllTerminatesAndDrainsEverything) {
  const std::string fp = RunMesh(/*n_loops=*/3, /*threads=*/0);
  EXPECT_NE(fp.find("chain0:0"), std::string::npos);
  EXPECT_NE(fp.find("chain2:0"), std::string::npos);
}

TEST(LoopGroup, SequentialMatchesSingleThreadMode) {
  EXPECT_EQ(RunMesh(4, /*threads=*/0), RunMesh(4, /*threads=*/1));
}

TEST(LoopGroup, ThreadedIsBitForBitDeterministic) {
  // Heavy rounds, so the worker pool actually drives them.
  const std::string sequential = RunMesh(4, /*threads=*/0, kHeavyBurst);
  // Repeat the threaded widths a few times: any nondeterministic interleaving leaking
  // into delivery order would eventually produce a different fingerprint.
  for (int attempt = 0; attempt < 5; ++attempt) {
    EXPECT_EQ(RunMesh(4, /*threads=*/2, kHeavyBurst), sequential)
        << "threads=2 attempt " << attempt;
    EXPECT_EQ(RunMesh(4, /*threads=*/4, kHeavyBurst), sequential)
        << "threads=4 attempt " << attempt;
  }
}

TEST(LoopGroup, ThreadedManyLoopsFewThreads) {
  // More loops than threads: work stealing must still cover every loop.
  EXPECT_EQ(RunMesh(7, /*threads=*/3, kHeavyBurst),
            RunMesh(7, /*threads=*/0, kHeavyBurst));
}

TEST(LoopGroup, ThreadedWidthEight) {
  // Width 8: as many threads as loops racing for claim stamps — the TSan job runs this
  // to shake races out of claiming and barrier signalling at full contention.
  EXPECT_EQ(RunMesh(8, /*threads=*/8, kHeavyBurst),
            RunMesh(8, /*threads=*/0, kHeavyBurst));
}

TEST(LoopGroup, HeavyRoundsRunOnThePoolBitForBit) {
  // Rounds above the cost gate go to the workers, and the pool must not change a
  // single event: the fingerprint matches sequential at every width. This is the test
  // that keeps the pool under TSan, since small oracle rounds may all run inline.
  const MeshRun sequential = RunMeshWith(4, /*threads=*/0, kHeavyBurst);
  EXPECT_EQ(sequential.rounds_threaded, 0);
  for (const int threads : {2, 4, 8}) {
    const MeshRun threaded = RunMeshWith(4, threads, kHeavyBurst);
    EXPECT_EQ(threaded.fingerprint, sequential.fingerprint) << "threads=" << threads;
    EXPECT_GT(threaded.rounds_threaded, 0) << "threads=" << threads;
  }
}

TEST(LoopGroup, LightRoundsStayInlineAtWidthFour) {
  // Four busy lanes, one event each per round: far below the cost gate, so the driver
  // runs every round itself and never waits at a barrier — the same history as
  // sequential, without the hand-off.
  const MeshRun light = RunMeshWith(4, /*threads=*/4, /*burst=*/0);
  EXPECT_EQ(light.fingerprint, RunMesh(4, /*threads=*/0));
  EXPECT_EQ(light.rounds_threaded, 0);
  EXPECT_GT(light.rounds_inline, 0);
  EXPECT_EQ(light.barrier_wait_ns, 0);
}

TEST(LoopGroup, HardwareThreadsIsPositive) {
  EXPECT_GE(LoopGroup::HardwareThreads(), 1);
}

TEST(LoopGroup, SequentialModeNeverStartsWorkers) {
  // The sequential driver (threads = 0 or 1) must never construct a thread or block:
  // Post takes the lock-free fast path and rounds run inline on the caller.
  for (const int threads : {0, 1}) {
    LoopGroup::Options options;
    options.threads = threads;
    options.quantum = 500;
    Mesh mesh(4, options);
    for (int i = 0; i < 4; ++i) {
      mesh.StartChain(i, /*hops=*/10, "chain" + std::to_string(i));
    }
    mesh.group.RunAll();
    EXPECT_EQ(mesh.group.workers_started(), 0) << "threads=" << threads;
    EXPECT_EQ(mesh.group.metrics().Value("rounds_threaded"), 0) << "threads=" << threads;
  }
}

TEST(LoopGroup, ThreadedStartsBoundedWorkers) {
  // min(K, loops) - 1 workers (the driver is one of the K threads), created lazily on
  // the first threaded round. Heavy chains on every loop keep several claim units
  // active per round above the cost gate, so the pool actually runs rounds.
  LoopGroup::Options options;
  options.threads = 8;
  options.quantum = 500;
  Mesh mesh(3, options);
  mesh.burst = kHeavyBurst;
  EXPECT_EQ(mesh.group.workers_started(), 0);  // lazy: nothing ran yet
  for (int i = 0; i < 3; ++i) {
    mesh.StartChain(i, /*hops=*/6, "chain" + std::to_string(i));
  }
  mesh.group.RunAll();
  EXPECT_EQ(mesh.group.workers_started(), 2);
  EXPECT_GT(mesh.group.metrics().Value("rounds_threaded"), 0);
}

TEST(LoopGroup, SingleActiveLaneRoundsSkipThePool) {
  // With one chain bouncing between loops, every round has exactly one loop with due
  // events — the driver runs it inline instead of waking workers, so no round pays a
  // barrier wait. The pool is still constructed (lazily) in case a later round fans out.
  LoopGroup::Options options;
  options.threads = 4;
  options.quantum = 500;
  Mesh mesh(3, options);
  mesh.StartChain(0, /*hops=*/6, "chain0");
  mesh.group.RunAll();
  EXPECT_EQ(mesh.group.workers_started(), 2);
  EXPECT_EQ(mesh.group.metrics().Value("rounds_threaded"), 0);
  EXPECT_GT(mesh.group.metrics().Value("rounds_inline"), 0);
  EXPECT_EQ(mesh.group.metrics().Value("barrier_wait_ns"), 0);
}

TEST(LoopGroup, IndexOfFindsAttachedLoops) {
  LoopGroup group;
  EventLoop a, b, stranger;
  group.Attach(&a);
  group.Attach(&b);
  EXPECT_EQ(group.IndexOf(&a), 0);
  EXPECT_EQ(group.IndexOf(&b), 1);
  EXPECT_EQ(group.IndexOf(&stranger), -1);
}

TEST(LoopGroup, RoundStatsTrackWorkAndChannelTraffic) {
  LoopGroup::Options options;
  options.threads = 2;
  options.quantum = 500;
  Mesh mesh(4, options);
  mesh.burst = kHeavyBurst;  // rounds above the cost gate, so the pool runs some
  for (int i = 0; i < 4; ++i) {
    mesh.StartChain(i, /*hops=*/20, "chain" + std::to_string(i));
  }
  mesh.group.RunAll();
  const MetricRegistry& m = mesh.group.metrics();
  // Every hop crosses loops, so the channel carried all of them.
  EXPECT_GE(m.Value("channel_messages"), 4 * 20);
  EXPECT_GT(m.Value("channel_depth_highwater"), 0);
  EXPECT_LE(m.Value("channel_depth_highwater"), m.Value("channel_messages"));
  // Some loop processed at least one event in some round, and the per-round total
  // dominates the per-loop high-water.
  EXPECT_GT(m.Value("loop_events_highwater"), 0);
  EXPECT_GE(m.Value("round_events_highwater"), m.Value("loop_events_highwater"));
  EXPECT_GT(m.Value("rounds_threaded"), 0);
}

// Pulsed workload for the adaptive-quantum tests: a hop burst at t=0 and another after
// a long quiescent gap, with heavy hops so the threaded widths pool the busy rounds.
// Returns {fingerprint, rounds, schedule hash, barrier history, pooled rounds}.
struct AdaptiveRun {
  std::string fingerprint;
  int64_t rounds = 0;
  uint64_t schedule_hash = 0;
  std::vector<SimTime> barriers;
  int64_t rounds_threaded = 0;
};

AdaptiveRun RunPulsedMesh(int threads, bool adaptive) {
  LoopGroup::Options options;
  options.threads = threads;
  options.quantum = 500;
  options.adaptive_quantum = adaptive;
  options.max_quantum = 20000;
  options.record_barrier_schedule = true;
  Mesh mesh(4, options);
  mesh.burst = kHeavyBurst;
  for (int i = 0; i < 4; ++i) {
    mesh.StartChain(i, /*hops=*/12, "burst0-" + std::to_string(i));
  }
  // Second burst after ~190k us of silence — the stretch fixed quanta pay 380 barriers
  // for and adaptive quanta cross in ~10 capped rounds.
  mesh.loops[0]->Schedule(200000, [&mesh]() { mesh.Hop(0, 12, "burst1"); });
  mesh.group.RunUntil(250000);
  AdaptiveRun run;
  run.fingerprint = mesh.Fingerprint();
  run.rounds = mesh.group.rounds();
  run.schedule_hash = mesh.group.barrier_schedule_hash();
  run.barriers = mesh.group.barrier_history();
  run.rounds_threaded = mesh.group.metrics().Value("rounds_threaded");
  return run;
}

TEST(LoopGroup, AdaptiveQuantumScheduleIsIdenticalAcrossWidths) {
  // The quantum schedule is a pure function of virtual-time state, so the sequence of
  // barrier times — not just the event histories — must be byte-identical at widths
  // 0/2/4/8.
  const AdaptiveRun sequential = RunPulsedMesh(/*threads=*/0, /*adaptive=*/true);
  EXPECT_GT(sequential.barriers.size(), 0u);
  EXPECT_EQ(sequential.barriers.size(), static_cast<size_t>(sequential.rounds));
  for (const int threads : {2, 4, 8}) {
    const AdaptiveRun threaded = RunPulsedMesh(threads, /*adaptive=*/true);
    EXPECT_EQ(threaded.fingerprint, sequential.fingerprint) << "threads=" << threads;
    EXPECT_EQ(threaded.barriers, sequential.barriers) << "threads=" << threads;
    EXPECT_EQ(threaded.schedule_hash, sequential.schedule_hash)
        << "threads=" << threads;
    EXPECT_GT(threaded.rounds_threaded, 0) << "threads=" << threads;
  }
}

TEST(LoopGroup, WidenedHeavyRoundRunsOnThePoolBitForBit) {
  // Heavy local work on every loop at t=0 and again at t=5000. With adaptive quanta the
  // second pulse is reached by one widened round [500, 5000] that follows a heavy
  // round, so it is the one round the cost gate sends to the pool: the widened-round
  // schedule and the pool must compose without changing an event or a barrier.
  auto run = [](int threads) {
    LoopGroup::Options options;
    options.threads = threads;
    options.quantum = 500;
    options.adaptive_quantum = true;
    options.max_quantum = 20000;
    options.record_barrier_schedule = true;
    Mesh mesh(4, options);
    for (int i = 0; i < 4; ++i) {
      for (const SimDuration at : {SimDuration{0}, SimDuration{5000}}) {
        for (int e = 0; e < kHeavyBurst; ++e) {
          mesh.loops[static_cast<size_t>(i)]->Schedule(at, [&mesh, i, e]() {
            mesh.Record(i, "pulse." + std::to_string(e));
          });
        }
      }
    }
    mesh.group.RunUntil(5000);
    AdaptiveRun result;
    result.fingerprint = mesh.Fingerprint();
    result.barriers = mesh.group.barrier_history();
    result.rounds_threaded = mesh.group.metrics().Value("rounds_threaded");
    EXPECT_EQ(mesh.group.metrics().Value("rounds_widened"), 1) << "threads=" << threads;
    return result;
  };
  const AdaptiveRun sequential = run(/*threads=*/0);
  EXPECT_EQ(sequential.barriers, (std::vector<SimTime>{500, 5000}));
  for (const int threads : {2, 4, 8}) {
    const AdaptiveRun threaded = run(threads);
    EXPECT_EQ(threaded.fingerprint, sequential.fingerprint) << "threads=" << threads;
    EXPECT_EQ(threaded.barriers, sequential.barriers) << "threads=" << threads;
    EXPECT_EQ(threaded.rounds_threaded, 1) << "threads=" << threads;
  }
}

TEST(LoopGroup, AdaptiveQuantumCompressesQuiescentStretches) {
  // Same workload, same deliveries — the event fingerprint must not change — but the
  // quiescent gap collapses into capped wide rounds instead of one barrier per quantum.
  const AdaptiveRun fixed = RunPulsedMesh(/*threads=*/0, /*adaptive=*/false);
  const AdaptiveRun adaptive = RunPulsedMesh(/*threads=*/0, /*adaptive=*/true);
  EXPECT_EQ(adaptive.fingerprint, fixed.fingerprint);
  EXPECT_LT(adaptive.rounds, fixed.rounds / 4);
}

TEST(LoopGroup, AdaptiveQuantumBoundsLateDeliveryByBaseQuantum) {
  // Messages posted mid-round are clamped to the barrier; with activity-following
  // widths the clamp is never worse than one base quantum, so every hop (+100 us) must
  // run within quantum of its nominal time. The Mesh records loop Now() at each hop —
  // compare against a fixed-quantum run whose lateness bound is the same base quantum.
  LoopGroup::Options options;
  options.quantum = 500;
  options.adaptive_quantum = true;
  options.max_quantum = 50000;
  Mesh mesh(3, options);
  mesh.StartChain(0, /*hops=*/10, "chain0");
  // A far-future event forces wide idle rounds to be *available* while the chain is
  // still hopping at +100 us steps — the horizon must hold widths down to the floor.
  mesh.loops[2]->Schedule(100000, []() {});
  mesh.group.RunAll();
  // Hop k runs at most one base quantum after the previous hop's delivery time.
  for (const auto& trace : mesh.traces) {
    for (const std::string& line : trace) {
      const auto at = line.find('@');
      ASSERT_NE(at, std::string::npos);
      const SimTime when = std::stoll(line.substr(at + 1));
      if (when < 100000) {
        // 10 hops, 100 us apart, each clamp <= 500: nothing may drift past ~hop budget.
        EXPECT_LE(when, 10 * 100 + 10 * 500) << line;
      }
    }
  }
}

TEST(LoopGroup, ResetMetricsZeroesCountersButNotClockOrSchedule) {
  LoopGroup::Options options;
  options.quantum = 500;
  Mesh mesh(2, options);
  mesh.StartChain(0, /*hops=*/8, "chain0");
  mesh.group.RunAll();
  EXPECT_GT(mesh.group.metrics().Value("channel_messages"), 0);
  const int64_t rounds_before = mesh.group.rounds();
  const uint64_t hash_before = mesh.group.barrier_schedule_hash();
  mesh.group.ResetMetrics();
  EXPECT_EQ(mesh.group.metrics().Value("channel_messages"), 0);
  EXPECT_EQ(mesh.group.metrics().Value("loop_events_highwater"), 0);
  EXPECT_EQ(mesh.group.rounds(), rounds_before);
  EXPECT_EQ(mesh.group.barrier_schedule_hash(), hash_before);
  // Counters start accumulating again from zero for the next phase.
  mesh.StartChain(1, /*hops=*/4, "chain1");
  mesh.group.RunAll();
  EXPECT_GE(mesh.group.metrics().Value("channel_messages"), 4);
}

// Heavy hops, so the threaded widths drive the fused unit through the pool.
MeshRun RunFusedMesh(int threads) {
  LoopGroup::Options options;
  options.threads = threads;
  options.quantum = 500;
  Mesh mesh(4, options);
  mesh.burst = kHeavyBurst;
  for (int i = 0; i < 4; ++i) {
    mesh.StartChain(i, /*hops=*/20, "chain" + std::to_string(i));
  }
  mesh.group.RunUntil(2000);
  // Fuse two busy lanes mid-run (the live-migration safety window) and let the window
  // expire while traffic is still flowing.
  mesh.group.FuseLanes({1, 3}, mesh.group.Now() + 3000);
  EXPECT_EQ(mesh.group.active_fusions(), 1);
  const int64_t pooled_before = mesh.group.metrics().Value("rounds_threaded");
  mesh.group.RunUntil(4000);
  MeshRun run;
  // Rounds pooled while the fusion window was open.
  run.rounds_threaded = mesh.group.metrics().Value("rounds_threaded") - pooled_before;
  mesh.group.RunAll();
  EXPECT_EQ(mesh.group.active_fusions(), 0);  // dissolved at the expiry barrier
  run.fingerprint = mesh.Fingerprint();
  return run;
}

TEST(LoopGroup, FusedLanesAreInvisibleToDeterminism) {
  // A fused unit is driven by one thread in ascending slot order — the sequential
  // order — so fusing lanes must not change any event history at any width.
  const MeshRun sequential = RunFusedMesh(/*threads=*/0);
  for (const int threads : {2, 4}) {
    const MeshRun threaded = RunFusedMesh(threads);
    EXPECT_EQ(threaded.fingerprint, sequential.fingerprint) << "threads=" << threads;
    EXPECT_GT(threaded.rounds_threaded, 0) << "threads=" << threads;
  }
  // And it matches the unfused run.
  EXPECT_EQ(sequential.fingerprint, RunMesh(4, /*threads=*/0, kHeavyBurst));
}

TEST(LoopGroup, ChannelMetricsCountInSequentialModeToo) {
  LoopGroup::Options options;
  options.threads = 0;
  options.quantum = 500;
  Mesh mesh(2, options);
  mesh.StartChain(0, /*hops=*/8, "chain0");
  mesh.group.RunAll();
  EXPECT_GE(mesh.group.metrics().Value("channel_messages"), 8);
  EXPECT_EQ(mesh.group.metrics().Value("barrier_wait_ns"), 0);  // never blocked
}

// --- Driver tasks: between-rounds callbacks on the barrier schedule ------------------

TEST(LoopGroup, DriverTaskFiresAtFirstBarrierAtOrAfterItsTime) {
  LoopGroup::Options options;
  options.quantum = 500;
  Mesh mesh(2, options);
  std::vector<SimTime> fired;
  // 750 sits mid-round: the task must fire at the 1000 barrier, not at 500 and not
  // inside a loop's execution.
  mesh.group.ScheduleDriverTask(750, [&] { fired.push_back(mesh.group.Now()); });
  EXPECT_EQ(mesh.group.pending_driver_tasks(), 1u);
  mesh.group.RunUntil(2000);
  ASSERT_EQ(fired.size(), 1u);
  EXPECT_EQ(fired[0], 1000);
  EXPECT_EQ(mesh.group.pending_driver_tasks(), 0u);
}

TEST(LoopGroup, DriverTasksRunInTimeThenSubmissionOrder) {
  LoopGroup::Options options;
  options.quantum = 500;
  Mesh mesh(2, options);
  std::vector<std::string> order;
  mesh.group.ScheduleDriverTask(600, [&] { order.push_back("b"); });
  mesh.group.ScheduleDriverTask(100, [&] { order.push_back("a"); });
  mesh.group.ScheduleDriverTask(600, [&] { order.push_back("c"); });  // ties: seq order
  mesh.group.RunUntil(1500);
  ASSERT_EQ(order.size(), 3u);
  EXPECT_EQ(order[0], "a");
  EXPECT_EQ(order[1], "b");
  EXPECT_EQ(order[2], "c");
}

TEST(LoopGroup, SelfReschedulingDriverTaskTicksPeriodically) {
  LoopGroup::Options options;
  options.quantum = 500;
  Mesh mesh(2, options);
  std::vector<SimTime> ticks;
  // The control-loop pattern: each firing re-arms itself one period out.
  std::function<void()> tick = [&] {
    ticks.push_back(mesh.group.Now());
    if (ticks.size() < 4) {
      mesh.group.ScheduleDriverTask(mesh.group.Now() + 1000, tick);
    }
  };
  mesh.group.ScheduleDriverTask(1000, tick);
  mesh.group.RunUntil(5000);
  ASSERT_EQ(ticks.size(), 4u);
  EXPECT_EQ(ticks[0], 1000);
  EXPECT_EQ(ticks[1], 2000);
  EXPECT_EQ(ticks[2], 3000);
  EXPECT_EQ(ticks[3], 4000);
}

TEST(LoopGroup, AdaptiveQuantumLandsABarrierExactlyOnDriverTasks) {
  // With adaptive quanta and a quiescent mesh, rounds would stretch to max_quantum —
  // but a pending driver task clamps the horizon so a barrier lands exactly at (or,
  // for already-due times, at the first barrier after) the task's virtual time.
  LoopGroup::Options options;
  options.quantum = 500;
  options.adaptive_quantum = true;
  options.max_quantum = 100000;
  Mesh mesh(2, options);
  std::vector<SimTime> fired;
  mesh.group.ScheduleDriverTask(7300, [&] { fired.push_back(mesh.group.Now()); });
  mesh.group.RunUntil(50000);
  ASSERT_EQ(fired.size(), 1u);
  EXPECT_EQ(fired[0], 7300);
}

TEST(LoopGroup, DriverTaskScheduleIsIdenticalSequentialAndThreaded) {
  auto run = [](int threads) {
    LoopGroup::Options options;
    options.threads = threads;
    options.quantum = 500;
    Mesh mesh(4, options);
    for (int i = 0; i < 4; ++i) {
      mesh.StartChain(i, /*hops=*/12, "chain" + std::to_string(i));
    }
    std::ostringstream log;
    std::function<void()> tick = [&] {
      log << mesh.group.Now() << ";";
      if (mesh.group.Now() < 4000) {
        mesh.group.ScheduleDriverTask(mesh.group.Now() + 1000, tick);
      }
    };
    mesh.group.ScheduleDriverTask(1000, tick);
    mesh.group.RunUntil(6000);
    return log.str() + "|" + mesh.Fingerprint();
  };
  const std::string sequential = run(0);
  EXPECT_EQ(run(2), sequential);
  EXPECT_EQ(run(4), sequential);
}

TEST(LoopGroup, RunAllIgnoresPendingDriverTasksAsActivity) {
  // A self-rescheduling controller must not make RunAll spin forever: drain stops when
  // the *loops* go quiet, leaving the future driver task parked. (Callers stop the
  // source first — same contract as failure-detection probes.)
  LoopGroup::Options options;
  options.quantum = 500;
  Mesh mesh(2, options);
  mesh.StartChain(0, /*hops=*/4, "chain0");
  bool fired = false;
  mesh.group.ScheduleDriverTask(1000000000, [&] { fired = true; });
  mesh.group.RunAll();
  EXPECT_FALSE(fired);
  EXPECT_EQ(mesh.group.pending_driver_tasks(), 1u);
  EXPECT_EQ(mesh.group.pending_messages(), 0u);
}

}  // namespace
}  // namespace icg
