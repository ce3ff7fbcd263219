// Runtime batch reconfiguration: SetConfig must re-arm every pending cohort against
// the new window without dropping or double-flushing a single waiter. This is the
// safety contract the orchestrator's widen/shrink actuator leans on — it reconfigures
// live pipelines with cohorts mid-window, so every edge (shrink past the deadline,
// shrink-to-0, widen) has to flush exactly once.
#include "src/correctables/batch_scheduler.h"

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/correctables/consistency.h"
#include "src/correctables/operation.h"
#include "src/sim/event_loop.h"

namespace icg {
namespace {

LevelVec StrongOnly() {
  LevelVec levels;
  levels.push_back(ConsistencyLevel::kStrong);
  return levels;
}

// Records every flushed cohort with its flush time so tests can assert both delivery
// (each admitted op appears exactly once) and timing (deadlines re-derive from the
// cohort's original open time, not from the reconfiguration instant).
struct Recorder {
  struct Flushed {
    SimTime at;
    BatchScheduler::Cohort cohort;
  };

  explicit Recorder(EventLoop* loop) : loop(loop) {}

  BatchScheduler::FlushFn Fn() {
    return [this](BatchScheduler::Cohort cohort) {
      flushed.push_back(Flushed{loop->Now(), std::move(cohort)});
    };
  }

  size_t TotalOps() const {
    size_t total = 0;
    for (const Flushed& f : flushed) total += f.cohort.ops.size();
    return total;
  }

  EventLoop* loop;
  std::vector<Flushed> flushed;
};

void AdmitGets(BatchScheduler& scheduler, int count, const std::string& prefix) {
  for (int i = 0; i < count; ++i) {
    scheduler.Admit(/*is_read=*/true, "scope", StrongOnly(),
                    Operation::Get(prefix + std::to_string(i)),
                    std::make_shared<int>(i));
  }
}

TEST(BatchReconfig, ShrinkMidCohortReArmsFromTheOriginalOpenTime) {
  EventLoop loop;
  Recorder recorder(&loop);
  BatchScheduler scheduler(&loop, recorder.Fn());
  scheduler.SetConfig(BatchConfig{/*batch_window=*/Millis(20)});

  loop.Schedule(0, [&] { AdmitGets(scheduler, 3, "k"); });
  // At t=2ms, shrink 20ms -> 5ms: the cohort opened at t=0, so its new deadline is
  // t=5ms — NOT 2ms+5ms=7ms, and certainly not the original 20ms.
  loop.Schedule(Millis(2), [&] {
    scheduler.SetConfig(BatchConfig{Millis(5)});
  });
  loop.RunUntil(Millis(30));

  ASSERT_EQ(recorder.flushed.size(), 1u);
  EXPECT_EQ(recorder.flushed[0].at, Millis(5));
  EXPECT_EQ(recorder.flushed[0].cohort.ops.size(), 3u);
  EXPECT_EQ(scheduler.pending_cohorts(), 0u);
}

TEST(BatchReconfig, ShrinkToZeroFlushesPendingCohortsSynchronously) {
  EventLoop loop;
  Recorder recorder(&loop);
  BatchScheduler scheduler(&loop, recorder.Fn());
  scheduler.SetConfig(BatchConfig{Millis(20)});

  loop.Schedule(0, [&] {
    AdmitGets(scheduler, 4, "r");
    scheduler.Admit(/*is_read=*/false, "scope", StrongOnly(), Operation::Put("w0", "v"),
                    std::make_shared<int>(0));
  });
  loop.Schedule(Millis(3), [&] {
    // Window collapses to 0 with two cohorts (reads + writes) mid-window: both must
    // flush inside this SetConfig call, not at some later timer.
    scheduler.SetConfig(BatchConfig{0});
    EXPECT_EQ(scheduler.pending_cohorts(), 0u);
    EXPECT_EQ(recorder.TotalOps(), 5u);
  });
  loop.RunUntil(Millis(30));

  ASSERT_EQ(recorder.flushed.size(), 2u);
  EXPECT_EQ(recorder.flushed[0].at, Millis(3));
  EXPECT_EQ(recorder.flushed[1].at, Millis(3));
  EXPECT_EQ(recorder.TotalOps(), 5u);  // nothing dropped, nothing flushed twice
}

TEST(BatchReconfig, ShrinkPastTheDeadlineFlushesImmediately) {
  EventLoop loop;
  Recorder recorder(&loop);
  BatchScheduler scheduler(&loop, recorder.Fn());
  scheduler.SetConfig(BatchConfig{Millis(20)});

  loop.Schedule(0, [&] { AdmitGets(scheduler, 2, "k"); });
  // At t=8ms, shrink to 5ms: the re-derived deadline (opened + 5ms = 5ms) is already
  // in the past, so the cohort flushes synchronously rather than waiting or dying.
  loop.Schedule(Millis(8), [&] { scheduler.SetConfig(BatchConfig{Millis(5)}); });
  loop.RunUntil(Millis(30));

  ASSERT_EQ(recorder.flushed.size(), 1u);
  EXPECT_EQ(recorder.flushed[0].at, Millis(8));
  EXPECT_EQ(recorder.flushed[0].cohort.ops.size(), 2u);
}

TEST(BatchReconfig, WidenMidCohortExtendsTheDeadline) {
  EventLoop loop;
  Recorder recorder(&loop);
  BatchScheduler scheduler(&loop, recorder.Fn());
  scheduler.SetConfig(BatchConfig{Millis(1)});

  loop.Schedule(0, [&] {
    AdmitGets(scheduler, 2, "k");
    // Widen 1ms -> 20ms in the same tick the cohort opened: the old 1ms timer must be
    // cancelled (no early flush) and the cohort holds until opened + 20ms.
    scheduler.SetConfig(BatchConfig{Millis(20)});
  });
  loop.Schedule(Millis(10), [&] { AdmitGets(scheduler, 1, "late"); });
  loop.RunUntil(Millis(40));

  ASSERT_EQ(recorder.flushed.size(), 1u);
  EXPECT_EQ(recorder.flushed[0].at, Millis(20));
  EXPECT_EQ(recorder.flushed[0].cohort.ops.size(), 3u);  // the late admission rode along
}

TEST(BatchReconfig, FullCohortFlushesAtTheCap) {
  EventLoop loop;
  Recorder recorder(&loop);
  BatchScheduler scheduler(&loop, recorder.Fn());
  scheduler.SetConfig(BatchConfig{Millis(5)});

  // The admission that fills a cohort flushes it synchronously; the next one opens a
  // fresh cohort that waits out its own window.
  loop.Schedule(0, [&] {
    AdmitGets(scheduler, static_cast<int>(BatchScheduler::kMaxBatchOps) + 1, "k");
  });
  loop.RunUntil(Millis(30));

  ASSERT_EQ(recorder.flushed.size(), 2u);
  EXPECT_EQ(recorder.flushed[0].at, 0);
  EXPECT_EQ(recorder.flushed[0].cohort.ops.size(), BatchScheduler::kMaxBatchOps);
  EXPECT_EQ(recorder.flushed[1].at, Millis(5));
  EXPECT_EQ(recorder.flushed[1].cohort.ops.size(), 1u);
}

TEST(BatchReconfig, RepeatedReconfigurationNeverDropsOrDuplicatesWaiters) {
  EventLoop loop;
  Recorder recorder(&loop);
  BatchScheduler scheduler(&loop, recorder.Fn());
  scheduler.SetConfig(BatchConfig{Millis(10)});

  // A churn storm: admissions interleaved with widens and shrinks every millisecond.
  // Whatever the timers did, exactly the 12 admitted ops come out exactly once.
  const std::vector<SimDuration> windows = {Millis(10), Millis(3),  Millis(25),
                                            Millis(1),  Millis(15), 0};
  for (int t = 0; t < 6; ++t) {
    loop.Schedule(Millis(t), [&scheduler, t] {
      AdmitGets(scheduler, 2, "t" + std::to_string(t) + "-");
    });
    loop.Schedule(Millis(t) + 500, [&scheduler, &windows, t] {
      scheduler.SetConfig(BatchConfig{windows[static_cast<size_t>(t)]});
    });
  }
  loop.RunUntil(Millis(100));

  EXPECT_EQ(recorder.TotalOps(), 12u);
  EXPECT_EQ(scheduler.pending_cohorts(), 0u);
  EXPECT_EQ(scheduler.pending_ops(), 0u);
}

TEST(BatchReconfig, SetConfigWithNoPendingCohortsOnlyChangesFutureAdmissions) {
  EventLoop loop;
  Recorder recorder(&loop);
  BatchScheduler scheduler(&loop, recorder.Fn());
  scheduler.SetConfig(BatchConfig{Millis(5)});
  EXPECT_TRUE(scheduler.enabled());
  scheduler.SetConfig(BatchConfig{0});
  EXPECT_FALSE(scheduler.enabled());
  EXPECT_EQ(recorder.flushed.size(), 0u);
}

}  // namespace
}  // namespace icg
