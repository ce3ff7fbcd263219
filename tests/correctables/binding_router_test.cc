// BindingRouter semantics against synthetic shard bindings: per-key delegation,
// coalescing scope, shard-local batches (cross-shard ones rejected, error fan-in), live
// ring installation and per-shard backpressure.
#include "src/correctables/binding_router.h"

#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/correctables/client.h"

namespace icg {
namespace {

// A synchronous shard binding: gets answer "<name>/<key>", multigets answer one
// "<name>/<key>" entry per key, puts acknowledge.
class FakeShardBinding : public Binding {
 public:
  explicit FakeShardBinding(std::string name) : name_(std::move(name)) {}

  std::string Name() const override { return name_; }
  std::vector<ConsistencyLevel> SupportedLevels() const override {
    return {ConsistencyLevel::kWeak, ConsistencyLevel::kStrong};
  }
  bool SupportsBatchedReads() const override { return supports_batched; }
  bool SupportsBatchedWrites() const override { return supports_batched; }

  bool supports_batched = true;
  bool omit_entries = false;  // multigets answer without their per-key entries
  int plans = 0;
  Status fail_final = Status::Ok();  // non-OK: the strong view reports this error
  std::vector<Operation> planned_ops;  // every operation this shard was asked to serve

  InvocationPlan PlanInvocation(const Operation& op, const LevelSet& levels) override {
    plans++;
    planned_ops.push_back(op);
    InvocationPlan plan;
    if (op.type == OpType::kMultiPut) {
      // Batched write: acknowledge the whole batch once at the strongest level.
      plan.AddStep(levels.strongest(), [this, level = levels.strongest()](
                                           const Operation& puts, LevelEmitter emit) {
        std::vector<OpResult> acked(puts.keys.size());
        for (OpResult& entry : acked) {
          entry.found = true;
        }
        emit(level, fail_final.ok() ? StatusOr<OpResult>(BatchResult(std::move(acked)))
                                    : StatusOr<OpResult>(fail_final));
      });
      return plan;
    }
    plan.AddSpan(levels.levels(), [this, levels](const Operation& o, LevelEmitter emit) {
      const bool multi_level = !levels.single();
      OpResult result;
      if (o.type == OpType::kMultiGet) {
        std::vector<OpResult> entries(o.keys.size());
        for (size_t i = 0; i < o.keys.size(); ++i) {
          entries[i].found = true;
          entries[i].value = name_ + "/" + o.keys[i];
        }
        result = BatchResult(std::move(entries));
        if (omit_entries) {
          result.entries.clear();
        }
      } else {
        result.found = true;
        result.value = name_ + "/" + o.key;
      }
      if (multi_level) {
        emit(levels.weakest(), result);
      }
      if (!fail_final.ok()) {
        emit(levels.strongest(), fail_final);
      } else {
        emit(levels.strongest(), result);
      }
    });
    return plan;
  }

 private:
  std::string name_;
};

// Routes by the numeric suffix of the key ("k7" -> shard 7 % n).
ShardFn SuffixShardFn(size_t n) {
  return [n](const std::string& key) -> size_t {
    return static_cast<size_t>(key.back() - '0') % n;
  };
}

// The entry values of a batched result, in request order.
std::vector<std::string> EntryValues(const OpResult& result) {
  std::vector<std::string> values;
  for (const OpResult& entry : result.entries) {
    values.push_back(entry.value);
  }
  return values;
}

struct RouterFixture {
  std::shared_ptr<FakeShardBinding> s0 = std::make_shared<FakeShardBinding>("s0");
  std::shared_ptr<FakeShardBinding> s1 = std::make_shared<FakeShardBinding>("s1");
  std::shared_ptr<BindingRouter> router =
      std::make_shared<BindingRouter>(std::vector<std::shared_ptr<Binding>>{s0, s1},
                                      SuffixShardFn(2));
  CorrectableClient client{router};
};

TEST(BindingRouter, AdvertisesChildLevelsAndName) {
  RouterFixture f;
  EXPECT_EQ(f.router->SupportedLevels(), f.s0->SupportedLevels());
  EXPECT_EQ(f.router->Name(), "router(s0 x2)");
  EXPECT_EQ(f.router->num_shards(), 2u);
}

TEST(BindingRouter, RoutesSingleKeyOpsToOwningShard) {
  RouterFixture f;
  auto a = f.client.InvokeStrong(Operation::Get("k0"));
  auto b = f.client.InvokeStrong(Operation::Get("k1"));
  auto c = f.client.InvokeStrong(Operation::Get("k2"));
  EXPECT_EQ(a.Final().value().value, "s0/k0");
  EXPECT_EQ(b.Final().value().value, "s1/k1");
  EXPECT_EQ(c.Final().value().value, "s0/k2");
  EXPECT_EQ(f.s0->plans, 2);
  EXPECT_EQ(f.s1->plans, 1);
}

TEST(BindingRouter, CoalescingScopeNamesEpochAndShard) {
  RouterFixture f;
  EXPECT_EQ(f.router->CoalescingScope(Operation::Get("k0")), "0:0");
  EXPECT_EQ(f.router->CoalescingScope(Operation::Get("k3")), "0:1");
  // Same key, same scope — stable across calls.
  EXPECT_EQ(f.router->CoalescingScope(Operation::Get("k0")),
            f.router->CoalescingScope(Operation::Get("k0")));
  // A ring installation bumps the epoch component, so pre- and post-rebalance traffic
  // never shares a scope even when the shard index happens to coincide.
  ASSERT_TRUE(f.router
                  ->ApplyRing(3, {f.s0, f.s1}, SuffixShardFn(2))
                  .ok());
  EXPECT_EQ(f.router->CoalescingScope(Operation::Get("k0")), "3:0");
}

TEST(BindingRouter, SingleShardMultigetDelegatesWholesale) {
  RouterFixture f;
  auto c = f.client.InvokeStrong(Operation::MultiGet({"k0", "k2", "k4"}));
  EXPECT_EQ(EntryValues(c.Final().value()),
            (std::vector<std::string>{"s0/k0", "s0/k2", "s0/k4"}));
  EXPECT_EQ(f.s0->plans, 1);
  EXPECT_EQ(f.s1->plans, 0);  // never consulted
}

TEST(BindingRouter, ShardFinalErrorFailsTheMergedFinal) {
  RouterFixture f;
  f.s1->fail_final = Status::Unavailable("shard 1 down");
  auto c = f.client.Invoke(Operation::MultiGet({"k1", "k3"}));
  ASSERT_EQ(c.state(), CorrectableState::kError);
  EXPECT_EQ(c.error().code(), StatusCode::kUnavailable);
  // The preliminary still got through before the final failed.
  EXPECT_EQ(c.views_delivered(), 1);

  // A shard answering without one entry per key fails too.
  f.s1->fail_final = Status::Ok();
  f.s0->omit_entries = true;
  auto whole = f.client.InvokeStrong(Operation::MultiGet({"k0", "k2"}));
  EXPECT_EQ(whole.error().code(), StatusCode::kInternal);
}

TEST(BindingRouter, EmptyMultigetRejected) {
  RouterFixture f;
  auto c = f.client.InvokeStrong(Operation::MultiGet({}));
  EXPECT_EQ(c.state(), CorrectableState::kError);
  EXPECT_EQ(c.error().code(), StatusCode::kInvalidArgument);
}

TEST(BindingRouter, WritesRouteByKey) {
  RouterFixture f;
  auto c = f.client.InvokeStrong(Operation::Put("k1", "v"));
  EXPECT_EQ(c.state(), CorrectableState::kFinal);
  EXPECT_EQ(f.s0->plans, 0);
  EXPECT_EQ(f.s1->plans, 1);
}

// --- Cross-tick write batching through the router -------------------------------------

TEST(BindingRouter, BatchedWritesNeverCrossShardBoundaries) {
  EventLoop loop;
  auto s0 = std::make_shared<FakeShardBinding>("s0");
  auto s1 = std::make_shared<FakeShardBinding>("s1");
  auto router = std::make_shared<BindingRouter>(
      std::vector<std::shared_ptr<Binding>>{s0, s1}, SuffixShardFn(2));
  CorrectableClient client(router, &loop);
  BatchConfig batch;
  batch.batch_window = Millis(5);
  client.SetBatchConfig(batch);

  // Four writes inside one window, interleaving shards. The scheduler queues them per
  // scope, so each shard must receive exactly one multiput carrying only its own keys.
  auto a = client.InvokeStrong(Operation::Put("k0", "a"));
  auto b = client.InvokeStrong(Operation::Put("k1", "b"));
  auto c = client.InvokeStrong(Operation::Put("k2", "c"));
  auto d = client.InvokeStrong(Operation::Put("k3", "d"));
  EXPECT_EQ(s0->plans + s1->plans, 0);  // nothing reaches a shard before the flush
  loop.Run();

  for (const auto& result : {a, b, c, d}) {
    EXPECT_EQ(result.state(), CorrectableState::kFinal);
  }
  ASSERT_EQ(s0->planned_ops.size(), 1u);
  ASSERT_EQ(s1->planned_ops.size(), 1u);
  EXPECT_EQ(s0->planned_ops[0].type, OpType::kMultiPut);
  EXPECT_EQ(s0->planned_ops[0].keys, (std::vector<std::string>{"k0", "k2"}));
  EXPECT_EQ(s0->planned_ops[0].values, (std::vector<std::string>{"a", "c"}));
  EXPECT_EQ(s1->planned_ops[0].type, OpType::kMultiPut);
  EXPECT_EQ(s1->planned_ops[0].keys, (std::vector<std::string>{"k1", "k3"}));
  EXPECT_EQ(client.stats().batched_writes, 4);
  EXPECT_EQ(client.stats().cross_tick_batches, 2);
}

TEST(BindingRouter, RebalanceMidWindowReRoutesThePendingBatch) {
  EventLoop loop;
  auto s0 = std::make_shared<FakeShardBinding>("s0");
  auto s1 = std::make_shared<FakeShardBinding>("s1");
  // A mutable ring: keys map through `owner`, which the test rewires mid-window.
  auto owner = std::make_shared<std::map<std::string, size_t>>();
  auto router = std::make_shared<BindingRouter>(
      std::vector<std::shared_ptr<Binding>>{s0, s1},
      [owner](const std::string& key) -> size_t {
        auto it = owner->find(key);
        return it != owner->end() ? it->second : 0;
      });
  CorrectableClient client(router, &loop);
  BatchConfig batch;
  batch.batch_window = Millis(5);
  client.SetBatchConfig(batch);

  (*owner)["ka"] = 0;
  (*owner)["kb"] = 0;
  auto a = client.InvokeStrong(Operation::Put("ka", "1"));
  auto b = client.InvokeStrong(Operation::Put("kb", "2"));
  // Rebalance while the batch window is still open: kb moves to shard 1. The flush must
  // consult the *current* ring and split the cohort instead of sending kb to shard 0.
  (*owner)["kb"] = 1;
  loop.Run();

  EXPECT_EQ(a.state(), CorrectableState::kFinal);
  EXPECT_EQ(b.state(), CorrectableState::kFinal);
  ASSERT_EQ(s0->planned_ops.size(), 1u);
  ASSERT_EQ(s1->planned_ops.size(), 1u);
  EXPECT_EQ(s0->planned_ops[0].type, OpType::kPut);  // a lone write launches unbatched
  EXPECT_EQ(s0->planned_ops[0].key, "ka");
  EXPECT_EQ(s1->planned_ops[0].type, OpType::kPut);
  EXPECT_EQ(s1->planned_ops[0].key, "kb");
}

TEST(BindingRouter, CrossShardBatchesRejectedWhenBypassingTheScheduler) {
  RouterFixture f;
  auto puts = f.client.InvokeStrong(Operation::MultiPut({"k0", "k1"}, {"a", "b"}));
  auto gets = f.client.Invoke(Operation::MultiGet({"k1", "k0"}));
  for (const auto& c : {puts, gets}) {
    ASSERT_EQ(c.state(), CorrectableState::kError);
    EXPECT_EQ(c.error().code(), StatusCode::kInvalidArgument);
  }
  EXPECT_EQ(f.s0->plans, 0);
  EXPECT_EQ(f.s1->plans, 0);
}

TEST(BindingRouter, ShardLocalMultiPutDelegatesWholesale) {
  RouterFixture f;
  auto c = f.client.InvokeStrong(Operation::MultiPut({"k0", "k2"}, {"a", "b"}));
  ASSERT_EQ(c.state(), CorrectableState::kFinal);
  EXPECT_EQ(c.Final().value().seqno, 2);
  EXPECT_EQ(f.s0->plans, 1);
  EXPECT_EQ(f.s1->plans, 0);
}

TEST(BindingRouter, BatchingCapabilitiesPassThroughShards) {
  RouterFixture f;
  EXPECT_TRUE(f.router->SupportsBatchedReads());
  EXPECT_TRUE(f.router->SupportsBatchedWrites());
}

TEST(BindingRouter, OneNonBatchingShardDisablesBatchingForTheWholeRouter) {
  // Heterogeneous backends: if any shard cannot serve multiget/multiput, the router must
  // not advertise batching — the pipeline would queue batches that shard then rejects.
  RouterFixture f;
  f.s1->supports_batched = false;
  EXPECT_FALSE(f.router->SupportsBatchedReads());
  EXPECT_FALSE(f.router->SupportsBatchedWrites());

  // And with batching advertised off, windowed reads and writes fall back to the
  // same-tick path: each is planned at submission as its own single-key operation.
  EventLoop loop;
  CorrectableClient client(f.router, &loop);
  BatchConfig batch;
  batch.batch_window = Millis(5);
  client.SetBatchConfig(batch);
  auto r1 = client.InvokeStrong(Operation::Get("k0"));
  auto r2 = client.InvokeStrong(Operation::Get("k2"));
  ASSERT_EQ(f.s0->planned_ops.size(), 2u);
  EXPECT_EQ(f.s0->planned_ops[0].type, OpType::kGet);
  EXPECT_EQ(f.s0->planned_ops[1].type, OpType::kGet);
  EXPECT_EQ(r1.state(), CorrectableState::kFinal);  // before the loop ever ran
  EXPECT_EQ(r2.state(), CorrectableState::kFinal);
  auto a = client.InvokeStrong(Operation::Put("k0", "a"));
  auto b = client.InvokeStrong(Operation::Put("k2", "b"));
  loop.Run();
  EXPECT_EQ(a.state(), CorrectableState::kFinal);
  EXPECT_EQ(b.state(), CorrectableState::kFinal);
  ASSERT_EQ(f.s0->planned_ops.size(), 4u);
  EXPECT_EQ(f.s0->planned_ops[2].type, OpType::kPut);
  EXPECT_EQ(f.s0->planned_ops[3].type, OpType::kPut);
  EXPECT_EQ(client.stats().batched_writes, 0);
  EXPECT_EQ(client.stats().cross_tick_batches, 0);
}

// --- Live ring installation (ApplyRing) -----------------------------------------------

TEST(BindingRouter, ApplyRingRejectsStaleEpochs) {
  RouterFixture f;
  auto s2 = std::make_shared<FakeShardBinding>("s2");
  // Same epoch (0) and an older one: both stale, both rejected, ring untouched.
  EXPECT_EQ(f.router->ApplyRing(0, {f.s0, f.s1, s2}, SuffixShardFn(3)).code(),
            StatusCode::kConflict);
  EXPECT_EQ(f.router->num_shards(), 2u);
  EXPECT_EQ(f.router->ring_epoch(), 0u);

  ASSERT_TRUE(f.router->ApplyRing(2, {f.s0, f.s1, s2}, SuffixShardFn(3)).ok());
  EXPECT_EQ(f.router->ring_epoch(), 2u);
  EXPECT_EQ(f.router->ApplyRing(2, {f.s0, f.s1}, SuffixShardFn(2)).code(),
            StatusCode::kConflict);
  EXPECT_EQ(f.router->num_shards(), 3u);  // the stale shrink did not land
}

TEST(BindingRouter, ApplyRingAddsShardAndReroutes) {
  RouterFixture f;
  auto s2 = std::make_shared<FakeShardBinding>("s2");
  // Under the 2-shard ring, k2 belongs to s0.
  EXPECT_EQ(f.client.InvokeStrong(Operation::Get("k2")).Final().value().value, "s0/k2");
  ASSERT_TRUE(f.router->ApplyRing(1, {f.s0, f.s1, s2}, SuffixShardFn(3)).ok());
  EXPECT_EQ(f.router->num_shards(), 3u);
  // The same key now routes to the newcomer; survivors keep their other keys.
  EXPECT_EQ(f.client.InvokeStrong(Operation::Get("k2")).Final().value().value, "s2/k2");
  EXPECT_EQ(f.client.InvokeStrong(Operation::Get("k0")).Final().value().value, "s0/k0");
  EXPECT_EQ(f.client.InvokeStrong(Operation::Get("k1")).Final().value().value, "s1/k1");
}

TEST(BindingRouter, ApplyRingRemovalRoutesDepartedKeysToSurvivors) {
  RouterFixture f;
  auto c_before = f.client.InvokeStrong(Operation::Get("k1"));
  EXPECT_EQ(c_before.Final().value().value, "s1/k1");
  ASSERT_TRUE(f.router->ApplyRing(1, {f.s0}, [](const std::string&) -> size_t { return 0; })
                  .ok());
  EXPECT_EQ(f.client.InvokeStrong(Operation::Get("k1")).Final().value().value, "s0/k1");
}

// --- Per-shard backpressure -----------------------------------------------------------

// Holds every planned fetch open until released, so tests can park invocations
// in-flight on a shard and observe the router's outstanding accounting.
class HoldingBinding : public Binding {
 public:
  explicit HoldingBinding(std::string name) : name_(std::move(name)) {}

  std::string Name() const override { return name_; }
  std::vector<ConsistencyLevel> SupportedLevels() const override {
    return {ConsistencyLevel::kWeak, ConsistencyLevel::kStrong};
  }
  InvocationPlan PlanInvocation(const Operation& /*op*/, const LevelSet& levels) override {
    InvocationPlan plan;
    plan.AddSpan(levels.levels(), [this](const Operation& o, LevelEmitter emit) {
      held_.emplace_back(o, std::move(emit));
    });
    return plan;
  }
  size_t held() const { return held_.size(); }
  void ReleaseAll() {
    std::vector<std::pair<Operation, LevelEmitter>> draining;
    draining.swap(held_);
    for (auto& [op, emit] : draining) {
      OpResult result;
      result.found = true;
      result.value = name_ + "/" + op.key;
      emit(ConsistencyLevel::kStrong, result);
    }
  }

 private:
  std::string name_;
  std::vector<std::pair<Operation, LevelEmitter>> held_;
};

TEST(BindingRouter, HotShardShedsAloneWithRetryableStatus) {
  auto h0 = std::make_shared<HoldingBinding>("h0");
  auto h1 = std::make_shared<HoldingBinding>("h1");
  auto router = std::make_shared<BindingRouter>(
      std::vector<std::shared_ptr<Binding>>{h0, h1}, SuffixShardFn(2));
  router->SetShardQueueLimit(2);
  CorrectableClient client(router);

  // Fill shard 0's queue; both invocations park in flight.
  auto a = client.InvokeStrong(Operation::Get("k0"));
  auto b = client.InvokeStrong(Operation::Get("k2"));
  EXPECT_EQ(router->ShardOutstanding(0), 2u);

  // The next shard-0 invocation is shed with a retryable OVERLOADED error...
  auto shed = client.InvokeStrong(Operation::Get("k4"));
  ASSERT_EQ(shed.state(), CorrectableState::kError);
  EXPECT_EQ(shed.error().code(), StatusCode::kOverloaded);
  EXPECT_TRUE(IsRetryable(shed.error()));
  EXPECT_EQ(router->ShardSheds(0), 1);
  EXPECT_EQ(client.stats().overload_sheds, 1);

  // ...while shard 1 keeps admitting: the hot shard degrades alone.
  auto healthy = client.InvokeStrong(Operation::Get("k1"));
  EXPECT_EQ(healthy.state(), CorrectableState::kUpdating);
  EXPECT_EQ(h1->held(), 1u);
  EXPECT_EQ(router->ShardSheds(1), 0);

  // Draining the queue frees the slots; the retried invocation is admitted.
  h0->ReleaseAll();
  EXPECT_EQ(a.Final().value().value, "h0/k0");
  EXPECT_EQ(b.Final().value().value, "h0/k2");
  EXPECT_EQ(router->ShardOutstanding(0), 0u);
  auto retried = client.InvokeStrong(Operation::Get("k4"));
  EXPECT_EQ(retried.state(), CorrectableState::kUpdating);
  EXPECT_EQ(h0->held(), 1u);
  h0->ReleaseAll();
  h1->ReleaseAll();
  EXPECT_EQ(retried.Final().value().value, "h0/k4");
}

TEST(BindingRouter, OutstandingAccountingSurvivesRingChanges) {
  auto h0 = std::make_shared<HoldingBinding>("h0");
  auto h1 = std::make_shared<HoldingBinding>("h1");
  auto router = std::make_shared<BindingRouter>(
      std::vector<std::shared_ptr<Binding>>{h0, h1}, SuffixShardFn(2));
  CorrectableClient client(router);

  auto parked_on_h0 = client.InvokeStrong(Operation::Get("k0"));
  auto parked_on_h1 = client.InvokeStrong(Operation::Get("k1"));
  EXPECT_EQ(router->ShardOutstanding(0), 1u);
  EXPECT_EQ(router->ShardOutstanding(1), 1u);

  // Remove h1 from the ring while it still holds an invocation. The surviving shard's
  // slot accounting is untouched, and the departed shard's eventual completion drains
  // into its retired counter block instead of corrupting the new ring's slots.
  ASSERT_TRUE(router->ApplyRing(1, {h0}, [](const std::string&) -> size_t { return 0; })
                  .ok());
  EXPECT_EQ(router->num_shards(), 1u);
  EXPECT_EQ(router->ShardOutstanding(0), 1u);
  h1->ReleaseAll();  // drains the in-flight invocation against the departed shard
  EXPECT_EQ(parked_on_h1.Final().value().value, "h1/k1");
  EXPECT_EQ(router->ShardOutstanding(0), 1u);  // survivor still holds its own slot
  h0->ReleaseAll();
  EXPECT_EQ(parked_on_h0.Final().value().value, "h0/k0");
  EXPECT_EQ(router->ShardOutstanding(0), 0u);
}

TEST(BindingRouter, CrashedShardRetiresCountersWithoutUnderflow) {
  // The failover regression: a shard crashes with in-flight invocations pinning its
  // outstanding counter at the queue limit, the detector removes it from the ring, and
  // whatever terminals eventually arrive (or never do) must neither underflow the
  // counter nor leak phantom load into the successor ring.
  auto h0 = std::make_shared<HoldingBinding>("h0");
  auto h1 = std::make_shared<HoldingBinding>("h1");
  auto router = std::make_shared<BindingRouter>(
      std::vector<std::shared_ptr<Binding>>{h0, h1}, SuffixShardFn(2));
  router->SetShardQueueLimit(2);
  CorrectableClient client(router);

  // Fill the doomed shard to its limit; a crashed coordinator never answers, so these
  // slots would be pinned forever...
  auto a = client.InvokeStrong(Operation::Get("k0"));
  auto b = client.InvokeStrong(Operation::Get("k2"));
  EXPECT_EQ(router->ShardOutstanding(0), 2u);
  auto shed = client.InvokeStrong(Operation::Get("k4"));
  EXPECT_EQ(shed.state(), CorrectableState::kError);
  EXPECT_EQ(router->ShardSheds(0), 1);

  // ...until failover retires the block atomically with the ring swap: index 0 of the
  // new ring (the survivor) starts clean.
  ASSERT_TRUE(
      router->ApplyRing(1, {h1}, [](const std::string&) -> size_t { return 0; }).ok());
  EXPECT_EQ(router->num_shards(), 1u);
  EXPECT_EQ(router->ShardOutstanding(0), 0u);

  // Late terminals from the corpse land on the retired block and clamp at zero instead
  // of wrapping a size_t (the pre-retirement code asserted/underflowed here).
  h0->ReleaseAll();
  EXPECT_EQ(a.state(), CorrectableState::kFinal);
  EXPECT_EQ(b.state(), CorrectableState::kFinal);
  EXPECT_EQ(router->ShardOutstanding(0), 0u);

  // The survivor serves the whole keyspace with clean admission accounting.
  auto c = client.InvokeStrong(Operation::Get("k4"));
  EXPECT_EQ(c.state(), CorrectableState::kUpdating);
  EXPECT_EQ(router->ShardOutstanding(0), 1u);
  h1->ReleaseAll();
  EXPECT_EQ(c.Final().value().value, "h1/k4");
  EXPECT_EQ(router->ShardOutstanding(0), 0u);

  // Re-admission after recovery: the returning shard gets a fresh, unretired block and
  // counts from zero again.
  ASSERT_TRUE(router->ApplyRing(2, {h1, h0}, SuffixShardFn(2)).ok());
  EXPECT_EQ(router->ShardOutstanding(1), 0u);
  auto d = client.InvokeStrong(Operation::Get("k1"));  // suffix 1 -> index 1 = h0
  EXPECT_EQ(router->ShardOutstanding(1), 1u);
  h0->ReleaseAll();
  EXPECT_EQ(d.Final().value().value, "h0/k1");
  EXPECT_EQ(router->ShardOutstanding(1), 0u);
}

TEST(BindingRouter, ZeroLimitDisablesShedding) {
  auto h0 = std::make_shared<HoldingBinding>("h0");
  auto router = std::make_shared<BindingRouter>(
      std::vector<std::shared_ptr<Binding>>{h0}, [](const std::string&) -> size_t { return 0; });
  CorrectableClient client(router);
  std::vector<Correctable<OpResult>> handles;
  for (int i = 0; i < 64; ++i) {
    handles.push_back(client.InvokeStrong(Operation::Get("k" + std::to_string(i))));
  }
  EXPECT_EQ(router->ShardOutstanding(0), 64u);
  EXPECT_EQ(router->TotalSheds(), 0);
  h0->ReleaseAll();
  for (auto& handle : handles) {
    EXPECT_EQ(handle.state(), CorrectableState::kFinal);
  }
}

// --- RouterLoadSnapshot: one consistent, epoch-safe read of the load surface ----------

TEST(BindingRouter, LoadSnapshotReportsEpochAndPerShardRows) {
  auto h0 = std::make_shared<HoldingBinding>("h0");
  auto h1 = std::make_shared<HoldingBinding>("h1");
  auto router = std::make_shared<BindingRouter>(
      std::vector<std::shared_ptr<Binding>>{h0, h1}, SuffixShardFn(2));
  router->SetShardQueueLimit(1);
  CorrectableClient client(router);

  auto parked = client.InvokeStrong(Operation::Get("k0"));
  auto shed = client.InvokeStrong(Operation::Get("k2"));
  EXPECT_EQ(shed.state(), CorrectableState::kError);

  const RouterLoadSnapshot snapshot = router->LoadSnapshot();
  EXPECT_EQ(snapshot.epoch, 0u);
  ASSERT_EQ(snapshot.shards.size(), 2u);
  EXPECT_EQ(snapshot.shards[0].outstanding, 1u);
  EXPECT_EQ(snapshot.shards[0].sheds, 1);
  EXPECT_EQ(snapshot.shards[1].outstanding, 0u);
  EXPECT_EQ(snapshot.shards[1].sheds, 0);
  EXPECT_EQ(snapshot.retired_sheds, 0);
  EXPECT_EQ(snapshot.total_outstanding(), 1u);
  EXPECT_EQ(snapshot.total_sheds(), 1);
  h0->ReleaseAll();
  EXPECT_EQ(parked.state(), CorrectableState::kFinal);
}

TEST(BindingRouter, LoadSnapshotTotalShedsIsMonotoneAcrossRingChanges) {
  // The torn-read hazard the snapshot exists to close: per-index shed counters vanish
  // with their block when a shard departs the ring, so a controller differencing raw
  // reads across an ApplyRing would see sheds go BACKWARD and misread a membership
  // change as recovery. total_sheds() must never decrease, whatever the ring does.
  auto h0 = std::make_shared<HoldingBinding>("h0");
  auto h1 = std::make_shared<HoldingBinding>("h1");
  auto router = std::make_shared<BindingRouter>(
      std::vector<std::shared_ptr<Binding>>{h0, h1}, SuffixShardFn(2));
  router->SetShardQueueLimit(1);
  CorrectableClient client(router);

  // Shed twice on shard 0 and once on shard 1.
  auto parked0 = client.InvokeStrong(Operation::Get("k0"));
  client.InvokeStrong(Operation::Get("k2"));
  client.InvokeStrong(Operation::Get("k4"));
  auto parked1 = client.InvokeStrong(Operation::Get("k1"));
  client.InvokeStrong(Operation::Get("k3"));
  const int64_t before = router->LoadSnapshot().total_sheds();
  EXPECT_EQ(before, 3);

  // Shard 0 departs. Its per-index counter block is retired, but the snapshot folds
  // the retired sheds into the aggregate: nothing is lost, nothing double-counts.
  ASSERT_TRUE(
      router->ApplyRing(1, {h1}, [](const std::string&) -> size_t { return 0; }).ok());
  const RouterLoadSnapshot after = router->LoadSnapshot();
  EXPECT_EQ(after.epoch, 1u);
  ASSERT_EQ(after.shards.size(), 1u);
  EXPECT_EQ(after.shards[0].sheds, 1);     // the survivor keeps its own count
  EXPECT_EQ(after.retired_sheds, 2);       // the departed shard's sheds, preserved
  EXPECT_EQ(after.total_sheds(), before);  // monotone: no regression at the swap

  // New sheds on the survivor keep accumulating on top of the retired aggregate.
  client.InvokeStrong(Operation::Get("k9"));
  EXPECT_EQ(router->LoadSnapshot().total_sheds(), before + 1);
  h0->ReleaseAll();
  h1->ReleaseAll();
  EXPECT_EQ(parked0.state(), CorrectableState::kFinal);
  EXPECT_EQ(parked1.state(), CorrectableState::kFinal);
}

}  // namespace
}  // namespace icg
