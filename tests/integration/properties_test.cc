// Parameterized property tests over the full stack: the system-level invariants the
// paper's guarantees rest on, swept across configurations and seeds.
#include <gtest/gtest.h>

#include "src/harness/deployment.h"
#include "src/apps/tickets.h"
#include "src/harness/executors.h"

namespace icg {
namespace {

// --- Property: views never regress in consistency level, finals are unique ------------

class ViewMonotonicity : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ViewMonotonicity, HoldsUnderJitterAndLoad) {
  SimWorld world(GetParam(), /*jitter_sigma=*/0.3);  // heavy jitter: reordering likely
  CassandraBindingConfig binding;
  binding.strong_read_quorum = 2;
  auto stack = MakeCassandraStack(world, KvConfig{}, binding);
  for (int i = 0; i < 50; ++i) {
    stack.cluster->Preload("k" + std::to_string(i), "v");
  }
  int violations = 0;
  int finals = 0;
  for (int i = 0; i < 200; ++i) {
    auto c = stack.client->Invoke(Operation::Get("k" + std::to_string(i % 50)));
    auto last_level = std::make_shared<std::optional<ConsistencyLevel>>();
    c.OnUpdate([last_level, &violations](const View<OpResult>& v) {
      if (last_level->has_value() && IsStronger(**last_level, v.level)) {
        violations++;
      }
      *last_level = v.level;
    });
    c.OnFinal([last_level, &violations, &finals](const View<OpResult>& v) {
      finals++;
      if (last_level->has_value() && IsStronger(**last_level, v.level)) {
        violations++;
      }
    });
    // Interleave writes to create churn.
    if (i % 3 == 0) {
      stack.client->InvokeStrong(
          Operation::Put("k" + std::to_string(i % 50), "v" + std::to_string(i)));
    }
  }
  world.loop().Run();
  EXPECT_EQ(violations, 0);
  EXPECT_EQ(finals, 200);  // exactly one final per invocation
}

INSTANTIATE_TEST_SUITE_P(Seeds, ViewMonotonicity, ::testing::Values(1u, 2u, 3u, 4u, 5u));

// --- Property: an ICG read's final view equals a plain strong read's view -------------

class FinalEquivalence : public ::testing::TestWithParam<int> {};

TEST_P(FinalEquivalence, IcgFinalMatchesStrongRead) {
  SimWorld world(11, 0.0);
  CassandraBindingConfig binding;
  binding.strong_read_quorum = GetParam();
  auto stack = MakeCassandraStack(world, KvConfig{}, binding);
  stack.cluster->Preload("k", "old");
  // Make the coordinator stale so weak and strong views genuinely differ.
  stack.cluster->ReplicaIn(Region::kIreland)->LocalPut("k", "new", Version{999, 1});
  stack.cluster->ReplicaIn(Region::kVirginia)->LocalPut("k", "new", Version{999, 1});

  auto icg = stack.client->Invoke(Operation::Get("k"));
  auto strong = stack.client->InvokeStrong(Operation::Get("k"));
  world.loop().Run();
  ASSERT_TRUE(icg.Final().ok());
  ASSERT_TRUE(strong.Final().ok());
  EXPECT_EQ(icg.Final().value(), strong.Final().value());
  EXPECT_EQ(icg.Final().value().value, "new");
}

INSTANTIATE_TEST_SUITE_P(Quorums, FinalEquivalence, ::testing::Values(2, 3));

// --- Property: the confirmation optimization is transparent to applications -----------

class ConfirmationTransparency : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ConfirmationTransparency, SameValuesWithAndWithoutConfirmations) {
  std::vector<std::string> finals[2];
  for (const bool confirmations : {false, true}) {
    SimWorld world(GetParam(), 0.0);
    CassandraBindingConfig binding;
    binding.strong_read_quorum = 2;
    binding.confirmations = confirmations;
    auto stack = MakeCassandraStack(world, KvConfig{}, binding);
    for (int i = 0; i < 20; ++i) {
      stack.cluster->Preload("k" + std::to_string(i), "v" + std::to_string(i));
    }
    // Make a few keys divergent.
    for (int i = 0; i < 20; i += 4) {
      stack.cluster->ReplicaIn(Region::kIreland)
          ->LocalPut("k" + std::to_string(i), "fresh" + std::to_string(i), Version{999, 1});
    }
    for (int i = 0; i < 20; ++i) {
      stack.client->Invoke(Operation::Get("k" + std::to_string(i)))
          .OnFinal([&, confirmations](const View<OpResult>& v) {
            finals[confirmations ? 1 : 0].push_back(v.value.value);
          });
    }
    world.loop().Run();
  }
  EXPECT_EQ(finals[0], finals[1]);  // byte-identical application-observable results
}

INSTANTIATE_TEST_SUITE_P(Seeds, ConfirmationTransparency, ::testing::Values(21u, 22u, 23u));

// --- Property: queues never oversell across retailer/threshold sweeps ------------------

struct TicketSweep {
  int retailers;
  int64_t threshold;
};

class NoOverselling : public ::testing::TestWithParam<TicketSweep> {};

TEST_P(NoOverselling, SoldExactlyStock) {
  SimWorld world(31, 0.08);
  auto stack = MakeZooKeeperStack(world, Region::kFrankfurt, Region::kFrankfurt,
                                  Region::kIreland);
  constexpr int64_t kStock = 30;
  stack.cluster->PreloadQueue("e", kStock, "t");

  TicketConfig config;
  config.event = "e";
  config.stock = kStock;
  config.threshold = GetParam().threshold;

  std::vector<ZooKeeperClientEndpoint> endpoints;
  std::vector<std::unique_ptr<TicketSeller>> sellers;
  std::set<int64_t> sold;
  int64_t duplicate_sales = 0;
  std::vector<std::shared_ptr<std::function<void()>>> loops;
  for (int i = 0; i < GetParam().retailers; ++i) {
    endpoints.push_back(
        AddZooKeeperClient(world, stack, Region::kFrankfurt, Region::kFrankfurt));
    sellers.push_back(std::make_unique<TicketSeller>(endpoints.back().client.get(), config));
    auto next = std::make_shared<std::function<void()>>();
    TicketSeller* s = sellers.back().get();
    // `loops` owns each seller's loop; a closure holding its own shared_ptr would leak.
    *next = [s, next = next.get(), &sold, &duplicate_sales]() {
      s->PurchaseTicket([next, &sold, &duplicate_sales](PurchaseOutcome o) {
        if (o.purchased) {
          if (!sold.insert(o.ticket_seq).second) {
            duplicate_sales++;
          }
          (*next)();
        }
      });
    };
    loops.push_back(next);
    (*next)();
  }
  world.loop().Run();
  EXPECT_EQ(duplicate_sales, 0);
  EXPECT_EQ(sold.size(), static_cast<size_t>(kStock));
}

INSTANTIATE_TEST_SUITE_P(Sweep, NoOverselling,
                         ::testing::Values(TicketSweep{1, 5}, TicketSweep{2, 5},
                                           TicketSweep{4, 5}, TicketSweep{4, 20},
                                           TicketSweep{8, 10}, TicketSweep{8, 31}));

// --- Property: divergence grows with write ratio ---------------------------------------

TEST(DivergenceOrdering, MoreWritesMoreDivergence) {
  double divergence[2] = {0, 0};
  int idx = 0;
  for (const double write_ratio : {0.05, 0.5}) {
    SimWorld world(77, 0.05);
    CassandraBindingConfig binding;
    binding.strong_read_quorum = 2;
    auto stack = MakeCassandraStack(world, KvConfig{}, binding);
    auto frk = AddCassandraClient(world, stack, binding, Region::kFrankfurt,
                                  Region::kVirginia);
    auto vrg = AddCassandraClient(world, stack, binding, Region::kVirginia,
                                  Region::kIreland);
    WorkloadConfig config;
    config.record_count = 500;
    config.read_proportion = 1.0 - write_ratio;
    config.update_proportion = write_ratio;
    config.request_distribution = RequestDistribution::kLatest;
    PreloadYcsbDataset(stack.cluster.get(), config);

    RunnerConfig runner_config;
    runner_config.threads = 30;
    runner_config.duration = Seconds(30);
    runner_config.warmup = Seconds(5);
    runner_config.cooldown = Seconds(5);
    CoreWorkload w1(config, 1);
    CoreWorkload w2(config, 2);
    CoreWorkload w3(config, 3);
    LoadRunner r1(&world.loop(), &w1, MakeKvExecutor(stack.client.get(), KvMode::kIcg),
                  runner_config);
    LoadRunner r2(&world.loop(), &w2, MakeKvExecutor(frk.client.get(), KvMode::kIcg),
                  runner_config);
    LoadRunner r3(&world.loop(), &w3, MakeKvExecutor(vrg.client.get(), KvMode::kIcg),
                  runner_config);
    r1.Begin();
    r2.Begin();
    r3.Begin();
    world.loop().RunUntil(world.loop().Now() + runner_config.duration + Seconds(5));
    divergence[idx++] = r1.Collect().DivergencePercent();
  }
  EXPECT_LT(divergence[0], divergence[1]);  // 5% writes diverge less than 50% writes
}

}  // namespace
}  // namespace icg
