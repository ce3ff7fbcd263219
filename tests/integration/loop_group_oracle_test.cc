// Randomized consistency oracle over parallel worlds: W independent sharded-Cassandra
// SimWorlds pinned to one LoopGroup, driven at thread widths 0 (deterministic
// sequential), 2, and 4. Each world carries the same 3-client random read/write load the
// batch oracle uses, plus cross-world relay reads posted through the group's channel so
// the striped MPSC path sees real mid-round traffic. Every width must (a) leave every
// invocation oracle-clean — weakest-first monotone delivery, exactly one terminal,
// per-key program order into replica state — and (b) produce a bit-for-bit identical
// outcome fingerprint, validating the threaded modes against the sequential one. Each
// world has its own IcgContractChecker, driven only from that world's loop.
//
// The RNG seed comes from ICG_ORACLE_SEED (default 12345); CI sweeps several seeds.
#include <gtest/gtest.h>

#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "src/harness/deployment.h"
#include "src/harness/executors.h"
#include "src/sim/loop_group.h"
#include "tests/integration/oracle_support.h"

namespace icg {
namespace {

constexpr int kWorlds = 3;
constexpr int kKeys = 39;
constexpr int kOps = 220;
constexpr int kRelays = 40;

// Worlds are independent: distinct seeds, distinct key spaces (shared key names,
// separate clusters), one LoopGroup slot and one checker each.
using Worlds = std::vector<std::unique_ptr<ShardedTrial>>;

// Cross-world relays: world `from` schedules a local event that Posts through the
// group's channel to world `to`, where the task issues an ICG read on `to`'s own
// client. The read runs entirely inside `to` (loop affinity holds); only the *trigger*
// crosses loops, exercising the sender-stamped mid-round Post path.
void ScheduleRelays(LoopGroup& group, Worlds& worlds, Rng& rng) {
  for (int i = 0; i < kRelays; ++i) {
    const int from = static_cast<int>(rng.NextBounded(kWorlds));
    const int to = static_cast<int>(rng.NextBounded(kWorlds));
    const SimDuration at = static_cast<SimDuration>(rng.NextBounded(Seconds(2)));
    const std::string key = "okey" + std::to_string(rng.NextBounded(kKeys));

    ShardedTrial* target = worlds[static_cast<size_t>(to)].get();
    const size_t id = target->checker.Add(*target->clients[0], OpKind::kIcgRead, key);
    worlds[static_cast<size_t>(from)]->world.loop().Schedule(at, [&group, to, target, id]() {
      group.Post(to, /*when=*/0,
                 [target, id]() { target->checker.Start(id, *target->clients[0]); });
    });
  }
}

// Runs the full multi-world trial at one thread width and returns the concatenated
// world fingerprints. Also folds every world's client stats into a ClientStatsGroup
// (slot = LoopGroup index) and sanity-checks the merged view.
std::string RunTrial(int threads, uint64_t seed) {
  SCOPED_TRACE("threads=" + std::to_string(threads) + " seed=" + std::to_string(seed));
  LoopGroup group({.threads = threads, .quantum = Millis(5)});
  ClientStatsGroup stats(kWorlds);

  Worlds worlds;
  for (int w = 0; w < kWorlds; ++w) {
    worlds.push_back(std::make_unique<ShardedTrial>(
        seed + static_cast<uint64_t>(w) * 977, /*coordinators=*/3, kRegions3,
        BatchConfig{.batch_window = Millis(2)}));
    worlds.back()->Preload("okey", kKeys);
    const int slot = PinWorld(group, worlds.back()->world);
    EXPECT_EQ(slot, w);
  }

  Rng rng(seed * 41);
  for (auto& world : worlds) {
    ScheduleRandomLoad(*world, rng, {0, Seconds(2), kOps, kKeys, "okey"});
  }
  ScheduleRelays(group, worlds, rng);

  group.RunAll();
  EXPECT_EQ(group.pending_messages(), 0u);

  std::ostringstream fingerprint;
  for (int w = 0; w < kWorlds; ++w) {
    ShardedTrial& world = *worlds[static_cast<size_t>(w)];
    const std::string context = "world" + std::to_string(w);
    ExpectKvContract(world, context);
    for (const CorrectableClient* client : world.clients) {
      stats.Absorb(static_cast<size_t>(w), client->stats());
    }
    fingerprint << "==" << context << "==" << world.checker.Fingerprint();
  }

  // Merged stats must cover every invocation the trial issued (kOps per world plus the
  // relay reads), with views actually delivered.
  const ClientStats merged = stats.Merged();
  EXPECT_EQ(merged.invocations, kWorlds * kOps + kRelays);
  EXPECT_GE(merged.views_delivered, merged.invocations);
  EXPECT_EQ(merged.errors, 0);
  int64_t per_slot_sum = 0;
  for (size_t w = 0; w < stats.size(); ++w) {
    per_slot_sum += stats.ForLoop(w).invocations;
  }
  EXPECT_EQ(per_slot_sum, merged.invocations);

  return fingerprint.str();
}

TEST(LoopGroupOracle, WidthsAgreeBitForBit) {
  const uint64_t seed = SeedFromEnv();
  ExpectWidthsAgree([seed](int threads) { return RunTrial(threads, seed); });
}

}  // namespace
}  // namespace icg
