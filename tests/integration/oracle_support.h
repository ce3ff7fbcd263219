// Gtest-side scaffolding of the consistency oracles (batch, loop-group, intra-world and
// orchestrator): the environment knobs, the LoopGroup width sweep, the seeded random
// load most trials share, and the bridge from IcgContractChecker violations to test
// failures. The contract itself lives in src/harness/icg_contract.h, and the
// deployment the trials drive (ShardedTrial) in src/harness/scenario.h.
//
// Environment:
//   ICG_ORACLE_SEED    the trials' seed, default 12345 (CI also sweeps 1, 7, 20260731)
//   ICG_ORACLE_WIDTH8  =1 adds LoopGroup width 8 to every width sweep (the TSan job)
//   ICG_WAL_FAULTS     =1 runs the crash oracle with slow fsyncs and torn WAL tails
#ifndef ICG_TESTS_INTEGRATION_ORACLE_SUPPORT_H_
#define ICG_TESTS_INTEGRATION_ORACLE_SUPPORT_H_

#include <gtest/gtest.h>

#include <charconv>
#include <cstdint>
#include <cstdlib>
#include <functional>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "src/common/random.h"
#include "src/harness/icg_contract.h"
#include "src/harness/scenario.h"

namespace icg {

// A seed is plain decimal digits that fit in 64 bits: no sign, no spaces, no suffix.
inline std::optional<uint64_t> ParseSeed(std::string_view text) {
  uint64_t seed = 0;
  const char* end = text.data() + text.size();
  const auto [parsed_to, error] = std::from_chars(text.data(), end, seed);
  return error == std::errc() && parsed_to == end ? std::optional(seed) : std::nullopt;
}

// ICG_ORACLE_SEED, or 12345 when it is unset or empty. A malformed value fails the
// calling test with a message naming the variable, and the trial runs the default.
inline uint64_t SeedFromEnv() {
  constexpr uint64_t kDefaultSeed = 12345;
  const char* env = std::getenv("ICG_ORACLE_SEED");
  if (env == nullptr || *env == '\0') {
    return kDefaultSeed;
  }
  const std::optional<uint64_t> seed = ParseSeed(env);
  if (!seed.has_value()) {
    ADD_FAILURE() << "ICG_ORACLE_SEED=\"" << env
                  << "\" is not an unsigned 64-bit decimal; running seed " << kDefaultSeed;
    return kDefaultSeed;
  }
  return *seed;
}

inline bool EnvFlag(const char* name) {
  const char* env = std::getenv(name);
  return env != nullptr && *env == '1';
}

// Runs `trial` at LoopGroup widths 0 (sequential), 2 and 4, plus 8 under
// ICG_ORACLE_WIDTH8=1, and expects every threaded width to reproduce the sequential
// fingerprint bit for bit.
inline void ExpectWidthsAgree(const std::function<std::string(int threads)>& trial) {
  const std::string sequential = trial(/*threads=*/0);
  EXPECT_FALSE(sequential.empty());
  std::vector<int> widths = {2, 4};
  if (EnvFlag("ICG_ORACLE_WIDTH8")) {
    widths.push_back(8);
  }
  for (const int threads : widths) {
    EXPECT_EQ(trial(threads), sequential) << "threads=" << threads;
  }
}

// Fails the test on any violation the checker has found, listing the first ones.
inline void ExpectContract(const IcgContractChecker& checker, const std::string& context) {
  std::string listed;
  for (const std::string& message : checker.messages()) {
    listed += "\n  " + message;
  }
  EXPECT_TRUE(checker.clean()) << context << ": " << checker.violations() << " violations"
                               << listed;
}

// The after-run half of the contract, for keys preloaded with "init" and one writer each.
inline void ExpectKvContract(ShardedTrial& trial, const std::string& context) {
  trial.checker.CheckClosed();
  trial.checker.CheckAckOrder();
  trial.checker.CheckReplicas(*trial.stack.cluster);
  trial.checker.CheckReads("init");
  ExpectContract(trial.checker, context);
}

// --- Seeded random load -----------------------------------------------------------------

struct RandomOp {
  SimTime at = 0;
  size_t client = 0;
  OpKind kind = OpKind::kIcgRead;
  std::string key;
  std::string value;  // writes only
};

// `ops` operations at uniform instants in [start, start + length) over keys
// key_prefix + [0, keys).
struct LoadShape {
  SimTime start = 0;
  SimDuration length = 0;
  int ops = 0;
  int keys = 0;
  std::string key_prefix;
};

// The draw most trials share: a uniform client; a write with probability 1/4, else a
// weak, strong or ICG read; a uniform key. A write moves to the key its client owns in
// the drawn key's group of `clients` (client c owns indexes ≡ c mod clients), so every
// key has one writer and its program order is checkable. `writes` numbers the values.
inline RandomOp DrawOp(Rng& rng, const LoadShape& shape, size_t clients, int& writes) {
  RandomOp op;
  op.at = shape.start + static_cast<SimDuration>(rng.NextBounded(shape.length));
  op.client = static_cast<size_t>(rng.NextBounded(clients));
  const bool is_write = rng.NextBool(0.25);
  const int flavor = static_cast<int>(rng.NextBounded(3));
  int key_index = static_cast<int>(rng.NextBounded(shape.keys));
  if (is_write) {
    const int n = static_cast<int>(clients);
    key_index = (key_index / n) * n + static_cast<int>(op.client);
    op.kind = OpKind::kWrite;
    op.value = "c" + std::to_string(op.client) + "-" + std::to_string(writes++);
  } else {
    op.kind = flavor == 0   ? OpKind::kWeakRead
              : flavor == 1 ? OpKind::kStrongRead
                            : OpKind::kIcgRead;
  }
  op.key = shape.key_prefix + std::to_string(key_index);
  return op;
}

// Registers `op` with the checker now, so fingerprints follow draw order, and submits it
// on `client` after `op.at` of `loop`'s time.
inline void ScheduleOp(IcgContractChecker& checker, EventLoop& loop, CorrectableClient& client,
                       const RandomOp& op) {
  const size_t id = checker.Add(client, op.kind, op.key, op.value);
  loop.Schedule(op.at, [&checker, &client, id]() { checker.Start(id, client); });
}

// Draws `shape.ops` operations in the shared shape and schedules them on the trial's
// world.
inline void ScheduleRandomLoad(ShardedTrial& trial, Rng& rng, const LoadShape& shape) {
  int writes = 0;
  for (int i = 0; i < shape.ops; ++i) {
    const RandomOp op = DrawOp(rng, shape, trial.clients.size(), writes);
    ScheduleOp(trial.checker, trial.world.loop(), *trial.clients[op.client], op);
  }
}

}  // namespace icg

#endif  // ICG_TESTS_INTEGRATION_ORACLE_SUPPORT_H_
