// The ICG contract, stated once and checked the same way by every consistency oracle
// and every load bench. An invocation keeps it when its views arrive weakest-first
// within the levels it requested, exactly one terminal closes it, the final lands at the
// strongest requested level, and any error is one the run allows. A run keeps it when,
// after quiescence, each key's writes were acked in program order, replicas hold the
// last write without losing an acked one, and reads returned only values somebody wrote.
//
// The checker does not depend on a test framework: it counts violations per property
// and keeps the first few messages, so a gtest oracle turns them into failures and a
// bench into its exit code and JSON counters. It is not thread-safe; give each world its
// own checker and drive it from the loop that delivers that world's views.
#ifndef ICG_HARNESS_ICG_CONTRACT_H_
#define ICG_HARNESS_ICG_CONTRACT_H_

#include <array>
#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "src/common/status.h"
#include "src/correctables/client.h"
#include "src/kvstore/cluster.h"
#include "src/ycsb/runner.h"

namespace icg {

// What an oracle issues: a strong write, or a read at the weakest, the strongest, or
// every level the client's binding supports.
enum class OpKind { kWrite, kWeakRead, kStrongRead, kIcgRead };

// Issues `kind` on `key` (writes put `value`) through InvokeStrong, InvokeWeak or Invoke.
Correctable<OpResult> InvokeOp(CorrectableClient& client, OpKind kind, const std::string& key,
                               const std::string& value);

// The terminal errors a run may close an invocation with.
enum class AllowedErrors {
  kNone,          // no fault injected, so nothing may fail
  kOverloadOnly,  // retryable overload sheds (backpressure) are the one sanctioned error
  kAny,           // faults injected: timeouts and sheds are legal terminals
};

enum class Violation {
  kLevelRegressed,     // a view weaker than the one before it
  kLevelOutOfRange,    // a view outside the requested weakest..strongest
  kViewAfterTerminal,  // a preliminary view after the invocation closed
  kExtraTerminal,      // a second final or error after the first terminal
  kFinalNotStrongest,  // the final view below the strongest requested level
  kDisallowedError,    // an error the run's AllowedErrors does not admit
  kNeverClosed,        // no terminal by the end of the run
  kAckRegressed,       // a key's acked versions went backwards in submission order
  kReplicaDiverged,    // a replica missing the key, or off its last write or its peers
  kAckedWriteLost,     // a replica older than an acked write, or its version reused
  kUnwrittenRead,      // a read returned a value nobody wrote
  kCount,
};

// One invocation as the checker saw it: what was requested, then every callback.
struct InvocationRecord {
  OpKind kind = OpKind::kStrongRead;
  std::string key;
  std::string written_value;  // writes only
  ConsistencyLevel weakest = ConsistencyLevel::kStrong;
  ConsistencyLevel strongest = ConsistencyLevel::kStrong;
  std::vector<ConsistencyLevel> delivered;  // every view's level, final included, in order
  int finals = 0;
  int errors = 0;
  OpResult final_value;   // the first final's; its version is the ack
  SimTime final_at = -1;  // virtual time the first final was delivered

  bool is_write() const { return kind == OpKind::kWrite; }
  bool closed() const { return finals + errors > 0; }
};

class IcgContractChecker {
 public:
  explicit IcgContractChecker(AllowedErrors allowed = AllowedErrors::kNone)
      : allowed_(allowed) {}
  IcgContractChecker(const IcgContractChecker&) = delete;  // callbacks hold `this`
  IcgContractChecker& operator=(const IcgContractChecker&) = delete;

  // --- Per invocation ------------------------------------------------------------------

  // Registers an invocation, in creation order, and returns its id.
  size_t Add(OpKind kind, std::string key, ConsistencyLevel weakest,
             ConsistencyLevel strongest, std::string written_value = {});
  // The same, with the levels `kind` requests from `client`'s binding.
  size_t Add(const CorrectableClient& client, OpKind kind, std::string key,
             std::string written_value = {});

  // A write joins its key's program order when it is submitted, which need not be when
  // it was registered; a write shed before it applied leaves it again. No-ops for reads.
  void Submit(size_t id);
  void Withdraw(size_t id);

  // Submits invocation `id` on `client` now and routes the Correctable's callbacks to
  // the hooks below.
  void Start(size_t id, CorrectableClient& client);

  // The callback hooks, for callers that add work of their own to a callback.
  void OnView(size_t id, const View<OpResult>& view);
  void OnFinal(size_t id, const View<OpResult>& view);
  void OnError(size_t id, const Status& status);

  // Submits `kind` on `client` now and resubmits each overload shed `backoff` later on
  // `loop`, as a fresh invocation with a fresh LWW stamp, until it closes otherwise. A
  // shed at admission registers nothing; a shed at cohort flush closes its invocation
  // with the sanctioned error and withdraws a write, which never applied. `on_shed` runs
  // at every shed, `on_final` (if set) at the final.
  void StartRetryingSheds(CorrectableClient& client, EventLoop& loop, OpKind kind,
                          const std::string& key, const std::string& value,
                          SimDuration backoff, const std::function<void()>& on_shed,
                          const std::function<void()>& on_final = nullptr);

  // --- After the run -------------------------------------------------------------------

  // Every invocation closed.
  void CheckClosed();
  // Per key, acked versions never regress in submission order. A batched flush acks its
  // members under one version, so equal is fine. Needs one writer per key.
  void CheckAckOrder();
  // Program order into one replica: it holds each key's last submitted write, when that
  // write was acked (an unacked last write may or may not have applied). Needs one
  // writer per key.
  void CheckLastWrite(
      const std::function<std::optional<std::string>(const std::string& key)>& stored,
      const std::string& replica_name);
  // Every replica of `cluster` holds each written key, all hold the same versioned
  // value, that value is the last write (as CheckLastWrite), and no acked write is lost
  // (as CheckNoAckedLoss).
  void CheckReplicas(const KvCluster& cluster);
  // Acked-write loss alone, which also holds for keys with many writers: every replica
  // holds a version at least the key's newest acked one, and that very version only with
  // the acked value. Returns how many keys had an acked write.
  int64_t CheckNoAckedLoss(const KvCluster& cluster);
  // Every read that found a value returned `preloaded` or a value submitted for its key.
  void CheckReads(const std::string& preloaded);
  // Whether some submitted write put `value` at `key`.
  bool Written(const std::string& key, const std::string& value) const;

  // --- Results -------------------------------------------------------------------------

  const std::vector<InvocationRecord>& invocations() const { return records_; }
  // Invocations closed at all, by a final, and by an error (each at most once).
  int64_t closed() const { return finals_ + errors_; }
  int64_t finals() const { return finals_; }
  int64_t errors() const { return errors_; }

  int64_t count(Violation violation) const {
    return counts_[static_cast<size_t>(violation)];
  }
  int64_t violations() const { return violations_; }
  bool clean() const { return violations_ == 0; }
  // The first kMaxMessages violations, in the order they were found.
  static constexpr size_t kMaxMessages = 32;
  const std::vector<std::string>& messages() const { return messages_; }

  // Everything observable about every invocation, in creation order: key, kind,
  // delivered levels, error count, final value and version, final time. Equal strings
  // across LoopGroup widths mean bit-identical outcomes.
  std::string Fingerprint() const;

 private:
  // Checks a delivered view's level against the last one and the request.
  void Deliver(size_t id, ConsistencyLevel level);
  void Flag(Violation violation, size_t id, const std::string& detail);
  void FlagKey(Violation violation, const std::string& key, const std::string& detail);

  AllowedErrors allowed_;
  std::vector<InvocationRecord> records_;
  // Per key, the submitted writes' ids in submission order.
  std::map<std::string, std::vector<size_t>> writes_;
  std::array<int64_t, static_cast<size_t>(Violation::kCount)> counts_{};
  int64_t violations_ = 0;
  int64_t finals_ = 0;  // invocations whose terminal was a final
  int64_t errors_ = 0;  // invocations whose terminal was an error
  std::vector<std::string> messages_;
};

// MakeKvExecutor's ICG mode (src/harness/executors.h) with every invocation under
// `checker`: writes and ICG reads are registered, submitted and watched through their
// terminal, where `on_close` runs just before the runner hears of it. No divergence
// tracking.
OpExecutor MakeCheckedKvExecutor(CorrectableClient* client, IcgContractChecker* checker,
                                 std::function<void()> on_close);

}  // namespace icg

#endif  // ICG_HARNESS_ICG_CONTRACT_H_
