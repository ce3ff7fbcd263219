// The binding API (§5.1): the line between consistency semantics (library side) and the
// protocols implementing them (storage side).
//
// A binding encapsulates one concrete storage stack configuration. It advertises its
// consistency levels and, for each invocation, *plans* how they are satisfied: which
// store round-trips to issue and which levels each round-trip reports. Everything else —
// weakest-first delivery, out-of-order suppression, the §5.2 digest-confirmation
// optimization, client-cache write-through, error fan-in, and same-tick read coalescing —
// is owned by the shared InvocationPipeline (src/correctables/invocation_pipeline.h), so
// a new backend only declares levels and small LevelFetcher callables.
#ifndef ICG_CORRECTABLES_BINDING_H_
#define ICG_CORRECTABLES_BINDING_H_

#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "src/common/inline_function.h"
#include "src/common/small_vec.h"
#include "src/common/status.h"
#include "src/correctables/consistency.h"
#include "src/correctables/operation.h"

namespace icg {

enum class ResponseKind {
  kValue,         // response carries the result payload
  kConfirmation,  // response is a digest-only confirmation of the previous view
};

// A validated, ascending selection of consistency levels for one invocation. Wraps the
// level vector with the membership/ordering queries plans are built from.
class LevelSet {
 public:
  LevelSet() = default;
  explicit LevelSet(LevelVec levels) : levels_(std::move(levels)) {}
  explicit LevelSet(const std::vector<ConsistencyLevel>& levels)
      : levels_(levels.begin(), levels.end()) {}

  bool Contains(ConsistencyLevel level) const {
    for (const ConsistencyLevel l : levels_) {
      if (l == level) {
        return true;
      }
    }
    return false;
  }
  ConsistencyLevel weakest() const { return levels_.front(); }
  ConsistencyLevel strongest() const { return levels_.back(); }
  bool single() const { return levels_.size() == 1; }
  bool empty() const { return levels_.empty(); }
  const LevelVec& levels() const { return levels_; }

 private:
  LevelVec levels_;
};

// Delivery handle a LevelFetcher uses to report responses. Cheap to copy into store
// callbacks; may be invoked any number of times (streaming levels, e.g. blockchain
// confirmation counts, emit repeatedly at the same level).
class LevelEmitter {
 public:
  // 64 inline bytes: the pipeline's sinks capture a shared plan/batch handle plus an
  // inline level list, and must not heap-allocate per emission chain. The result passes
  // by rvalue reference so the chain of sinks forwards one materialized StatusOr instead
  // of moving it at every hop.
  using Sink =
      InlineFunction<void(ConsistencyLevel, StatusOr<OpResult>&&, ResponseKind), 64>;

  explicit LevelEmitter(Sink sink) : sink_(std::move(sink)) {}

  void operator()(ConsistencyLevel level, StatusOr<OpResult> result,
                  ResponseKind kind = ResponseKind::kValue) const {
    sink_(level, std::move(result), kind);
  }

 private:
  Sink sink_;
};

// Adapter from a LevelEmitter to the single-response callback shape most store clients
// take, reporting at a fixed `level`. The capacity fits the captured emitter inline, so
// handing it to a store client costs no allocation.
inline InlineFunction<void(StatusOr<OpResult>), 80> EmitAt(LevelEmitter emit,
                                                           ConsistencyLevel level) {
  return [emit = std::move(emit), level](StatusOr<OpResult> result) {
    emit(level, std::move(result));
  };
}

// Issues the store round-trip for one FetchStep, reporting responses through `emit`.
using LevelFetcher = InlineFunction<void(const Operation& op, LevelEmitter emit), 64>;

// One store round-trip covering an ascending subset of the requested levels. A
// single-level step emits exactly one response; a multi-level step (the single-request
// ICG path) emits a preliminary at its weakest level and a final at its strongest.
// The declaration is enforced: the executors drop emissions at undeclared levels.
struct FetchStep {
  LevelVec levels;
  LevelFetcher fetch;
};

// Write-through hook the pipeline invokes with every successful full-value response, so
// client caches stay coherent with the freshest view the store surfaced.
using RefreshHook = InlineFunction<void(const Operation&, const OpResult&, ConsistencyLevel), 48>;

// How one invocation is satisfied: the fetch steps together cover the requested level
// set exactly. Implementations are expected to exploit the level set — e.g. a
// single-level request must not pay the multi-response protocol cost.
struct InvocationPlan {
  Status reject;           // non-OK: fail the invocation without issuing any request
  SmallVec<FetchStep, 2> steps;  // a plan is 1 step (single round-trip) or 2 (fallback)
  RefreshHook refresh;     // optional cache write-through

  static InvocationPlan Rejected(Status status) {
    InvocationPlan plan;
    plan.reject = std::move(status);
    return plan;
  }

  InvocationPlan& AddStep(ConsistencyLevel level, LevelFetcher fetch) {
    steps.push_back(FetchStep{LevelVec{level}, std::move(fetch)});
    return *this;
  }
  InvocationPlan& AddSpan(LevelVec levels, LevelFetcher fetch) {
    steps.push_back(FetchStep{std::move(levels), std::move(fetch)});
    return *this;
  }
};

class Binding {
 public:
  virtual ~Binding() = default;

  virtual std::string Name() const = 0;

  // Supported levels, ordered weakest to strongest. Must be non-empty and stable.
  virtual std::vector<ConsistencyLevel> SupportedLevels() const = 0;

  // Level-provider contract: describes how `op` is satisfied at `levels` (a validated,
  // ascending subset of SupportedLevels()). Called once per invocation; the returned
  // plan's fetchers are run by the InvocationPipeline.
  virtual InvocationPlan PlanInvocation(const Operation& op, const LevelSet& levels) = 0;

  // Routing scope of `op` for batching and coalescing — reads AND writes: two operations
  // may share one store round-trip only if their scopes match. Flat bindings use the
  // default (everything in one scope); a routing binding returns the shard so operations
  // bound for different coordinators never join the same batch — even if a rebalance
  // moves the key's shard while a batch window is open (the scheduler re-consults the
  // scope at flush time). Must agree between a read and a write of the same key.
  virtual std::string CoalescingScope(const Operation& op) const {
    (void)op;
    return std::string();
  }

  // Whether this binding can satisfy a kMultiGet covering several accumulated reads in
  // one store round-trip. The pipeline only widens read batches across ticks (and merges
  // distinct keys into one multiget) when this returns true; otherwise reads keep the
  // legacy same-tick coalescing path. A kMultiGet value must carry one entry per key.
  virtual bool SupportsBatchedReads() const { return false; }

  // Whether this binding can satisfy a kMultiPut (several writes applied in order) in
  // one store submission. The pipeline only queues and flushes writes as a batch when
  // this returns true; otherwise every write launches individually. A kMultiPut ack must
  // carry one entry per write.
  virtual bool SupportsBatchedWrites() const { return false; }

  // Called once per raw response in the legacy fan-out shape; kept for binding-level
  // tests and tools that drive a binding without a Correctable client.
  using ResponseCallback =
      std::function<void(StatusOr<OpResult> result, ConsistencyLevel level, ResponseKind kind)>;

  // Convenience: plans `op` and runs the fetch steps, forwarding each raw response (and
  // applying the plan's refresh hook). Ordering/confirmation semantics live in the
  // stateful InvocationPipeline, not here. Implemented in invocation_pipeline.cc.
  void SubmitOperation(const Operation& op, const LevelVec& levels,
                       ResponseCallback callback);
};

}  // namespace icg

#endif  // ICG_CORRECTABLES_BINDING_H_
