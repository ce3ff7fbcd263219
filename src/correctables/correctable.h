// Correctable<T>: the paper's central abstraction (§3).
//
// A Correctable generalizes a Promise: instead of a single future value it represents a
// sequence of incremental views of an operation's result, each at a successively stronger
// consistency level. It starts in the UPDATING state; preliminary views trigger
// same-state transitions (onUpdate), and the object closes with a final view (onFinal) or
// an error (onError).
//
//   invoke(read(k))
//       .Speculate(prefetch)                       // run work on the preliminary view
//       .OnFinal([](const View<Ads>& v) { ... });  // deliver when confirmed/corrected
//
// Handles are cheap to copy (shared state). The producer side is CorrectableSource<T>,
// used by the client library; applications normally only consume.
//
// Threading: the whole library is loop-driven and thread-compatible — all calls must come
// from the thread running the owning event loop (or any single thread in loop-less use).
#ifndef ICG_CORRECTABLES_CORRECTABLE_H_
#define ICG_CORRECTABLES_CORRECTABLE_H_

#include <cassert>
#include <concepts>
#include <functional>
#include <memory>
#include <optional>
#include <type_traits>
#include <utility>
#include <vector>

#include "src/common/inline_function.h"
#include "src/common/pooled.h"
#include "src/common/small_vec.h"
#include "src/common/status.h"
#include "src/common/types.h"
#include "src/correctables/consistency.h"
#include "src/correctables/view.h"
#include "src/sim/event_loop.h"

namespace icg {

enum class CorrectableState {
  kUpdating,  // no final result yet; zero or more preliminary views delivered
  kFinal,     // closed with a final view
  kError,     // closed with an error
};

const char* CorrectableStateName(CorrectableState state);

template <typename T>
class Correctable;

namespace internal {

template <typename T>
struct CorrectableShared {
  CorrectableState state = CorrectableState::kUpdating;
  std::optional<View<T>> latest;  // most recent view (preliminary or final)
  Status error;
  int views_delivered = 0;
  // Strongest level delivered so far; updates below it are dropped (monotonicity).
  std::optional<ConsistencyLevel> strongest_delivered;
  EventLoop* loop = nullptr;  // for view timestamps; may be null
  int firing_updates = 0;     // FireUpdate reentrancy depth (see ReleaseCallbacks)

  // One or two callbacks per list is the norm (a handler plus maybe a combinator), and
  // typical captures are a shared handle or two — both stay inline on the hot path.
  using ViewCallback = InlineFunction<void(const View<T>&), 48>;
  using StatusCallback = InlineFunction<void(const Status&), 48>;
  SmallVec<ViewCallback, 2> on_update;
  SmallVec<ViewCallback, 2> on_final;
  SmallVec<StatusCallback, 2> on_error;

  SimTime NowOrZero() const { return loop != nullptr ? loop->Now() : 0; }

  void FireUpdate(const View<T>& v) {
    // Hot path: iterate the live list in place, but with a fixed bound — a callback
    // that attaches another update callback must not cause a second delivery (attach
    // already replays the latest view) — and a state check, so fan-out stops if a
    // callback closes/fails the source. `firing_updates` defers the terminal clear of
    // on_update (see ReleaseCallbacks): the closure currently executing must not be
    // destroyed out from under its own stack frame.
    ++firing_updates;
    const size_t n = on_update.size();
    for (size_t i = 0; i < n && state == CorrectableState::kUpdating; ++i) {
      on_update[i](v);
    }
    if (--firing_updates == 0 && state != CorrectableState::kUpdating) {
      on_update.clear();  // the deferred terminal release
    }
  }
  // Terminal fires consume the callback lists: once the state is terminal, late
  // attaches replay immediately off `state` (promise semantics), so the stored
  // closures — and whatever they capture (timers, caches, upstream sources) — must be
  // released instead of kept alive for the Correctable's lifetime. The lists are moved
  // out before invoking anything, so a callback that closes over this shared state
  // cannot mutate the list being iterated.
  void FireFinal(const View<T>& v) {
    auto cbs = std::move(on_final);
    ReleaseCallbacks();
    for (size_t i = 0; i < cbs.size(); ++i) {
      cbs[i](v);
    }
  }
  void FireError(const Status& s) {
    auto cbs = std::move(on_error);
    ReleaseCallbacks();
    for (size_t i = 0; i < cbs.size(); ++i) {
      cbs[i](s);
    }
  }
  void ReleaseCallbacks() {
    if (firing_updates == 0) {
      on_update.clear();  // otherwise FireUpdate clears it once its frames unwind
    }
    on_final.clear();
    on_error.clear();
  }
};

template <typename U>
struct IsCorrectable : std::false_type {};
template <typename U>
struct IsCorrectable<Correctable<U>> : std::true_type {};

}  // namespace internal

// Producer handle. The client library (or a combinator) feeds views into the shared
// state; consumers hold Correctable<T> handles onto the same state.
template <typename T>
class CorrectableSource {
 public:
  explicit CorrectableSource(EventLoop* loop = nullptr)
      : shared_(PooledMakeShared<internal::CorrectableShared<T>>()) {
    shared_->loop = loop;
  }

  Correctable<T> GetCorrectable() const { return Correctable<T>(shared_); }

  // Delivers a preliminary view. Returns false (and drops the view) if the object is
  // already closed or if `level` would regress below an already-delivered level —
  // enforcing the monotonicity the paper requires even if storage responses reorder.
  bool Update(T value, ConsistencyLevel level) {
    auto& s = *shared_;
    if (s.state != CorrectableState::kUpdating) {
      return false;
    }
    if (s.strongest_delivered.has_value() && IsStronger(*s.strongest_delivered, level)) {
      return false;
    }
    // Built in place: emplace destroys the previous view and default-constructs the new
    // one directly in the optional, so no intermediate View is moved.
    View<T>& v = s.latest.emplace();
    v.value = std::move(value);
    v.level = level;
    v.is_final = false;
    v.delivered_at = s.NowOrZero();
    s.strongest_delivered = level;
    s.views_delivered++;
    s.FireUpdate(*s.latest);
    return true;
  }

  // Closes with the final view. Returns false if already closed.
  bool Close(T value, ConsistencyLevel level, bool confirmed_preliminary = false) {
    auto& s = *shared_;
    if (s.state != CorrectableState::kUpdating) {
      return false;
    }
    View<T>& v = s.latest.emplace();  // in place, as in Update
    v.value = std::move(value);
    v.level = level;
    v.is_final = true;
    v.confirmed_preliminary = confirmed_preliminary;
    v.delivered_at = s.NowOrZero();
    s.strongest_delivered = level;
    s.views_delivered++;
    s.state = CorrectableState::kFinal;
    s.FireFinal(*s.latest);
    return true;
  }

  // Closes by confirming the latest preliminary view: the storage reported (via a small
  // confirmation message) that the preliminary value is the final value. Fails the
  // Correctable if no preliminary view exists — a confirmation with nothing to confirm is
  // a protocol error.
  bool CloseConfirmed(ConsistencyLevel level) {
    auto& s = *shared_;
    if (s.state != CorrectableState::kUpdating) {
      return false;
    }
    if (!s.latest.has_value()) {
      Fail(Status::Internal("confirmation received before any preliminary view"));
      return false;
    }
    return Close(s.latest->value, level, /*confirmed_preliminary=*/true);
  }

  // Closes with an error. Returns false if already closed.
  bool Fail(Status status) {
    auto& s = *shared_;
    if (s.state != CorrectableState::kUpdating) {
      return false;
    }
    assert(!status.ok());
    s.state = CorrectableState::kError;
    s.error = std::move(status);
    s.FireError(s.error);
    return true;
  }

  CorrectableState state() const { return shared_->state; }
  // Producer-side peeks at the delivered sequence (no consumer handle needed, so hot
  // paths avoid the shared_ptr copy a GetCorrectable() would cost).
  bool HasView() const { return shared_->latest.has_value(); }
  const View<T>& LatestView() const {
    assert(HasView());
    return *shared_->latest;
  }

 private:
  std::shared_ptr<internal::CorrectableShared<T>> shared_;
};

// Consumer handle.
template <typename T>
class Correctable {
 public:
  using UpdateCallback = InlineFunction<void(const View<T>&), 48>;
  using FinalCallback = InlineFunction<void(const View<T>&), 48>;
  using ErrorCallback = InlineFunction<void(const Status&), 48>;

  // An empty Correctable that is already failed; useful for argument-validation paths.
  static Correctable<T> Failed(Status status) {
    CorrectableSource<T> src;
    src.Fail(std::move(status));
    return src.GetCorrectable();
  }

  // A Correctable already closed with `value` (level kStrong unless specified).
  static Correctable<T> FromValue(T value, ConsistencyLevel level = ConsistencyLevel::kStrong) {
    CorrectableSource<T> src;
    src.Close(std::move(value), level);
    return src.GetCorrectable();
  }

  CorrectableState state() const { return shared_->state; }
  bool is_final() const { return shared_->state == CorrectableState::kFinal; }
  bool is_error() const { return shared_->state == CorrectableState::kError; }

  bool HasView() const { return shared_->latest.has_value(); }
  const View<T>& LatestView() const {
    assert(HasView());
    return *shared_->latest;
  }
  int views_delivered() const { return shared_->views_delivered; }
  const Status& error() const { return shared_->error; }

  // The final value, or an error: the Correctable's error if failed, UNAVAILABLE if it
  // is still updating. Intended for use after the event loop has run to completion.
  StatusOr<T> Final() const {
    switch (shared_->state) {
      case CorrectableState::kFinal:
        return shared_->latest->value;
      case CorrectableState::kError:
        return shared_->error;
      case CorrectableState::kUpdating:
        return Status::Unavailable("correctable still updating");
    }
    return Status::Internal("corrupt correctable state");
  }

  // --- Callback registration ----------------------------------------------------------
  // Attaching after the fact replays state: a pending preliminary view triggers the
  // update callback immediately, a final view triggers the final callback, an error the
  // error callback. This gives late subscribers promise-like "already resolved" behavior.

  Correctable& OnUpdate(UpdateCallback cb) {
    auto& s = *shared_;
    if (s.state == CorrectableState::kUpdating && s.latest.has_value()) {
      cb(*s.latest);
    }
    if (s.state == CorrectableState::kUpdating) {
      s.on_update.push_back(std::move(cb));
    }
    return *this;
  }

  Correctable& OnFinal(FinalCallback cb) {
    auto& s = *shared_;
    if (s.state == CorrectableState::kFinal) {
      cb(*s.latest);
    } else if (s.state == CorrectableState::kUpdating) {
      s.on_final.push_back(std::move(cb));
    }
    return *this;
  }

  Correctable& OnError(ErrorCallback cb) {
    auto& s = *shared_;
    if (s.state == CorrectableState::kError) {
      cb(s.error);
    } else if (s.state == CorrectableState::kUpdating) {
      s.on_error.push_back(std::move(cb));
    }
    return *this;
  }

  // The paper's setCallbacks: any argument may be null.
  Correctable& SetCallbacks(UpdateCallback on_update, FinalCallback on_final,
                            ErrorCallback on_error = nullptr) {
    if (on_update) {
      OnUpdate(std::move(on_update));
    }
    if (on_final) {
      OnFinal(std::move(on_final));
    }
    if (on_error) {
      OnError(std::move(on_error));
    }
    return *this;
  }

  // --- Combinators ---------------------------------------------------------------------

  // Transforms every view with `fn`, preserving levels/finality. Part of the monadic API
  // inherited from Promises.
  template <typename F>
  auto Map(F fn) const -> Correctable<std::invoke_result_t<F, const T&>> {
    using U = std::invoke_result_t<F, const T&>;
    CorrectableSource<U> out(shared_->loop);
    auto self = *this;
    self.OnUpdate([out, fn](const View<T>& v) mutable { out.Update(fn(v.value), v.level); });
    self.OnFinal([out, fn](const View<T>& v) mutable {
      out.Close(fn(v.value), v.level, v.confirmed_preliminary);
    });
    self.OnError([out](const Status& s) mutable { out.Fail(s); });
    return out.GetCorrectable();
  }

  // The paper's speculate(speculationFunc[, abortFunc]) (§4.2, Listing 3).
  //
  // `spec` runs on every new view whose value differs from the previously speculated
  // input. It may be synchronous (T -> U) or asynchronous (T -> Correctable<U>). The
  // returned Correctable delivers each speculation's result as a preliminary view and
  // closes when the final view arrives:
  //   * if the final value matches the speculated input, the result closes immediately
  //     with the already-computed speculation result (speculation hit);
  //   * otherwise `abort` (if provided) is invoked with the invalidated input, `spec`
  //     re-runs on the final value, and the result closes with that re-execution.
  // `abort` also runs when an in-flight speculation is superseded by a newer view.
  template <typename F, typename AbortFn = std::nullptr_t>
  auto Speculate(F spec, AbortFn abort = nullptr) const {
    static_assert(std::equality_comparable<T>,
                  "Speculate requires an equality-comparable view type");
    using RawResult = std::invoke_result_t<F, const T&>;
    constexpr bool kAsync = internal::IsCorrectable<RawResult>::value;

    if constexpr (kAsync) {
      using U = std::decay_t<decltype(std::declval<RawResult>().Final().value())>;
      return SpeculateImpl<U>(std::move(spec), std::move(abort), std::true_type{});
    } else {
      using U = RawResult;
      return SpeculateImpl<U>(std::move(spec), std::move(abort), std::false_type{});
    }
  }

 private:
  template <typename U>
  friend class CorrectableSource;
  template <typename U>
  friend class Correctable;

  explicit Correctable(std::shared_ptr<internal::CorrectableShared<T>> shared)
      : shared_(std::move(shared)) {}

  template <typename U, typename F, typename AbortFn, bool Async>
  Correctable<U> SpeculateImpl(F spec, AbortFn abort,
                               std::integral_constant<bool, Async>) const {
    struct SpecState {
      CorrectableSource<U> out;
      std::optional<T> input;        // input of the current speculation epoch
      std::optional<U> result;       // result, once the current epoch completes
      bool result_failed = false;    // current epoch's speculation errored
      Status result_error;
      uint64_t epoch = 0;            // bumped whenever a new speculation starts
      bool close_on_result = false;  // final confirmed input; waiting for async result
      ConsistencyLevel close_level = ConsistencyLevel::kStrong;
      bool close_confirmed = false;

      explicit SpecState(EventLoop* loop) : out(loop) {}
    };
    auto st = PooledMakeShared<SpecState>(shared_->loop);
    auto spec_fn = PooledMakeShared<F>(std::move(spec));

    auto run_abort = [abort = std::move(abort)](const T& invalidated_input) {
      if constexpr (!std::is_same_v<AbortFn, std::nullptr_t>) {
        abort(invalidated_input);
      } else {
        (void)invalidated_input;
      }
    };

    // Starts a speculation epoch on `input`; `level` is the level of the view that
    // triggered it and is used for the preliminary result view.
    auto start_speculation = [st, spec_fn](const T& input, ConsistencyLevel level) {
      st->epoch++;
      const uint64_t my_epoch = st->epoch;
      st->input = input;
      st->result.reset();
      st->result_failed = false;

      auto deliver = [st, my_epoch, level](U result) {
        if (st->epoch != my_epoch) {
          return;  // superseded while running
        }
        st->result = result;
        if (st->close_on_result) {
          st->out.Close(std::move(result), st->close_level, st->close_confirmed);
        } else {
          st->out.Update(std::move(result), level);
        }
      };
      auto deliver_error = [st, my_epoch](const Status& status) {
        if (st->epoch != my_epoch) {
          return;
        }
        st->result_failed = true;
        st->result_error = status;
        if (st->close_on_result) {
          st->out.Fail(status);
        }
      };

      if constexpr (Async) {
        (*spec_fn)(input).SetCallbacks(nullptr, [deliver](const View<U>& v) { deliver(v.value); },
                                       deliver_error);
      } else {
        deliver((*spec_fn)(input));
      }
    };

    auto self = *this;
    self.OnUpdate([st, start_speculation, run_abort](const View<T>& v) {
      if (st->input.has_value() && *st->input == v.value) {
        return;  // same input: speculation already running or done
      }
      if (st->input.has_value() && !st->result.has_value() && !st->result_failed) {
        run_abort(*st->input);  // superseding an in-flight speculation
      } else if (st->input.has_value()) {
        run_abort(*st->input);  // superseding a completed speculation
      }
      start_speculation(v.value, v.level);
    });

    self.OnFinal([st, start_speculation, run_abort](const View<T>& v) {
      if (st->input.has_value() && *st->input == v.value) {
        // Speculation hit: the preliminary input was correct.
        if (st->result.has_value()) {
          st->out.Close(*st->result, v.level, v.confirmed_preliminary);
        } else if (st->result_failed) {
          // The speculation itself failed; retry once on the (identical) final input.
          st->close_on_result = true;
          st->close_level = v.level;
          st->close_confirmed = v.confirmed_preliminary;
          start_speculation(v.value, v.level);
        } else {
          // Async speculation still in flight: close as soon as it lands.
          st->close_on_result = true;
          st->close_level = v.level;
          st->close_confirmed = v.confirmed_preliminary;
        }
        return;
      }
      // Misspeculation (or no preliminary at all): abort, re-execute on the final value.
      if (st->input.has_value()) {
        run_abort(*st->input);
      }
      st->close_on_result = true;
      st->close_level = v.level;
      st->close_confirmed = false;
      start_speculation(v.value, v.level);
    });

    self.OnError([st](const Status& s) { st->out.Fail(s); });
    return st->out.GetCorrectable();
  }

  std::shared_ptr<internal::CorrectableShared<T>> shared_;
};

// Aggregation inherited from Promises: a Correctable over the vector of results.
// Delivers a preliminary view whenever every part has at least one view and any part
// updates (level = weakest of the latest levels); closes when all parts are final; fails
// on the first part error.
template <typename T>
Correctable<std::vector<T>> WhenAll(const std::vector<Correctable<T>>& parts) {
  // The state keeps each part's latest view, not the part: every part's callbacks hold
  // the state, so holding the parts too would be a cycle that a part never reaching a
  // terminal view leaks.
  struct AggState {
    CorrectableSource<std::vector<T>> out;
    std::vector<std::optional<View<T>>> latest;
    size_t finals = 0;
  };
  auto st = PooledMakeShared<AggState>();

  if (parts.empty()) {
    st->out.Close({}, ConsistencyLevel::kStrong);
    return st->out.GetCorrectable();
  }

  // Seeded before any callback attaches: an attach replays the part's state, and that
  // replay must already see every other part's view.
  st->latest.resize(parts.size());
  for (size_t i = 0; i < parts.size(); ++i) {
    if (parts[i].HasView()) {
      st->latest[i] = parts[i].LatestView();
    }
  }

  // Records part i's view, then emits the aggregate once every part has one.
  auto record = [st](size_t i, const View<T>& v) {
    st->latest[i] = v;
    if (v.is_final) {
      st->finals++;
    }
    std::vector<T> values;
    values.reserve(st->latest.size());
    auto weakest = ConsistencyLevel::kStrong;
    for (const auto& view : st->latest) {
      if (!view.has_value()) {
        return;
      }
      values.push_back(view->value);
      if (IsStronger(weakest, view->level)) {
        weakest = view->level;
      }
    }
    if (st->finals == st->latest.size()) {
      st->out.Close(std::move(values), weakest);
    } else {
      st->out.Update(std::move(values), weakest);
    }
  };
  for (size_t i = 0; i < parts.size(); ++i) {
    Correctable<T> part = parts[i];
    part.OnUpdate([record, i](const View<T>& v) { record(i, v); });
    part.OnFinal([record, i](const View<T>& v) { record(i, v); });
    part.OnError([st](const Status& s) { st->out.Fail(s); });
  }
  return st->out.GetCorrectable();
}

}  // namespace icg

#endif  // ICG_CORRECTABLES_CORRECTABLE_H_
