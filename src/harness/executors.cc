#include "src/harness/executors.h"

#include <cctype>
#include <memory>
#include <utility>

namespace icg {

const char* KvModeName(KvMode mode) {
  switch (mode) {
    case KvMode::kWeakOnly:
      return "weak(R=1)";
    case KvMode::kStrongOnly:
      return "strong";
    case KvMode::kIcg:
      return "icg";
  }
  return "?";
}

int64_t KeyIndexOf(const std::string& ycsb_key) {
  size_t pos = 0;
  while (pos < ycsb_key.size() && !isdigit(static_cast<unsigned char>(ycsb_key[pos]))) {
    pos++;
  }
  return pos < ycsb_key.size() ? std::stoll(ycsb_key.substr(pos)) : 0;
}

void PreloadYcsbDataset(KvCluster* cluster, const WorkloadConfig& config) {
  const std::string filler(static_cast<size_t>(config.ValueBytes()), 'x');
  cluster->Preload(static_cast<size_t>(config.record_count),
                   [&filler](size_t i, std::string* key, std::string* value) {
                     *key = CoreWorkload::KeyForIndex(static_cast<int64_t>(i));
                     *value = filler;
                   });
}

OpExecutor MakeKvExecutor(CorrectableClient* client, KvMode mode) {
  return [client, mode](const YcsbOp& op, std::function<void(OpOutcome)> done) {
    EventLoop* loop = client->loop();
    const SimTime start = loop->Now();
    auto now = [loop, start]() { return loop->Now() - start; };

    if (!op.is_read) {
      client->InvokeStrong(Operation::Put(op.key, op.value))
          .SetCallbacks(nullptr,
                        [done, now](const View<OpResult>&) {
                          OpOutcome outcome;
                          outcome.final_latency = now();
                          done(outcome);
                        },
                        [done, now](const Status&) {
                          OpOutcome outcome;
                          outcome.error = true;
                          outcome.final_latency = now();
                          done(outcome);
                        });
      return;
    }

    switch (mode) {
      case KvMode::kWeakOnly:
      case KvMode::kStrongOnly: {
        auto read = mode == KvMode::kWeakOnly ? client->InvokeWeak(Operation::Get(op.key))
                                              : client->InvokeStrong(Operation::Get(op.key));
        read.SetCallbacks(nullptr,
                          [done, now](const View<OpResult>&) {
                            OpOutcome outcome;
                            outcome.final_latency = now();
                            done(outcome);
                          },
                          [done, now](const Status&) {
                            OpOutcome outcome;
                            outcome.error = true;
                            outcome.final_latency = now();
                            done(outcome);
                          });
        return;
      }
      case KvMode::kIcg: {
        auto state = std::make_shared<OpOutcome>();
        auto prelim_value = std::make_shared<OpResult>();
        client->Invoke(Operation::Get(op.key))
            .SetCallbacks(
                [state, prelim_value, now](const View<OpResult>& v) {
                  if (!state->preliminary_latency.has_value()) {
                    state->preliminary_latency = now();
                    *prelim_value = v.value;
                  }
                },
                [state, prelim_value, done, now](const View<OpResult>& v) {
                  state->final_latency = now();
                  if (state->preliminary_latency.has_value()) {
                    state->diverged =
                        !v.confirmed_preliminary && !(v.value == *prelim_value);
                  }
                  done(*state);
                },
                [state, done, now](const Status&) {
                  state->error = true;
                  state->final_latency = now();
                  done(*state);
                });
        return;
      }
    }
  };
}

namespace {

// Shared by the two application executors: read via the speculation pattern, write via
// the app's update operation.
OpExecutor MakeRefAppExecutor(EventLoop* loop, bool use_icg,
                              std::function<void(int64_t uid, bool icg,
                                                 std::function<void(RefFetchOutcome)>)> read_fn,
                              std::function<void(int64_t uid, int64_t version,
                                                 std::function<void(bool)>)> write_fn,
                              int64_t entity_count) {
  auto version_counter = std::make_shared<int64_t>(0);
  return [loop, use_icg, read_fn = std::move(read_fn), write_fn = std::move(write_fn),
          entity_count, version_counter](const YcsbOp& op, std::function<void(OpOutcome)> done) {
    const int64_t uid = KeyIndexOf(op.key) % entity_count;
    const SimTime start = loop->Now();
    if (op.is_read) {
      read_fn(uid, use_icg, [done](RefFetchOutcome outcome) {
        OpOutcome out;
        out.error = !outcome.ok;
        out.final_latency = outcome.latency;
        out.preliminary_latency = outcome.preliminary_latency;
        out.diverged = outcome.misspeculated;
        done(out);
      });
    } else {
      (*version_counter)++;
      write_fn(uid, *version_counter, [done, loop, start](bool ok) {
        OpOutcome out;
        out.error = !ok;
        out.final_latency = loop->Now() - start;
        done(out);
      });
    }
  };
}

}  // namespace

OpExecutor MakeAdsExecutor(AdsSystem* ads, bool use_icg) {
  return MakeRefAppExecutor(
      ads->ClientLoop(), use_icg,
      [ads](int64_t uid, bool icg, std::function<void(RefFetchOutcome)> done) {
        ads->FetchAdsByUserId(uid, icg, std::move(done));
      },
      [ads](int64_t uid, int64_t version, std::function<void(bool)> done) {
        ads->UpdateProfile(uid, version, std::move(done));
      },
      ads->config().num_profiles);
}

OpExecutor MakeTwissandraExecutor(Twissandra* twissandra, bool use_icg) {
  return MakeRefAppExecutor(
      twissandra->ClientLoop(), use_icg,
      [twissandra](int64_t uid, bool icg, std::function<void(RefFetchOutcome)> done) {
        twissandra->GetTimeline(uid, icg, std::move(done));
      },
      [twissandra](int64_t uid, int64_t version, std::function<void(bool)> done) {
        twissandra->PostTweet(uid, version, std::move(done));
      },
      twissandra->config().num_users);
}

int PinWorld(LoopGroup& group, SimWorld& world) { return group.Attach(&world.loop()); }

namespace {

void AddInto(ClientStats& into, const ClientStats& from) {
  into.invocations += from.invocations;
  into.weak_invocations += from.weak_invocations;
  into.strong_invocations += from.strong_invocations;
  into.icg_invocations += from.icg_invocations;
  into.views_delivered += from.views_delivered;
  into.confirmations += from.confirmations;
  into.divergences += from.divergences;
  into.stale_views_dropped += from.stale_views_dropped;
  into.errors += from.errors;
  into.timeouts += from.timeouts;
  into.batched_invocations += from.batched_invocations;
  into.coalesced_reads += from.coalesced_reads;
  into.cross_tick_batches += from.cross_tick_batches;
  into.batched_writes += from.batched_writes;
  into.overload_sheds += from.overload_sheds;
}

}  // namespace

void ClientStatsGroup::Absorb(size_t i, const ClientStats& stats) {
  AddInto(slots_.at(i).stats, stats);
}

ClientStats ClientStatsGroup::Merged() const {
  ClientStats merged;
  for (const Slot& slot : slots_) {
    AddInto(merged, slot.stats);
  }
  return merged;
}

}  // namespace icg
