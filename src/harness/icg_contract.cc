#include "src/harness/icg_contract.h"

#include <algorithm>
#include <iterator>
#include <memory>
#include <utility>

namespace icg {

Correctable<OpResult> InvokeOp(CorrectableClient& client, OpKind kind, const std::string& key,
                               const std::string& value) {
  if (kind == OpKind::kWrite) {
    return client.InvokeStrong(Operation::Put(key, value));
  }
  return kind == OpKind::kWeakRead     ? client.InvokeWeak(Operation::Get(key))
         : kind == OpKind::kStrongRead ? client.InvokeStrong(Operation::Get(key))
                                       : client.Invoke(Operation::Get(key));
}

namespace {

const char* ViolationName(Violation violation) {
  static constexpr const char* kNames[] = {
      "level regressed",     "level outside the request", "view after the terminal",
      "second terminal",     "final below the strongest", "disallowed error",
      "never closed",        "ack versions regressed",    "replica diverged",
      "acked write lost",    "read of an unwritten value"};
  static_assert(std::size(kNames) == static_cast<size_t>(Violation::kCount));
  return kNames[static_cast<size_t>(violation)];
}

}  // namespace

OpExecutor MakeCheckedKvExecutor(CorrectableClient* client, IcgContractChecker* checker,
                                 std::function<void()> on_close) {
  return [client, checker, on_close](const YcsbOp& op, std::function<void(OpOutcome)> done) {
    EventLoop* loop = client->loop();
    const SimTime start = loop->Now();
    const OpKind kind = op.is_read ? OpKind::kIcgRead : OpKind::kWrite;
    const size_t id = checker->Add(*client, kind, op.key, op.is_read ? std::string() : op.value);
    checker->Submit(id);
    auto outcome = std::make_shared<OpOutcome>();
    auto finish = [outcome, done, loop, start, on_close](bool error) {
      outcome->error = error;
      outcome->final_latency = loop->Now() - start;
      on_close();
      done(*outcome);
    };
    InvokeOp(*client, kind, op.key, op.value)
        .SetCallbacks(
            [checker, id, outcome, loop, start](const View<OpResult>& v) {
              checker->OnView(id, v);
              if (!outcome->preliminary_latency.has_value()) {
                outcome->preliminary_latency = loop->Now() - start;
              }
            },
            [checker, id, finish](const View<OpResult>& v) {
              checker->OnFinal(id, v);
              finish(/*error=*/false);
            },
            [checker, id, finish](const Status& status) {
              checker->OnError(id, status);
              finish(/*error=*/true);
            });
  };
}

size_t IcgContractChecker::Add(OpKind kind, std::string key, ConsistencyLevel weakest,
                               ConsistencyLevel strongest, std::string written_value) {
  InvocationRecord& record = records_.emplace_back();
  record.kind = kind;
  record.key = std::move(key);
  record.written_value = std::move(written_value);
  record.weakest = weakest;
  record.strongest = strongest;
  return records_.size() - 1;
}

size_t IcgContractChecker::Add(const CorrectableClient& client, OpKind kind, std::string key,
                               std::string written_value) {
  const std::vector<ConsistencyLevel> levels = client.binding().SupportedLevels();
  const bool from_weakest = kind == OpKind::kWeakRead || kind == OpKind::kIcgRead;
  return Add(kind, std::move(key), from_weakest ? levels.front() : levels.back(),
             kind == OpKind::kWeakRead ? levels.front() : levels.back(),
             std::move(written_value));
}

void IcgContractChecker::Submit(size_t id) {
  if (records_[id].is_write()) {
    writes_[records_[id].key].push_back(id);
  }
}

void IcgContractChecker::Withdraw(size_t id) {
  if (records_[id].is_write()) {
    std::vector<size_t>& writes = writes_[records_[id].key];
    writes.erase(std::remove(writes.begin(), writes.end(), id), writes.end());
  }
}

void IcgContractChecker::Start(size_t id, CorrectableClient& client) {
  Submit(id);
  const InvocationRecord& record = records_[id];
  InvokeOp(client, record.kind, record.key, record.written_value)
      .SetCallbacks([this, id](const View<OpResult>& v) { OnView(id, v); },
                    [this, id](const View<OpResult>& v) { OnFinal(id, v); },
                    [this, id](const Status& status) { OnError(id, status); });
}

void IcgContractChecker::StartRetryingSheds(CorrectableClient& client, EventLoop& loop,
                                            OpKind kind, const std::string& key,
                                            const std::string& value, SimDuration backoff,
                                            const std::function<void()>& on_shed,
                                            const std::function<void()>& on_final) {
  Correctable<OpResult> c = InvokeOp(client, kind, key, value);
  const auto retry = [this, &client, &loop, kind, key, value, backoff, on_shed, on_final]() {
    on_shed();
    loop.Schedule(backoff, [=, this, &client, &loop]() {
      StartRetryingSheds(client, loop, kind, key, value, backoff, on_shed, on_final);
    });
  };
  if (c.state() == CorrectableState::kError && c.error().code() == StatusCode::kOverloaded) {
    retry();
    return;
  }
  const size_t id = Add(client, kind, key, value);
  Submit(id);
  c.SetCallbacks([this, id](const View<OpResult>& v) { OnView(id, v); },
                 [this, id, on_final](const View<OpResult>& v) {
                   OnFinal(id, v);
                   if (on_final) on_final();
                 },
                 [this, id, retry](const Status& status) {
                   OnError(id, status);
                   if (status.code() == StatusCode::kOverloaded) {
                     Withdraw(id);
                     retry();
                   }
                 });
}

void IcgContractChecker::Deliver(size_t id, ConsistencyLevel level) {
  InvocationRecord& record = records_[id];
  if (!record.delivered.empty() && !IsStrongerOrEqual(level, record.delivered.back())) {
    Flag(Violation::kLevelRegressed, id, "at view " + std::to_string(record.delivered.size()));
  }
  if (!IsStrongerOrEqual(record.strongest, level) || !IsStrongerOrEqual(level, record.weakest)) {
    Flag(Violation::kLevelOutOfRange, id, "level " + std::to_string(static_cast<int>(level)));
  }
  record.delivered.push_back(level);
}

void IcgContractChecker::OnView(size_t id, const View<OpResult>& view) {
  if (records_[id].closed()) {
    Flag(Violation::kViewAfterTerminal, id, "");
  }
  Deliver(id, view.level);
}

void IcgContractChecker::OnFinal(size_t id, const View<OpResult>& view) {
  InvocationRecord& record = records_[id];
  if (record.closed()) {
    Flag(Violation::kExtraTerminal, id, "a final");
  } else {
    finals_++;
    record.final_value = view.value;
    record.final_at = view.delivered_at;
  }
  Deliver(id, view.level);
  if (view.level != record.strongest) {
    Flag(Violation::kFinalNotStrongest, id, "");
  }
  record.finals++;
}

void IcgContractChecker::OnError(size_t id, const Status& status) {
  InvocationRecord& record = records_[id];
  if (record.closed()) {
    Flag(Violation::kExtraTerminal, id, status.ToString());
  } else {
    errors_++;
  }
  record.errors++;
  if (allowed_ == AllowedErrors::kNone ||
      (allowed_ == AllowedErrors::kOverloadOnly && status.code() != StatusCode::kOverloaded)) {
    Flag(Violation::kDisallowedError, id, status.ToString());
  }
}

void IcgContractChecker::CheckClosed() {
  for (size_t id = 0; id < records_.size(); ++id) {
    if (!records_[id].closed()) {
      Flag(Violation::kNeverClosed, id, "");
    }
  }
}

void IcgContractChecker::CheckAckOrder() {
  for (const auto& [key, writes] : writes_) {
    Version previous{};
    for (const size_t id : writes) {
      const InvocationRecord& write = records_[id];
      if (write.finals == 0) {
        continue;
      }
      if (write.final_value.version < previous) {
        Flag(Violation::kAckRegressed, id, "");
      }
      previous = write.final_value.version;
    }
  }
}

void IcgContractChecker::CheckLastWrite(
    const std::function<std::optional<std::string>(const std::string& key)>& stored,
    const std::string& replica_name) {
  for (const auto& [key, writes] : writes_) {
    if (writes.empty() || records_[writes.back()].finals == 0) {
      continue;
    }
    const std::optional<std::string> value = stored(key);
    if (value != records_[writes.back()].written_value) {
      FlagKey(Violation::kReplicaDiverged, key,
              replica_name + " holds " + value.value_or("nothing") + ", not the last write");
    }
  }
}

void IcgContractChecker::CheckReplicas(const KvCluster& cluster) {
  for (const auto& [key, writes] : writes_) {
    if (writes.empty()) {
      continue;
    }
    const InvocationRecord& last = records_[writes.back()];
    const auto first = cluster.replicas().front()->LocalGet(key);
    for (const auto& replica : cluster.replicas()) {
      const std::string name = "replica " + std::to_string(replica->id());
      const auto stored = replica->LocalGet(key);
      if (!stored.has_value() || stored != first) {
        FlagKey(Violation::kReplicaDiverged, key,
                name + (stored.has_value() ? " disagrees with its peers" : " lacks the key"));
      } else if (last.finals > 0 && stored->value != last.written_value) {
        FlagKey(Violation::kReplicaDiverged, key, name + " holds " + stored->value.str());
      }
    }
  }
  CheckNoAckedLoss(cluster);
}

int64_t IcgContractChecker::CheckNoAckedLoss(const KvCluster& cluster) {
  int64_t acked_keys = 0;
  for (const auto& [key, writes] : writes_) {
    // The acked write with the greatest ack version, the later one on a tie.
    const InvocationRecord* acked = nullptr;
    for (const size_t id : writes) {
      const InvocationRecord& write = records_[id];
      if (write.finals > 0 &&
          (acked == nullptr || !(write.final_value.version < acked->final_value.version))) {
        acked = &write;
      }
    }
    if (acked == nullptr) {
      continue;
    }
    acked_keys++;
    const Version& version = acked->final_value.version;
    for (const auto& replica : cluster.replicas()) {
      const auto stored = replica->LocalGet(key);
      if (!stored.has_value() || stored->version < version ||
          (stored->version == version && stored->value != acked->written_value)) {
        FlagKey(Violation::kAckedWriteLost, key,
                "replica " + std::to_string(replica->id()) + " lost " + acked->written_value);
        break;
      }
    }
  }
  return acked_keys;
}

void IcgContractChecker::CheckReads(const std::string& preloaded) {
  for (size_t id = 0; id < records_.size(); ++id) {
    const InvocationRecord& record = records_[id];
    const std::string& value = record.final_value.value;
    if (!record.is_write() && record.finals > 0 && record.final_value.found &&
        value != preloaded && !Written(record.key, value)) {
      Flag(Violation::kUnwrittenRead, id, value);
    }
  }
}

bool IcgContractChecker::Written(const std::string& key, const std::string& value) const {
  const auto it = writes_.find(key);
  return it != writes_.end() &&
         std::any_of(it->second.begin(), it->second.end(),
                     [&](size_t id) { return records_[id].written_value == value; });
}

std::string IcgContractChecker::Fingerprint() const {
  std::string out;
  for (const InvocationRecord& record : records_) {
    out += record.key + (record.is_write() ? "W" : "R") + "[";
    for (const ConsistencyLevel level : record.delivered) {
      out += std::to_string(static_cast<int>(level));
    }
    const Version& version = record.final_value.version;
    out += "]e" + std::to_string(record.errors) + "=" + record.final_value.value + "#" +
           std::to_string(version.timestamp) + "." + std::to_string(version.writer) + "@" +
           std::to_string(record.final_at) + ";";
  }
  return out;
}

void IcgContractChecker::Flag(Violation violation, size_t id, const std::string& detail) {
  FlagKey(violation, records_[id].key,
          "invocation " + std::to_string(id) + (records_[id].is_write() ? " (write)" : " (read)") +
              (detail.empty() ? "" : ": " + detail));
}

void IcgContractChecker::FlagKey(Violation violation, const std::string& key,
                                 const std::string& detail) {
  counts_[static_cast<size_t>(violation)]++;
  violations_++;
  if (messages_.size() < kMaxMessages) {
    messages_.push_back(std::string(ViolationName(violation)) + " [key " + key + "] " + detail);
  }
}

}  // namespace icg
