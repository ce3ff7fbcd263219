#include "src/kvstore/replica.h"

#include <algorithm>
#include <cassert>
#include <set>
#include <string>
#include <utility>

#include "src/common/logging.h"

namespace icg {

KvReplica::KvReplica(Network* network, NodeId id, const KvConfig* config, const std::string& name)
    : network_(network),
      loop_(network->loop()),
      id_(id),
      config_(config),
      service_(network->loop(), name),
      wal_(name + ".wal"),
      snapshot_(name + ".snap") {
  assert(config_ != nullptr);
  wal_.SetFaults(WalFaults{config_->wal_fsync_service, config_->wal_torn_tail});
}

void KvReplica::RebindLoop() {
  assert(pending_reads_.empty() && pending_multi_reads_.empty() &&
         service_.InFlight() == 0 && "rebind requires a quiescent replica");
  loop_ = network_->LoopFor(id_);
  service_.RebindLoop(loop_);
}

void KvReplica::SetPeers(std::vector<KvReplica*> peers) {
  peers_ = std::move(peers);
  // Keep peers ordered nearest-first from this node, so quorum requests go to the
  // closest replicas — the behaviour that produces the paper's CC2 20 ms gap (coordinator
  // + nearest replica) versus CC3's 140 ms gap (farthest replica).
  std::sort(peers_.begin(), peers_.end(), [this](const KvReplica* a, const KvReplica* b) {
    return network_->topology()->RttBetween(id_, a->id()) <
           network_->topology()->RttBetween(id_, b->id());
  });
}

OpResult KvReplica::ToOpResult(const std::optional<VersionedValue>& value) {
  OpResult result;
  if (value.has_value()) {
    result.found = true;
    result.value = value->value.str();  // the one copy: the client's result owns its bytes
    result.version = value->version;
  }
  return result;
}

void KvReplica::CoordinateRead(NodeId client_id, const std::string& key,
                               const ReadOptions& options, KvResponseFn respond) {
  assert(options.read_quorum >= 1);
  if (crashed_) {
    return;  // in-flight request outlived the process; the client's timeout handles it
  }
  const uint64_t request_id = next_request_id_++;
  PendingRead& read = pending_reads_[request_id];
  read.client_id = client_id;
  read.key = key;
  read.options = options;
  read.respond = std::move(respond);

  metrics_.GetCounter("reads_coordinated").Increment();
  if (options.want_preliminary) {
    metrics_.GetCounter("icg_reads").Increment();
  }

  // Fan out to peer replicas in parallel with the local read (only when a quorum > 1 is
  // required). Responses beyond the quorum feed read repair.
  const int needed = options.read_quorum;
  if (needed > 1) {
    const size_t peer_count = std::min(peers_.size(), static_cast<size_t>(needed - 1) + 1);
    for (size_t i = 0; i < peer_count && i < peers_.size(); ++i) {
      KvReplica* peer = peers_[i];
      read.peers_asked.push_back(peer->id());
      read.peer_results.emplace_back(std::nullopt);
      const size_t slot = read.peer_results.size() - 1;
      const int64_t req_bytes = kRequestHeaderBytes + static_cast<int64_t>(key.size());
      network_->Send(id_, peer->id(), req_bytes, [this, peer, key, request_id, slot]() {
        peer->HandlePeerRead(
            id_, key, request_id,
            [this, slot](uint64_t rid, std::optional<VersionedValue> value) {
              auto it = pending_reads_.find(rid);
              if (it == pending_reads_.end()) {
                return;  // request already finished (late reply)
              }
              PendingRead& r = it->second;
              if (!r.peer_results[slot].has_value() && value.has_value()) {
                r.peer_results[slot] = std::move(value);
              }
              r.responses++;
              MaybeFinishRead(rid);
            });
      });
    }
  }

  // Local read on the coordinator's service queue.
  service_.Submit(kReadService, [this, request_id]() {
    auto it = pending_reads_.find(request_id);
    if (it == pending_reads_.end()) {
      return;
    }
    PendingRead& r = it->second;
    r.local = LocalGet(r.key);
    r.responses++;
    if (r.options.want_preliminary) {
      // Preliminary flushing (§6.2.1): serializing and sending the early response costs
      // extra coordinator time, the cause of CC's throughput drop versus baseline.
      service_.Submit(config_->flush_service, [this, request_id]() {
        auto it2 = pending_reads_.find(request_id);
        if (it2 == pending_reads_.end()) {
          return;
        }
        PendingRead& r2 = it2->second;
        if (r2.done || r2.preliminary_sent) {
          return;
        }
        r2.preliminary_sent = true;
        const auto result = r2.local;
        r2.preliminary_digest =
            result.has_value() ? result->ContentDigest() : ValueDigest("", 0);
        metrics_.GetCounter("preliminaries_sent").Increment();
        SendReadResponse(r2, result, /*is_final=*/false, ResponseKind::kValue);
        MaybeFinishRead(request_id);
      });
    }
    MaybeFinishRead(request_id);
  });

  // Quorum timeout: fail the request if peers never answer (crash/partition).
  PendingRead& armed = pending_reads_[request_id];
  armed.timeout_timer = loop_->Schedule(config_->read_timeout, [this, request_id]() {
    auto it = pending_reads_.find(request_id);
    if (it == pending_reads_.end()) {
      return;
    }
    PendingRead& r = it->second;
    if (r.done) {
      return;
    }
    r.done = true;
    metrics_.GetCounter("read_timeouts").Increment();
    const int64_t bytes = kResponseHeaderBytes;
    auto respond_fn = r.respond;
    network_->Send(id_, r.client_id, bytes, [respond_fn]() {
      respond_fn(Status::Timeout("read quorum not reached"), /*is_final=*/true,
                 ResponseKind::kValue);
    });
    pending_reads_.erase(it);
  });
}

void KvReplica::MaybeFinishRead(uint64_t request_id) {
  auto it = pending_reads_.find(request_id);
  if (it == pending_reads_.end()) {
    return;
  }
  PendingRead& read = it->second;
  if (read.done) {
    return;
  }
  if (read.responses < read.options.read_quorum) {
    return;
  }
  // An ICG read must deliver its preliminary before the final view.
  if (read.options.want_preliminary && !read.preliminary_sent) {
    return;
  }
  FinishRead(read);
  loop_->Cancel(read.timeout_timer);
  pending_reads_.erase(request_id);
}

void KvReplica::FinishRead(PendingRead& read) {
  read.done = true;
  const std::optional<VersionedValue> merged = MergedResult(read);

  if (merged.has_value()) {
    IssueReadRepair(read, *merged);
  }

  ResponseKind kind = ResponseKind::kValue;
  if (read.options.want_preliminary && read.options.confirmations &&
      read.preliminary_digest.has_value()) {
    const Digest final_digest =
        merged.has_value() ? merged->ContentDigest() : ValueDigest("", 0);
    if (final_digest == *read.preliminary_digest) {
      kind = ResponseKind::kConfirmation;
      metrics_.GetCounter("confirmations_sent").Increment();
    }
  }
  if (read.options.want_preliminary && kind == ResponseKind::kValue &&
      read.preliminary_digest.has_value()) {
    const Digest final_digest =
        merged.has_value() ? merged->ContentDigest() : ValueDigest("", 0);
    if (final_digest != *read.preliminary_digest) {
      metrics_.GetCounter("divergent_finals").Increment();
    } else {
      metrics_.GetCounter("matching_finals").Increment();
    }
  }
  SendReadResponse(read, kind == ResponseKind::kConfirmation ? std::nullopt : merged,
                   /*is_final=*/true, kind);
}

void KvReplica::SendReadResponse(const PendingRead& read,
                                 const std::optional<VersionedValue>& value, bool is_final,
                                 ResponseKind kind) {
  int64_t bytes = 0;
  OpResult result;
  if (kind == ResponseKind::kConfirmation) {
    bytes = kConfirmationBytes;
    // The client library substitutes the preliminary value; the wire carries no payload.
  } else {
    result = ToOpResult(value);
    bytes = result.WireBytes();
  }
  auto respond_fn = read.respond;
  network_->Send(id_, read.client_id, bytes,
                 [respond_fn, result = std::move(result), is_final, kind]() mutable {
                   respond_fn(std::move(result), is_final, kind);
                 });
}

std::optional<VersionedValue> KvReplica::MergedResult(const PendingRead& read) const {
  std::optional<VersionedValue> best = read.local;
  for (const auto& peer_value : read.peer_results) {
    if (peer_value.has_value() && (!best.has_value() || best->OlderThan(peer_value->version))) {
      best = peer_value;
    }
  }
  return best;
}

void KvReplica::IssueReadRepair(const PendingRead& read, const VersionedValue& freshest) {
  // Repair the coordinator's own copy synchronously (cheap local apply) and stale peers
  // asynchronously over the network.
  if (!read.local.has_value() || read.local->OlderThan(freshest.version)) {
    if (ApplyLww(read.key, freshest, /*log=*/true)) {
      metrics_.GetCounter("read_repairs").Increment();
    }
  }
  for (size_t i = 0; i < read.peer_results.size(); ++i) {
    const auto& peer_value = read.peer_results[i];
    const bool stale =
        peer_value.has_value() ? peer_value->OlderThan(freshest.version) : false;
    if (!stale) {
      continue;
    }
    KvReplica* peer = nullptr;
    for (KvReplica* candidate : peers_) {
      if (candidate->id() == read.peers_asked[i]) {
        peer = candidate;
        break;
      }
    }
    if (peer == nullptr) {
      continue;
    }
    const int64_t bytes = kRequestHeaderBytes + static_cast<int64_t>(read.key.size()) +
                          static_cast<int64_t>(freshest.value.size());
    metrics_.GetCounter("read_repairs").Increment();
    network_->Send(id_, peer->id(), bytes, [peer, key = read.key, freshest]() {
      peer->HandleReplicate(key, freshest);
    });
  }
}

OpResult KvReplica::ToMultiOpResult(const std::vector<std::optional<VersionedValue>>& values) {
  std::vector<OpResult> entries;
  entries.reserve(values.size());
  for (const auto& value : values) {
    entries.push_back(ToOpResult(value));
  }
  return BatchResult(std::move(entries));
}

Digest KvReplica::CombinedDigest(const std::vector<std::optional<VersionedValue>>& values) {
  Digest digest = 0xcbf29ce484222325ULL;
  for (const auto& value : values) {
    const Digest d = value.has_value() ? value->ContentDigest() : ValueDigest("", 0);
    digest ^= d + 0x9e3779b97f4a7c15ULL + (digest << 6) + (digest >> 2);
  }
  return digest;
}

void KvReplica::CoordinateMultiRead(NodeId client_id, std::vector<std::string> keys,
                                    const ReadOptions& options, KvResponseFn respond) {
  assert(options.read_quorum >= 1);
  if (crashed_) {
    return;
  }
  metrics_.GetCounter("multireads_coordinated").Increment();
  if (keys.empty()) {
    network_->Send(id_, client_id, kResponseHeaderBytes, [respond = std::move(respond)]() {
      respond(Status::InvalidArgument("multiread needs a non-empty key list"),
              /*is_final=*/true, ResponseKind::kValue);
    });
    return;
  }
  const uint64_t request_id = next_request_id_++;
  PendingMultiRead& read = pending_multi_reads_[request_id];
  read.client_id = client_id;
  read.keys = std::move(keys);
  read.options = options;
  read.respond = std::move(respond);
  const auto batch_extra = kMultireadPerKeyService * static_cast<SimDuration>(read.keys.size() - 1);

  if (options.read_quorum > 1) {
    const size_t peer_count =
        std::min(peers_.size(), static_cast<size_t>(options.read_quorum));
    for (size_t i = 0; i < peer_count; ++i) {
      KvReplica* peer = peers_[i];
      read.peers_asked.push_back(peer->id());
      read.peer_results.emplace_back();
      read.peer_answered.push_back(false);
      const size_t slot = read.peer_results.size() - 1;
      int64_t req_bytes = kRequestHeaderBytes;
      for (const auto& key : read.keys) {
        req_bytes += static_cast<int64_t>(key.size()) + 2;
      }
      network_->Send(id_, peer->id(), req_bytes,
                     [this, peer, request_keys = read.keys, request_id, slot]() mutable {
                       peer->HandlePeerMultiRead(
                           id_, std::move(request_keys), request_id,
                           [this, slot](uint64_t rid,
                                        std::vector<std::optional<VersionedValue>> values) {
                             auto it = pending_multi_reads_.find(rid);
                             if (it == pending_multi_reads_.end()) {
                               return;
                             }
                             PendingMultiRead& r = it->second;
                             if (!r.peer_answered[slot]) {
                               r.peer_answered[slot] = true;
                               r.peer_results[slot] = std::move(values);
                               r.responses++;
                               MaybeFinishMultiRead(rid);
                             }
                           });
                     });
    }
  }

  service_.Submit(kReadService + batch_extra, [this, request_id]() {
    auto it = pending_multi_reads_.find(request_id);
    if (it == pending_multi_reads_.end()) {
      return;
    }
    PendingMultiRead& r = it->second;
    r.local = LocalGetMany(r.keys);
    r.local_done = true;
    r.responses++;
    if (r.options.want_preliminary) {
      service_.Submit(config_->flush_service, [this, request_id]() {
        auto it2 = pending_multi_reads_.find(request_id);
        if (it2 == pending_multi_reads_.end()) {
          return;
        }
        PendingMultiRead& r2 = it2->second;
        if (r2.done || r2.preliminary_sent) {
          return;
        }
        r2.preliminary_sent = true;
        r2.preliminary_digest = CombinedDigest(r2.local);
        metrics_.GetCounter("preliminaries_sent").Increment();
        SendMultiReadResponse(r2, r2.local, /*is_final=*/false, ResponseKind::kValue);
        MaybeFinishMultiRead(request_id);
      });
    }
    MaybeFinishMultiRead(request_id);
  });

  PendingMultiRead& armed = pending_multi_reads_[request_id];
  armed.timeout_timer = loop_->Schedule(config_->read_timeout, [this, request_id]() {
    auto it = pending_multi_reads_.find(request_id);
    if (it == pending_multi_reads_.end()) {
      return;
    }
    PendingMultiRead& r = it->second;
    if (r.done) {
      return;
    }
    r.done = true;
    metrics_.GetCounter("read_timeouts").Increment();
    auto respond_fn = r.respond;
    network_->Send(id_, r.client_id, kResponseHeaderBytes, [respond_fn]() {
      respond_fn(Status::Timeout("multiread quorum not reached"), /*is_final=*/true,
                 ResponseKind::kValue);
    });
    pending_multi_reads_.erase(it);
  });
}

void KvReplica::MaybeFinishMultiRead(uint64_t request_id) {
  auto it = pending_multi_reads_.find(request_id);
  if (it == pending_multi_reads_.end()) {
    return;
  }
  PendingMultiRead& read = it->second;
  if (read.done || read.responses < read.options.read_quorum || !read.local_done) {
    return;
  }
  if (read.options.want_preliminary && !read.preliminary_sent) {
    return;
  }
  FinishMultiRead(read);
  loop_->Cancel(read.timeout_timer);
  pending_multi_reads_.erase(request_id);
}

std::vector<std::optional<VersionedValue>> KvReplica::MergedMultiResult(
    PendingMultiRead& read, std::vector<size_t>* peer_won) {
  std::vector<std::optional<VersionedValue>> merged = std::move(read.local);
  for (size_t i = 0; i < merged.size(); ++i) {
    bool won = false;
    for (size_t p = 0; p < read.peer_results.size(); ++p) {
      if (!read.peer_answered[p] || i >= read.peer_results[p].size()) {
        continue;
      }
      const auto& candidate = read.peer_results[p][i];
      if (candidate.has_value() &&
          (!merged[i].has_value() || merged[i]->OlderThan(candidate->version))) {
        merged[i] = candidate;
        won = true;
      }
    }
    if (won) {
      peer_won->push_back(i);
    }
  }
  return merged;
}

void KvReplica::FinishMultiRead(PendingMultiRead& read) {
  read.done = true;
  std::vector<size_t> peer_won;
  const auto merged = MergedMultiResult(read, &peer_won);

  // Per-key read repair of the coordinator's own copy only: ApplyLww brings each stale
  // local entry up to the merged state. Only a key a peer won can be stale here; for
  // every other key the merged value is the local copy read earlier, and LWW only moves
  // forward, so ApplyLww would change nothing. Stale peers are not repaired here, unlike
  // the single-key path (IssueReadRepair).
  for (const size_t i : peer_won) {
    if (ApplyLww(read.keys[i], *merged[i], /*log=*/true)) {
      metrics_.GetCounter("read_repairs").Increment();
    }
  }

  ResponseKind kind = ResponseKind::kValue;
  if (read.options.want_preliminary && read.preliminary_digest.has_value()) {
    const Digest final_digest = CombinedDigest(merged);
    const bool matches = final_digest == *read.preliminary_digest;
    if (read.options.confirmations && matches) {
      kind = ResponseKind::kConfirmation;
      metrics_.GetCounter("confirmations_sent").Increment();
    }
    metrics_.GetCounter(matches ? "matching_finals" : "divergent_finals").Increment();
  }
  SendMultiReadResponse(read, merged, /*is_final=*/true, kind);
}

void KvReplica::SendMultiReadResponse(const PendingMultiRead& read,
                                      const std::vector<std::optional<VersionedValue>>& values,
                                      bool is_final, ResponseKind kind) {
  int64_t bytes = 0;
  OpResult result;
  if (kind == ResponseKind::kConfirmation) {
    bytes = kConfirmationBytes;
  } else {
    result = ToMultiOpResult(values);
    bytes = result.WireBytes() + 8 * static_cast<int64_t>(values.size());
  }
  auto respond_fn = read.respond;
  network_->Send(id_, read.client_id, bytes,
                 [respond_fn, result = std::move(result), is_final, kind]() mutable {
                   respond_fn(std::move(result), is_final, kind);
                 });
}

void KvReplica::HandlePeerMultiRead(
    NodeId requester, std::vector<std::string> keys, uint64_t request_id,
    std::function<void(uint64_t, std::vector<std::optional<VersionedValue>>)> reply) {
  if (crashed_) {
    return;
  }
  const auto batch_extra = kMultireadPerKeyService * static_cast<SimDuration>(keys.size() - 1);
  service_.Submit(kPeerReadService + batch_extra,
                  [this, requester, keys = std::move(keys), request_id,
                   reply = std::move(reply)]() mutable {
                    std::vector<std::optional<VersionedValue>> values = LocalGetMany(keys);
                    int64_t bytes = kResponseHeaderBytes;
                    for (const auto& value : values) {
                      if (value.has_value()) {
                        bytes += static_cast<int64_t>(value->value.size()) + 8;
                      }
                    }
                    network_->Send(id_, requester, bytes,
                                   [reply = std::move(reply), request_id,
                                    values = std::move(values)]() mutable {
                                     reply(request_id, std::move(values));
                                   });
                  });
}

void KvReplica::CoordinateWrite(NodeId client_id, const std::string& key, std::string value,
                                KvResponseFn respond, SimTime timestamp) {
  if (crashed_) {
    return;
  }
  metrics_.GetCounter("writes_coordinated").Increment();
  service_.Submit(kWriteService, [this, client_id, key, value = std::move(value), timestamp,
                                  respond = std::move(respond)]() mutable {
    // Coordinator-assigned LWW timestamp; write_seq_ keeps it strictly monotonic even for
    // same-microsecond writes, and the writer id breaks cross-coordinator ties. A client
    // stamp overrides both fields: the stamp orders the writer's stream and the client id
    // breaks ties, making the version independent of which coordinator applied it.
    write_seq_ = std::max({static_cast<uint64_t>(loop_->Now()), write_seq_ + 1,
                           static_cast<uint64_t>(timestamp)});
    const Version version = timestamp != 0
                                ? Version{timestamp, client_id}
                                : Version{static_cast<SimTime>(write_seq_), id_};
    // The value's one buffer: the local store and every replication message share it.
    VersionedValue vv{ValueRef(value), version};

    const auto [stored, inserted] = storage_.TryEmplace(key);
    if (inserted || stored->OlderThan(version)) {
      *stored = vv;
    }

    // WAL-before-ack: a coordinated write is logged and fsynced before the client hears
    // about it — an acked write survives any kill -9 from here on. The fsync latency
    // (when configured) is charged as extra service time between append and ack; a crash
    // inside that window leaves a durable but *unacked* record — legal either way, since
    // the client saw no ack, and Recover()'s anti-entropy push re-replicates it so the
    // cluster still converges on one outcome. LWW apply may have rejected an older
    // version above, but the record is logged unconditionally: the ack promises
    // durability of the submission, and replay re-applies under the same LWW rule
    // (idempotent, zero duplication).
    const uint64_t lsn = wal_.Append(key, vv.value.view(), version);
    const SimDuration fsync = wal_.Sync();
    MaybeScheduleSnapshot();

    auto finish = [this, client_id, key, vv = std::move(vv), version, lsn,
                   respond = std::move(respond)]() {
      // W = 1: acknowledge after the local apply (+ fsync when configured).
      OpResult ack;
      ack.found = true;
      ack.version = version;
      network_->Send(id_, client_id, kResponseHeaderBytes, [respond, ack]() {
        respond(ack, /*is_final=*/true, ResponseKind::kValue);
      });

      // Asynchronous replication to the other replicas. The fan-out makes the record
      // cluster-visible: snapshots may cover it from here on.
      replicated_lsn_ = std::max(replicated_lsn_, lsn);
      for (KvReplica* peer : peers_) {
        const int64_t bytes = kRequestHeaderBytes + static_cast<int64_t>(key.size()) +
                              static_cast<int64_t>(vv.value.size());
        network_->Send(id_, peer->id(), bytes,
                       [peer, key, vv]() { peer->HandleReplicate(key, vv); });
      }
    };
    if (fsync > 0) {
      service_.Submit(fsync, std::move(finish));
    } else {
      finish();
    }
  });
}

void KvReplica::CoordinateMultiWrite(NodeId client_id, std::vector<std::string> keys,
                                     std::vector<std::string> values, KvResponseFn respond,
                                     std::vector<SimTime> timestamps) {
  if (crashed_) {
    return;
  }
  metrics_.GetCounter("multi_writes_coordinated").Increment();
  if (keys.empty() || keys.size() != values.size() ||
      (!timestamps.empty() && timestamps.size() != keys.size())) {
    network_->Send(id_, client_id, kResponseHeaderBytes, [respond = std::move(respond)]() {
      respond(Status::InvalidArgument("multiwrite needs matching non-empty key/value lists"),
              /*is_final=*/true, ResponseKind::kValue);
    });
    return;
  }
  const SimDuration service =
      kWriteService + static_cast<SimDuration>(keys.size() - 1) * kMultiwritePerKeyService;
  service_.Submit(service, [this, client_id, keys = std::move(keys),
                            values = std::move(values), timestamps = std::move(timestamps),
                            respond = std::move(respond)]() mutable {
    std::vector<OpResult> acked(keys.size());
    std::vector<VersionedValue> applied(keys.size());
    uint64_t cohort_lsn = 0;
    for (size_t i = 0; i < keys.size(); ++i) {
      const SimTime stamp = i < timestamps.size() ? timestamps[i] : 0;
      write_seq_ = std::max({static_cast<uint64_t>(loop_->Now()), write_seq_ + 1,
                             static_cast<uint64_t>(stamp)});
      const Version version = stamp != 0 ? Version{stamp, client_id}
                                         : Version{static_cast<SimTime>(write_seq_), id_};
      acked[i].found = true;
      acked[i].version = version;
      VersionedValue vv{ValueRef(values[i]), version};

      const auto [stored, inserted] = storage_.TryEmplace(keys[i]);
      if (inserted || stored->OlderThan(version)) {
        *stored = vv;
      }
      cohort_lsn = wal_.Append(keys[i], vv.value.view(), version);
      applied[i] = std::move(vv);
    }
    // Group commit: the whole cohort shares one fsync, then one ack covers it — either
    // every entry of an acked batch is durable or the crash predates the ack and the
    // client-side cohort fails as a unit (no torn batch slice).
    const SimDuration fsync = wal_.Sync();
    MaybeScheduleSnapshot();

    auto finish = [this, client_id, keys = std::move(keys), applied = std::move(applied),
                   ack = BatchResult(std::move(acked)), cohort_lsn,
                   respond = std::move(respond)]() {
      // The cohort's fan-out makes every record of the batch cluster-visible.
      replicated_lsn_ = std::max(replicated_lsn_, cohort_lsn);
      for (size_t i = 0; i < keys.size(); ++i) {
        for (KvReplica* peer : peers_) {
          const int64_t bytes = kRequestHeaderBytes + static_cast<int64_t>(keys[i].size()) +
                                static_cast<int64_t>(applied[i].value.size());
          network_->Send(id_, peer->id(), bytes, [peer, key = keys[i], vv = applied[i]]() {
            peer->HandleReplicate(key, vv);
          });
        }
      }
      network_->Send(id_, client_id, kResponseHeaderBytes, [respond, ack]() {
        respond(ack, /*is_final=*/true, ResponseKind::kValue);
      });
    };
    if (fsync > 0) {
      service_.Submit(fsync, std::move(finish));
    } else {
      finish();
    }
  });
}

void KvReplica::HandlePeerRead(NodeId requester, const std::string& key, uint64_t request_id,
                               std::function<void(uint64_t, std::optional<VersionedValue>)> reply) {
  if (crashed_) {
    return;
  }
  service_.Submit(kPeerReadService, [this, requester, key, request_id,
                                     reply = std::move(reply)]() mutable {
    auto value = LocalGet(key);
    const int64_t bytes =
        kResponseHeaderBytes +
        (value.has_value() ? static_cast<int64_t>(value->value.size()) : 0);
    network_->Send(id_, requester, bytes,
                   [reply = std::move(reply), request_id, value = std::move(value)]() mutable {
                     reply(request_id, std::move(value));
                   });
  });
}

void KvReplica::HandleReplicate(const std::string& key, VersionedValue incoming) {
  if (crashed_) {
    return;
  }
  service_.Submit(kReplicateService, [this, key, incoming = std::move(incoming)]() {
    if (ApplyLww(key, incoming, /*log=*/true)) {
      metrics_.GetCounter("replications_applied").Increment();
    }
  });
}

void KvReplica::HandlePing(NodeId requester, uint64_t probe_id,
                           std::function<void(uint64_t)> reply) {
  if (crashed_) {
    return;  // a dead process answers nothing — missed probes are the death signal
  }
  service_.Submit(kPingService,
                  [this, requester, probe_id, reply = std::move(reply)]() {
                    network_->Send(id_, requester, kResponseHeaderBytes,
                                   [reply, probe_id]() { reply(probe_id); });
                  });
}

void KvReplica::HandleBootstrap(
    NodeId requester,
    std::function<void(std::vector<std::pair<std::string, VersionedValue>>)> deliver) {
  if (crashed_) {
    return;
  }
  const SimDuration service =
      kPeerReadService + kBootstrapPerKeyService * static_cast<SimDuration>(storage_.size());
  service_.Submit(service, [this, requester, deliver = std::move(deliver)]() {
    std::vector<std::pair<std::string, VersionedValue>> dump(storage_.begin(),
                                                             storage_.end());
    int64_t bytes = kResponseHeaderBytes;
    for (const auto& [key, vv] : dump) {
      bytes += static_cast<int64_t>(key.size()) + static_cast<int64_t>(vv.value.size()) + 16;
    }
    metrics_.GetCounter("bootstraps_served").Increment();
    network_->Send(id_, requester, bytes,
                   [deliver, dump = std::move(dump)]() mutable { deliver(std::move(dump)); });
  });
}

bool KvReplica::ApplyLww(const std::string& key, const VersionedValue& incoming, bool log) {
  const auto [stored, inserted] = storage_.TryEmplace(key);
  if (!inserted && !stored->OlderThan(incoming.version)) {
    return false;
  }
  *stored = incoming;
  if (log) {
    // Lazy append: replicated/repaired state is logged but not fsynced — the unsynced
    // tail is recoverable from the peers that sent it, and it is what a torn-tail crash
    // tears. Only coordinated (acked) writes pay for a sync.
    const uint64_t lsn = wal_.Append(key, incoming.value.view(), incoming.version);
    // The value came from a cluster-visible source, so a snapshot may cover it at once.
    replicated_lsn_ = std::max(replicated_lsn_, lsn);
    MaybeScheduleSnapshot();
  }
  return true;
}

void KvReplica::MaybeScheduleSnapshot() {
  if (config_->snapshot_every <= 0 || snapshot_in_flight_) {
    return;
  }
  if (wal_.appended_records() - records_at_last_snapshot_ < config_->snapshot_every) {
    return;
  }
  snapshot_in_flight_ = true;
  const SimDuration service =
      kSnapshotBaseService + kSnapshotPerEntryService * static_cast<SimDuration>(storage_.size());
  // Background snapshot on the service queue: it competes with request work for the
  // replica's CPU, the cost of bounding replay time. Crash() cancels it via the queue's
  // generation, so no incarnation check is needed here.
  service_.Submit(service, [this]() {
    snapshot_in_flight_ = false;
    // Cover only cluster-visible records: a coordinated write between its append and
    // its replication fan-out must stay in the replayed tail, or a crash after the
    // snapshot would resurrect it on this replica alone with no record to re-push.
    snapshot_.Take(storage_, replicated_lsn_);
    records_at_last_snapshot_ = wal_.appended_records();
    wal_.TruncateThrough(snapshot_.covered_lsn());
    metrics_.GetCounter("snapshots_taken").Increment();
  });
}

void KvReplica::Crash() {
  assert(!crashed_);
  crashed_ = true;
  incarnation_ += 1;
  // Cancel armed timers before dropping the pending maps (tombstone hygiene).
  for (auto& [request_id, read] : pending_reads_) {
    loop_->Cancel(read.timeout_timer);
  }
  for (auto& [request_id, read] : pending_multi_reads_) {
    loop_->Cancel(read.timeout_timer);
  }
  if (bootstrap_timer_ != 0) {
    loop_->Cancel(bootstrap_timer_);
    bootstrap_timer_ = 0;
  }
  pending_reads_.clear();
  pending_multi_reads_.clear();
  storage_.clear();
  write_seq_ = 0;
  snapshot_in_flight_ = false;
  bootstrap_pending_ = false;
  service_.CancelPending();  // queued work dies with the process
  wal_.Crash();  // the device survives; the unsynced tail does not
  metrics_.GetCounter("crashes").Increment();
}

void KvReplica::Recover() {
  assert(crashed_);
  crashed_ = false;
  last_recovery_ = RecoveryStats{};
  uint64_t snapshot_lsn = 0;
  std::set<std::string> replayed_keys;
  if (snapshot_.Load(&storage_, &snapshot_lsn)) {
    last_recovery_.snapshot_entries = storage_.size();
  }
  const Wal::ReplayResult replay =
      wal_.Replay(snapshot_lsn, [this, &replayed_keys](const Wal::Record& record) {
        ApplyLww(record.key, VersionedValue{record.value, record.version}, /*log=*/false);
        replayed_keys.insert(record.key);
      });
  last_recovery_.wal_records_replayed = replay.records;
  last_recovery_.torn_tail = replay.torn_tail;
  records_at_last_snapshot_ = wal_.appended_records();
  // Restore the write clock past every stamp this replica may have issued or seen, so
  // post-recovery coordinator stamps never regress below pre-crash acks.
  for (const auto& [key, vv] : storage_) {
    write_seq_ = std::max(write_seq_, static_cast<uint64_t>(vv.version.timestamp));
  }
  metrics_.GetCounter("recoveries").Increment();
  // Anti-entropy push: a record can be durable (fsynced) yet unreplicated — the crash
  // landed between the fsync and the replication fan-out. Snapshots never cover such
  // records (they only reach replicated_lsn_), so the candidates are exactly the
  // replayed tail. Push those keys' post-replay values to every peer; LWW-merge makes
  // entries peers already hold no-ops, while values only this replica's disk knew
  // finally propagate. Charged like serving a bootstrap dump of the same size.
  if (!peers_.empty() && !replayed_keys.empty()) {
    const uint64_t inc = incarnation_;
    const uint64_t replayed_through = wal_.next_lsn() - 1;
    const SimDuration scan =
        kBootstrapPerKeyService * static_cast<SimDuration>(replayed_keys.size());
    service_.Submit(scan, [this, inc, replayed_through,
                           keys = std::move(replayed_keys)]() {
      if (inc != incarnation_ || crashed_) {
        return;
      }
      metrics_.GetCounter("recovery_pushes").Increment();
      for (KvReplica* peer : peers_) {
        for (const std::string& key : keys) {
          const VersionedValue* vv = storage_.Find(key);
          if (vv == nullptr) continue;
          const int64_t bytes = kRequestHeaderBytes + static_cast<int64_t>(key.size()) +
                                static_cast<int64_t>(vv->value.size());
          network_->Send(id_, peer->id(), bytes, [peer, key = key, vv = *vv]() {
            peer->HandleReplicate(key, vv);
          });
        }
      }
      // Everything replayed is now fanned out: snapshots may cover the whole tail.
      replicated_lsn_ = std::max(replicated_lsn_, replayed_through);
    });
  }
  // Anti-entropy bootstrap: writes coordinated elsewhere while this replica was down
  // never reached it (their replication messages were dropped at send). Runs on this
  // replica's own loop so all recovery traffic originates from its lane.
  if (!peers_.empty()) {
    bootstrap_pending_ = true;
    bootstrap_round_ = 0;
    const uint64_t inc = incarnation_;
    loop_->Schedule(Micros(1), [this, inc]() {
      if (inc == incarnation_ && bootstrap_pending_) {
        StartBootstrap(0);
      }
    });
  } else {
    last_recovery_.bootstrap_complete = true;
  }
}

void KvReplica::StartBootstrap(size_t attempt) {
  if (crashed_ || peers_.empty()) {
    return;
  }
  KvReplica* peer = peers_[attempt % peers_.size()];
  const uint64_t inc = incarnation_;
  metrics_.GetCounter("bootstrap_requests").Increment();
  network_->Send(id_, peer->id(), kRequestHeaderBytes, [this, peer, inc]() {
    peer->HandleBootstrap(
        id_, [this, inc](std::vector<std::pair<std::string, VersionedValue>> dump) {
          if (inc != incarnation_ || crashed_ || !bootstrap_pending_) {
            return;  // crashed again (or already bootstrapped) since asking
          }
          bootstrap_pending_ = false;
          if (bootstrap_timer_ != 0) {
            loop_->Cancel(bootstrap_timer_);
            bootstrap_timer_ = 0;
          }
          // Merging the dump is real work: charge it like a replication batch.
          const SimDuration service =
              kReplicateService + kBootstrapPerKeyService * static_cast<SimDuration>(dump.size());
          service_.Submit(service, [this, inc, dump = std::move(dump)]() {
            uint64_t merged = 0;
            for (const auto& [key, vv] : dump) {
              if (ApplyLww(key, vv, /*log=*/true)) {
                merged += 1;
              }
            }
            last_recovery_.bootstrap_keys_merged += merged;
            if (bootstrap_round_ == 0) {
              // The first dump races the replication horizon: a write acked during the
              // outage may still be in flight to the dump-serving peer. One more round
              // after the fan-out has settled catches whatever the first one missed.
              bootstrap_round_ = 1;
              bootstrap_pending_ = true;
              bootstrap_timer_ =
                  loop_->Schedule(kBootstrapSettleDelay, [this, inc]() {
                    bootstrap_timer_ = 0;
                    if (inc == incarnation_ && bootstrap_pending_) {
                      StartBootstrap(0);
                    }
                  });
            } else {
              last_recovery_.bootstrap_complete = true;
              metrics_.GetCounter("bootstraps_completed").Increment();
            }
          });
        });
  });
  // The chosen peer may be dead too (it never answers): retry against the next one.
  bootstrap_timer_ = loop_->Schedule(config_->read_timeout, [this, inc, attempt]() {
    if (inc != incarnation_ || !bootstrap_pending_) {
      return;
    }
    metrics_.GetCounter("bootstrap_retries").Increment();
    StartBootstrap(attempt + 1);
  });
}

std::optional<VersionedValue> KvReplica::LocalGet(const std::string& key) const {
  const VersionedValue* vv = storage_.Find(key);
  if (vv == nullptr) {
    return std::nullopt;
  }
  return *vv;
}

std::vector<std::optional<VersionedValue>> KvReplica::LocalGetMany(
    const std::vector<std::string>& keys) {
  found_.resize(keys.size());
  storage_.FindMany(keys, found_);
  std::vector<std::optional<VersionedValue>> values(keys.size());
  for (size_t i = 0; i < keys.size(); ++i) {
    if (found_[i] != nullptr) {
      values[i] = *found_[i];
    }
  }
  return values;
}

void KvReplica::LocalPut(const std::string& key, ValueRef value, Version version) {
  VersionedValue* stored = storage_.TryEmplace(key).first;
  *stored = VersionedValue{std::move(value), version};
  // Preloads are part of the durable dataset: log + sync so a crashed replica's
  // recovered state includes them without leaning on the bootstrap. They are applied
  // at every replica by construction, so they are cluster-visible immediately.
  replicated_lsn_ = std::max(replicated_lsn_, wal_.Append(key, stored->value.view(), version));
  wal_.Sync();
}

}  // namespace icg
