#include "src/zab/server.h"

#include <algorithm>
#include <cassert>
#include <utility>

#include "src/common/logging.h"

namespace icg {

ZabServer::ZabServer(Network* network, NodeId id, const std::string& name)
    : network_(network), loop_(network->loop()), id_(id), service_(network->loop(), name) {}

void ZabServer::SetEnsemble(std::vector<ZabServer*> peers, ZabServer* leader) {
  peers_ = std::move(peers);
  leader_ = leader;
  assert(leader_ != nullptr);
}

void ZabServer::SubmitWrite(NodeId client_id, ZabOp op, bool icg, ZabResponseFn respond) {
  const uint64_t request_id = next_request_id_++;
  op.origin = id_;
  op.origin_request = request_id;
  pending_requests_[request_id] = PendingClientRequest{client_id, std::move(respond)};
  metrics_.GetCounter("writes_received").Increment();

  if (icg) {
    // CZK fast path: simulate on local state, leak the preliminary before coordination.
    service_.Submit(kLocalSimService, [this, op, client_id, request_id]() {
      auto it = pending_requests_.find(request_id);
      if (it == pending_requests_.end()) {
        return;
      }
      const OpResult preliminary = SimulateLocally(op);
      metrics_.GetCounter("preliminaries_sent").Increment();
      auto respond_fn = it->second.respond;
      network_->Send(id_, client_id, preliminary.WireBytes(), [respond_fn, preliminary]() {
        respond_fn(preliminary, /*is_final=*/false, ResponseKind::kValue);
      });
    });
  }

  if (is_leader()) {
    service_.Submit(kLeaderProposeService, [this, op]() { LeaderPropose(op); });
  } else {
    ZabServer* leader = leader_;
    network_->Send(id_, leader->id(), op.WireBytes(),
                   [leader, op]() { leader->HandleForward(op); });
  }
}

void ZabServer::HandleForward(ZabOp op) {
  assert(is_leader());
  service_.Submit(kLeaderProposeService, [this, op = std::move(op)]() {
    LeaderPropose(op);
  });
}

void ZabServer::LeaderPropose(ZabOp op) {
  const uint64_t zxid = next_zxid_++;
  proposals_[zxid] = PendingProposal{op, /*acks=*/1, /*quorum_reached=*/false};
  metrics_.GetCounter("proposals").Increment();
  for (ZabServer* peer : peers_) {
    network_->Send(id_, peer->id(), op.WireBytes() + 16,
                   [peer, zxid, op]() { peer->HandlePropose(zxid, op); });
  }
  LeaderMaybeCommit();  // a single-node ensemble reaches quorum immediately
}

void ZabServer::HandlePropose(uint64_t zxid, ZabOp op) {
  service_.Submit(kFollowerAckService, [this, zxid, op = std::move(op)]() {
    ZabServer* leader = leader_;
    const NodeId self = id_;
    network_->Send(id_, leader->id(), 32, [leader, zxid, self]() {
      leader->HandleAck(zxid, self);
    });
  });
}

void ZabServer::HandleAck(uint64_t zxid, NodeId follower) {
  (void)follower;
  auto it = proposals_.find(zxid);
  if (it == proposals_.end()) {
    return;
  }
  it->second.acks++;
  LeaderMaybeCommit();
}

void ZabServer::LeaderMaybeCommit() {
  // Zab commits strictly in zxid order: a proposal commits only once every earlier one
  // has, even if its quorum formed first.
  for (;;) {
    auto it = proposals_.find(last_committed_zxid_ + 1);
    if (it == proposals_.end() || it->second.acks < QuorumSize()) {
      return;
    }
    const uint64_t zxid = it->first;
    const ZabOp op = it->second.op;
    proposals_.erase(it);
    last_committed_zxid_ = zxid;
    metrics_.GetCounter("commits").Increment();
    for (ZabServer* peer : peers_) {
      network_->Send(id_, peer->id(), op.WireBytes() + 16,
                     [peer, zxid, op]() { peer->HandleCommit(zxid, op); });
    }
    uncommitted_[zxid] = op;
    ApplyInOrder();
  }
}

void ZabServer::HandleCommit(uint64_t zxid, ZabOp op) {
  uncommitted_[zxid] = std::move(op);
  ApplyInOrder();
}

void ZabServer::ApplyInOrder() {
  // Commits can arrive reordered by WAN jitter; apply only the contiguous prefix. The
  // FIFO service queue then executes the applies in submission (= zxid) order.
  for (;;) {
    auto it = uncommitted_.find(last_applied_zxid_ + 1);
    if (it == uncommitted_.end()) {
      return;
    }
    const uint64_t zxid = it->first;
    const ZabOp op = it->second;
    uncommitted_.erase(it);
    last_applied_zxid_ = zxid;
    service_.Submit(kCommitApplyService, [this, zxid, op]() { ApplyCommitted(zxid, op); });
  }
}

void ZabServer::ApplyCommitted(uint64_t zxid, const ZabOp& op) {
  (void)zxid;
  const ZabApplyResult result = Apply(op);
  metrics_.GetCounter("applies").Increment();
  if (op.origin != id_) {
    return;
  }
  auto it = pending_requests_.find(op.origin_request);
  if (it == pending_requests_.end()) {
    return;
  }
  RespondToClient(it->second, op, result);
  pending_requests_.erase(it);
}

void ZabServer::RespondToClient(const PendingClientRequest& request, const ZabOp& op,
                                const ZabApplyResult& result) {
  OpResult out;
  int64_t bytes = kResponseHeaderBytes;
  switch (op.type) {
    case ZabOpType::kEnqueue:
      // The response carries the assigned znode name (sequence number), not the payload.
      out.found = true;
      out.seqno = result.seq;
      bytes += 8;
      break;
    case ZabOpType::kDequeue:
      out.found = result.ok;
      out.value = result.data;
      out.seqno = result.seq;
      bytes += static_cast<int64_t>(result.data.size());
      break;
    case ZabOpType::kDelete:
      out.found = result.ok;  // false = conflict: someone else removed it first
      break;
  }
  auto respond_fn = request.respond;
  network_->Send(id_, request.client_id, bytes, [respond_fn, out]() {
    respond_fn(out, /*is_final=*/true, ResponseKind::kValue);
  });
}

ZabApplyResult ZabServer::Apply(const ZabOp& op) {
  QueueState& queue = queues_[op.queue];
  ZabApplyResult result;
  switch (op.type) {
    case ZabOpType::kEnqueue:
      result.seq = queue.Enqueue(op.data);
      result.ok = true;
      break;
    case ZabOpType::kDequeue: {
      auto entry = queue.Dequeue();
      result.ok = entry.has_value();
      if (entry.has_value()) {
        result.data = entry->data;
        result.seq = entry->seq;
      }
      break;
    }
    case ZabOpType::kDelete:
      result.ok = queue.Delete(op.seq);
      result.seq = op.seq;
      break;
  }
  // Resync the speculative cursors with the applied state: never promise an element that
  // is already consumed, never predict an already-assigned znode name.
  if (result.ok && op.type == ZabOpType::kDequeue) {
    auto& cursor = speculative_dequeue_cursor_[op.queue];
    cursor = std::max(cursor, result.seq + 1);
  }
  auto& next_name = speculative_enqueue_seq_[op.queue];
  next_name = std::max(next_name, queue.next_seq());
  return result;
}

OpResult ZabServer::SimulateLocally(const ZabOp& op) {
  QueueState& queue = queues_[op.queue];
  OpResult out;
  switch (op.type) {
    case ZabOpType::kEnqueue: {
      // Predicted znode name: the next name not yet promised (skips names promised to
      // this server's in-flight enqueues).
      auto& next_name = speculative_enqueue_seq_[op.queue];
      next_name = std::max(next_name, queue.next_seq());
      out.found = true;
      out.seqno = next_name++;
      break;
    }
    case ZabOpType::kDequeue: {
      // Promise the first element not yet promised to an earlier in-flight dequeue at
      // this server; advance the cursor so concurrent dequeues get successive elements.
      auto& cursor = speculative_dequeue_cursor_[op.queue];
      const auto& entries = queue.entries();
      auto it = std::lower_bound(entries.begin(), entries.end(), cursor,
                                 [](const QueueEntry& e, int64_t seq) { return e.seq < seq; });
      out.found = it != entries.end();
      if (out.found) {
        out.value = it->data;
        out.seqno = it->seq;
        cursor = it->seq + 1;
      }
      break;
    }
    case ZabOpType::kDelete: {
      const auto& entries = queue.entries();
      out.found = std::any_of(entries.begin(), entries.end(),
                              [&op](const QueueEntry& e) { return e.seq == op.seq; });
      out.seqno = op.seq;
      break;
    }
  }
  return out;
}

void ZabServer::ReadChildren(NodeId client_id, const std::string& queue,
                             std::function<void(std::vector<int64_t>)> respond) {
  service_.Submit(kLocalReadService,
                  [this, client_id, queue, respond = std::move(respond)]() {
                    std::vector<int64_t> children;
                    const QueueState& state = queues_[queue];
                    children.reserve(state.Size());
                    for (const QueueEntry& entry : state.entries()) {
                      children.push_back(entry.seq);
                    }
                    // The whole listing crosses the wire: this is the message-size
                    // inflation that makes the baseline ZK dequeue cost grow with queue
                    // length (Figure 10).
                    const int64_t bytes =
                        kResponseHeaderBytes +
                        kZnodeNameBytes * static_cast<int64_t>(children.size());
                    network_->Send(id_, client_id, bytes,
                                   [respond, children]() { respond(children); });
                  });
}

void ZabServer::ReadHead(NodeId client_id, const std::string& queue, ZabResponseFn respond) {
  service_.Submit(kLocalReadService,
                  [this, client_id, queue, respond = std::move(respond)]() {
                    OpResult out;
                    const auto head = queues_[queue].Head();
                    if (head.has_value()) {
                      out.found = true;
                      out.value = head->data;
                      out.seqno = head->seq;
                    }
                    network_->Send(id_, client_id, out.WireBytes(), [respond, out]() {
                      respond(out, /*is_final=*/true, ResponseKind::kValue);
                    });
                  });
}

void ZabServer::ReadData(NodeId client_id, const std::string& queue, int64_t seq,
                         ZabResponseFn respond) {
  service_.Submit(kLocalReadService,
                  [this, client_id, queue, seq, respond = std::move(respond)]() {
                    OpResult out;
                    for (const QueueEntry& entry : queues_[queue].entries()) {
                      if (entry.seq == seq) {
                        out.found = true;
                        out.value = entry.data;
                        out.seqno = entry.seq;
                        break;
                      }
                    }
                    network_->Send(id_, client_id, out.WireBytes(), [respond, out]() {
                      respond(out, /*is_final=*/true, ResponseKind::kValue);
                    });
                  });
}

}  // namespace icg
