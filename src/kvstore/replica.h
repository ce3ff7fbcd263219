// A quorum-store replica (Cassandra-like), including the coordinator role.
//
// Any replica can coordinate client operations, exactly as in Cassandra:
//
//   Read:  the coordinator performs a local read and, in parallel, requests data from
//          peer replicas; it answers the client once `read_quorum` responses (including
//          its own) are merged under last-writer-wins. Stale peers are read-repaired
//          asynchronously.
//   Write: acknowledged after the local apply (W = 1, the paper's configuration), then
//          replicated to peers asynchronously.
//
// Correctable Cassandra (CC) behaviour (§5.2 of the paper) is triggered per request:
// when a read requests ICG, the coordinator *flushes a preliminary response* to the
// client right after its local read — paying `flush_service` extra coordinator time,
// which is the source of CC's throughput drop — and later sends the final response. With
// `confirmations` enabled (the *CC2 variant), a final matching the preliminary digest is
// replaced by a small confirmation message.
//
// Each replica keeps its LWW state in a KvStore (kv_store.h): entries in first-insertion
// order behind a flat hash index, so a local read probes one or two cache lines of index
// instead of walking a tree. A multiget's local read and its peer reads look their keys
// up in one KvStore::FindMany, which overlaps the cache misses of every key. Snapshots,
// bootstrap dumps and recovery all walk the store in that insertion order, which is a
// pure function of the replica's history, never of the hash function.
//
// Values travel by reference (ValueRef, versioned_value.h): an immutable, atomically
// counted buffer, compared by its bytes. A value becomes a buffer once, where it enters
// a replica — a coordinated write (one buffer shared by the local store and every
// replication message), a preload (one buffer for every replica), WAL replay and
// snapshot load — and becomes bytes again only at the edges: the client's OpResult, the
// WAL device and the snapshot image. Store entries, pending reads, peer replies, read
// repair, bootstrap dumps and the recovery push all share the buffer.
#ifndef ICG_KVSTORE_REPLICA_H_
#define ICG_KVSTORE_REPLICA_H_

#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "src/common/inline_function.h"
#include "src/common/metrics.h"
#include "src/common/status.h"
#include "src/correctables/binding.h"
#include "src/correctables/operation.h"
#include "src/kvstore/kv_store.h"
#include "src/kvstore/snapshot.h"
#include "src/kvstore/versioned_value.h"
#include "src/kvstore/wal.h"
#include "src/sim/network.h"
#include "src/sim/service_queue.h"

namespace icg {

// The replica's settable knobs. Its fixed service times are KvReplica constants.
struct KvConfig {
  SimDuration flush_service = Micros(60);  // CC preliminary flushing (extra)

  // Coordinator waits this long for quorum responses before failing the read.
  SimDuration read_timeout = Millis(2000);

  // --- Durability (per-replica WAL + snapshots) ---------------------------------------
  // The defaults keep the pre-durability event timeline bit-for-bit: appends are pure
  // in-memory bookkeeping (no events, no service time) and snapshots never trigger.
  // Crash/recovery tests and the failover bench opt into nonzero knobs.
  SimDuration wal_fsync_service = 0;  // fsync charged between WAL append and write ack
  bool wal_torn_tail = false;         // crash may leave a torn partial record (faults)
  int64_t snapshot_every = 0;         // snapshot every N appended records (0 = never)
};

// How a client read wants its responses delivered.
struct ReadOptions {
  int read_quorum = 1;
  bool want_preliminary = false;  // ICG: flush a weak view before coordinating
  bool want_final = true;         // false = weak-only read (R=1 local)
  bool confirmations = false;     // replace matching finals by confirmation messages
};

// Client-side completion for one view of a read/write. `kind` distinguishes full values
// from confirmations; the bool marks the final view.
// 96 inline bytes: fits the pipeline's per-level emission adapters inline.
using KvResponseFn =
    InlineFunction<void(StatusOr<OpResult>, bool is_final, ResponseKind kind), 96>;

class KvReplica {
 public:
  // Service times on the replica's single-server queue.
  static constexpr SimDuration kReadService = Micros(900);       // local coordinator read
  static constexpr SimDuration kPeerReadService = Micros(400);   // serving a quorum read
  static constexpr SimDuration kWriteService = Micros(500);      // write apply + fan-out
  static constexpr SimDuration kReplicateService = Micros(300);  // replicated write apply
  // Incremental cost per additional key in a batched (multiget) read.
  static constexpr SimDuration kMultireadPerKeyService = Micros(60);
  // Incremental cost per additional write in a batched (multiput) submission.
  static constexpr SimDuration kMultiwritePerKeyService = Micros(80);
  static constexpr SimDuration kSnapshotBaseService = Micros(400);    // taking a snapshot
  static constexpr SimDuration kSnapshotPerEntryService = Micros(2);  // plus per entry
  static constexpr SimDuration kPingService = Micros(20);             // heartbeat probe
  static constexpr SimDuration kBootstrapPerKeyService = Micros(5);   // anti-entropy, per entry
  // Writes acked while this replica was down may still be in flight to the bootstrap
  // peer when it serves the first dump (their fan-out raced the dump). A second round
  // after this delay — past the worst one-way replication latency — closes the race.
  static constexpr SimDuration kBootstrapSettleDelay = Millis(300);

  KvReplica(Network* network, NodeId id, const KvConfig* config, const std::string& name);

  // Wires up the peer set (all other replicas, excluding self). Must be called once
  // before use.
  void SetPeers(std::vector<KvReplica*> peers);

  NodeId id() const { return id_; }
  ServiceQueue& service_queue() { return service_; }
  MetricRegistry& metrics() { return metrics_; }

  // Re-resolves this replica's loop through Network::LoopFor after the node has been
  // placed on a LoopGroup lane (intra-world sharding): its timers and service queue move
  // to the placed loop so all of its activity runs on that lane's driving thread.
  // Legal whenever the replica is quiescent — before any traffic, after a drain, or on
  // a crashed replica (Crash() cancels everything in flight).
  void RebindLoop();

  // --- Crash & recovery ----------------------------------------------------------------
  // kill -9: wipes all volatile state (storage, pending reads, queued service work) and
  // truncates the WAL's unsynced tail, exactly as a process death would. The WAL and
  // snapshot devices survive. Callers normally pair this with Network::Crash(id) so new
  // messages stop reaching the node; messages already in flight still deliver and are
  // dropped by the entry-point guards here.
  void Crash();
  // Rebuilds state from the newest snapshot plus WAL replay strictly after it (LWW
  // apply, so replay is idempotent — zero duplication), restores the write clock, and
  // kicks off an asynchronous anti-entropy bootstrap from the nearest live peer to pick
  // up writes coordinated elsewhere while this replica was down. Pair with
  // Network::Restart(id) *before* calling so the bootstrap request can leave the node.
  void Recover();
  bool crashed() const { return crashed_; }
  uint64_t incarnation() const { return incarnation_; }

  struct RecoveryStats {
    uint64_t snapshot_entries = 0;       // entries loaded from the snapshot image
    uint64_t wal_records_replayed = 0;   // records applied past the snapshot
    bool torn_tail = false;              // replay ended at a torn record
    uint64_t bootstrap_keys_merged = 0;  // entries LWW-merged from the bootstrap peer
    bool bootstrap_complete = false;
  };
  const RecoveryStats& last_recovery() const { return last_recovery_; }

  // Durability observability.
  Wal* wal() { return &wal_; }
  SnapshotManager* snapshots() { return &snapshot_; }

  // --- Coordinator entry points (invoked at this node; client_id is the requester) ----
  void CoordinateRead(NodeId client_id, const std::string& key, const ReadOptions& options,
                      KvResponseFn respond);
  // Batched read of several keys in one request (Cassandra multiget): same quorum/ICG
  // semantics as CoordinateRead, applied to the whole batch. The result carries one
  // entry per key, in request order.
  void CoordinateMultiRead(NodeId client_id, std::vector<std::string> keys,
                           const ReadOptions& options, KvResponseFn respond);
  // `timestamp` != 0 is a client-assigned LWW stamp: the version becomes
  // {timestamp, client_id}, so a single writer's stamps order its writes regardless of
  // which coordinator applies them (live rebalancing moves keys between coordinators
  // mid-stream; apply-time stamping would let a backlogged old coordinator invert the
  // order). 0 keeps the legacy coordinator-assigned stamp.
  void CoordinateWrite(NodeId client_id, const std::string& key, std::string value,
                       KvResponseFn respond, SimTime timestamp = 0);
  // Batched write submission (cross-tick write batching): the entries apply locally in
  // vector order — writes to the same key keep their program order — each under its own
  // strictly increasing LWW version, then replicate asynchronously like single writes.
  // One acknowledgement covers the whole batch (W = 1 semantics): one entry per write,
  // carrying the version it was applied under. `timestamps` (when non-empty) carries the
  // per-entry client stamps, parallel to `keys`.
  void CoordinateMultiWrite(NodeId client_id, std::vector<std::string> keys,
                            std::vector<std::string> values, KvResponseFn respond,
                            std::vector<SimTime> timestamps = {});

  // --- Peer-internal handlers (invoked at this node by other replicas) ----------------
  void HandlePeerRead(NodeId requester, const std::string& key, uint64_t request_id,
                      std::function<void(uint64_t, std::optional<VersionedValue>)> reply);
  void HandlePeerMultiRead(
      NodeId requester, std::vector<std::string> keys, uint64_t request_id,
      std::function<void(uint64_t, std::vector<std::optional<VersionedValue>>)> reply);
  void HandleReplicate(const std::string& key, VersionedValue incoming);
  // Failure-detector probe: answers with `probe_id` after a small service charge. A
  // crashed replica never answers — missed probes are the detector's death signal.
  void HandlePing(NodeId requester, uint64_t probe_id, std::function<void(uint64_t)> reply);
  // Anti-entropy dump for a recovering peer: serves this replica's whole LWW store
  // (service time proportional to its size, bytes accounted on the wire).
  void HandleBootstrap(NodeId requester,
                       std::function<void(std::vector<std::pair<std::string, VersionedValue>>)>
                           deliver);

  // --- Direct local access (tests, dataset preloading) --------------------------------
  std::optional<VersionedValue> LocalGet(const std::string& key) const;
  void LocalPut(const std::string& key, ValueRef value, Version version);
  size_t LocalSize() const { return storage_.size(); }
  const KvStore& LocalStore() const { return storage_; }

 private:
  struct PendingRead {
    NodeId client_id = kInvalidNode;
    std::string key;
    ReadOptions options;
    KvResponseFn respond;
    std::optional<VersionedValue> local;   // coordinator's own read, once served
    std::vector<std::optional<VersionedValue>> peer_results;
    std::vector<NodeId> peers_asked;
    int responses = 0;  // local + peer responses received
    bool preliminary_sent = false;
    std::optional<Digest> preliminary_digest;
    bool done = false;
    TimerId timeout_timer = 0;
  };

  struct PendingMultiRead {
    NodeId client_id = kInvalidNode;
    std::vector<std::string> keys;
    ReadOptions options;
    KvResponseFn respond;
    bool local_done = false;
    std::vector<std::optional<VersionedValue>> local;
    std::vector<NodeId> peers_asked;
    std::vector<std::vector<std::optional<VersionedValue>>> peer_results;
    std::vector<bool> peer_answered;
    int responses = 0;
    bool preliminary_sent = false;
    std::optional<Digest> preliminary_digest;
    bool done = false;
    TimerId timeout_timer = 0;
  };

  void MaybeFinishRead(uint64_t request_id);
  void FinishRead(PendingRead& read);
  void SendReadResponse(const PendingRead& read, const std::optional<VersionedValue>& value,
                        bool is_final, ResponseKind kind);
  // LWW merge of all responses gathered so far.
  std::optional<VersionedValue> MergedResult(const PendingRead& read) const;
  void IssueReadRepair(const PendingRead& read, const VersionedValue& freshest);

  void MaybeFinishMultiRead(uint64_t request_id);
  void FinishMultiRead(PendingMultiRead& read);
  // Per-key LWW merge of all responses. Moves from read.local: the pending read is
  // erased right after its final response. Appends to `peer_won`, in key order, the
  // index of every key whose merged value came from a peer, i.e. is newer than the
  // coordinator's own copy: the only keys a read repair can change.
  static std::vector<std::optional<VersionedValue>> MergedMultiResult(
      PendingMultiRead& read, std::vector<size_t>* peer_won);
  void SendMultiReadResponse(const PendingMultiRead& read,
                             const std::vector<std::optional<VersionedValue>>& values,
                             bool is_final, ResponseKind kind);

  static OpResult ToOpResult(const std::optional<VersionedValue>& value);
  static OpResult ToMultiOpResult(const std::vector<std::optional<VersionedValue>>& values);
  static Digest CombinedDigest(const std::vector<std::optional<VersionedValue>>& values);

  // LocalGet of every key, in order, through one batched lookup (KvStore::FindMany).
  std::vector<std::optional<VersionedValue>> LocalGetMany(const std::vector<std::string>& keys);

  // LWW apply to local storage; returns true if the store changed. Appends the applied
  // record to the WAL when `log` says so (lazily — durability waits for the next Sync).
  bool ApplyLww(const std::string& key, const VersionedValue& incoming, bool log);
  // Snapshot cadence: once `snapshot_every` records accumulated past the last snapshot,
  // schedules a background snapshot on the service queue (cost scales with store size).
  void MaybeScheduleSnapshot();
  // One attempt of the post-recovery anti-entropy bootstrap; retries on the next peer
  // if the current one never answers (it may be dead too).
  void StartBootstrap(size_t attempt);

  Network* network_;
  EventLoop* loop_;
  NodeId id_;
  const KvConfig* config_;
  ServiceQueue service_;
  MetricRegistry metrics_;

  std::vector<KvReplica*> peers_;  // other replicas, nearest first
  // The LWW store: a dense entry vector in first-insertion order plus a flat hash index
  // (kv_store.h). Internal callers look a key up once through Find/TryEmplace and never
  // hold the returned pointer across another insert.
  KvStore storage_;
  // LocalGetMany's FindMany output, reused so that its lookups allocate nothing.
  std::vector<const VersionedValue*> found_;
  std::map<uint64_t, PendingRead> pending_reads_;
  std::map<uint64_t, PendingMultiRead> pending_multi_reads_;
  uint64_t next_request_id_ = 1;
  uint64_t write_seq_ = 0;  // disambiguates same-microsecond writes from this coordinator

  // --- Durability & crash state --------------------------------------------------------
  Wal wal_;  // survives Crash(), like the disk it models
  SnapshotManager snapshot_;
  bool crashed_ = false;
  uint64_t incarnation_ = 0;  // bumped per crash; stale async callbacks check and no-op
  bool snapshot_in_flight_ = false;
  int64_t records_at_last_snapshot_ = 0;
  // Highest WAL LSN whose record is cluster-visible: its replication fan-out was sent,
  // or the value arrived FROM the cluster (replication, repair, bootstrap, preload).
  // Snapshots only cover up to here, so the replayed tail after a crash is exactly the
  // set of records that might exist on this disk alone — the recovery push re-replicates
  // just that tail instead of the whole store.
  uint64_t replicated_lsn_ = 0;
  bool bootstrap_pending_ = false;
  int bootstrap_round_ = 0;  // 0 = first dump, 1 = post-settle-delay verification round
  TimerId bootstrap_timer_ = 0;
  RecoveryStats last_recovery_;
};

}  // namespace icg

#endif  // ICG_KVSTORE_REPLICA_H_
