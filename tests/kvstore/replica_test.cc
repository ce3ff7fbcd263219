// Quorum-store protocol tests: coordinator read/write paths, replication, read repair,
// ICG preliminary flushing, confirmations, multireads, and crash behaviour.
#include "src/kvstore/replica.h"

#include <gtest/gtest.h>

#include "src/kvstore/cluster.h"
#include "src/sim/network.h"
#include "src/sim/topology.h"

namespace icg {
namespace {

class ReplicaTest : public ::testing::Test {
 protected:
  ReplicaTest()
      : topology_(RttMatrix::Ec2Default()),
        network_(&loop_, &topology_, /*seed=*/1, /*jitter_sigma=*/0.0),
        cluster_(&network_, &topology_, &config_,
                 {Region::kFrankfurt, Region::kIreland, Region::kVirginia}) {
    client_ = cluster_.MakeClient(Region::kIreland, Region::kFrankfurt);
  }

  // Convenience synchronous-style helpers driving the loop to completion.
  StatusOr<OpResult> Read(const std::string& key, int quorum) {
    StatusOr<OpResult> out(Status::Internal("no response"));
    ReadOptions options;
    options.read_quorum = quorum;
    client_->Read(key, options,
                  [&](StatusOr<OpResult> r, bool is_final, ResponseKind) {
                    if (is_final) {
                      out = std::move(r);
                    }
                  });
    loop_.Run();
    return out;
  }

  StatusOr<OpResult> Write(const std::string& key, const std::string& value) {
    StatusOr<OpResult> out(Status::Internal("no response"));
    client_->Write(key, value,
                   [&](StatusOr<OpResult> r, bool, ResponseKind) { out = std::move(r); });
    loop_.Run();
    return out;
  }

  EventLoop loop_;
  Topology topology_;
  Network network_;
  KvConfig config_;
  KvCluster cluster_;
  std::unique_ptr<KvClient> client_;
};

TEST_F(ReplicaTest, ReadMissingKeyReturnsNotFound) {
  const auto result = Read("nope", 1);
  ASSERT_TRUE(result.ok());
  EXPECT_FALSE(result->found);
}

TEST_F(ReplicaTest, PreloadedValueReadableAtAllQuorums) {
  cluster_.Preload("k", "v");
  for (const int quorum : {1, 2, 3}) {
    const auto result = Read("k", quorum);
    ASSERT_TRUE(result.ok()) << "R=" << quorum;
    EXPECT_EQ(result->value, "v") << "R=" << quorum;
  }
}

TEST_F(ReplicaTest, WriteAcksWithVersion) {
  const auto ack = Write("k", "v1");
  ASSERT_TRUE(ack.ok());
  EXPECT_TRUE(ack->found);
  EXPECT_GT(ack->version.timestamp, 0);
  EXPECT_EQ(ack->version.writer, client_->coordinator_id());
}

TEST_F(ReplicaTest, WriteReplicatesToAllReplicasEventually) {
  Write("k", "v1");
  loop_.RunFor(Seconds(1));
  for (const auto& replica : cluster_.replicas()) {
    const auto local = replica->LocalGet("k");
    ASSERT_TRUE(local.has_value());
    EXPECT_EQ(local->value, "v1");
  }
}

TEST_F(ReplicaTest, LastWriterWinsAcrossCoordinators) {
  auto other_client = cluster_.MakeClient(Region::kVirginia, Region::kVirginia);
  Write("k", "first");
  bool done = false;
  other_client->Write("k", "second",
                      [&](StatusOr<OpResult>, bool, ResponseKind) { done = true; });
  loop_.Run();
  ASSERT_TRUE(done);
  loop_.RunFor(Seconds(1));  // replication settles
  for (const auto& replica : cluster_.replicas()) {
    EXPECT_EQ(replica->LocalGet("k")->value, "second");
  }
}

TEST_F(ReplicaTest, QuorumReadSeesFreshestReplica) {
  // Install a stale copy on the coordinator and a fresh one elsewhere.
  cluster_.Preload("k", "stale");
  cluster_.ReplicaIn(Region::kIreland)->LocalPut("k", "fresh", Version{999, 1});
  const auto weak = Read("k", 1);
  EXPECT_EQ(weak->value, "stale");  // local read at FRK
  const auto strong = Read("k", 2);
  EXPECT_EQ(strong->value, "fresh");  // quorum includes IRL
}

TEST_F(ReplicaTest, ReadRepairUpdatesCoordinator) {
  cluster_.Preload("k", "stale");
  cluster_.ReplicaIn(Region::kIreland)->LocalPut("k", "fresh", Version{999, 1});
  Read("k", 2);
  loop_.RunFor(Seconds(1));
  EXPECT_EQ(cluster_.ReplicaIn(Region::kFrankfurt)->LocalGet("k")->value, "fresh");
}

TEST_F(ReplicaTest, IcgReadDeliversPreliminaryBeforeFinal) {
  cluster_.Preload("k", "v");
  ReadOptions options;
  options.read_quorum = 2;
  options.want_preliminary = true;
  std::vector<bool> finality;
  client_->Read("k", options, [&](StatusOr<OpResult> r, bool is_final, ResponseKind) {
    ASSERT_TRUE(r.ok());
    finality.push_back(is_final);
  });
  loop_.Run();
  EXPECT_EQ(finality, (std::vector<bool>{false, true}));
}

TEST_F(ReplicaTest, IcgConfirmationWhenPreliminaryMatches) {
  cluster_.Preload("k", "v");
  ReadOptions options;
  options.read_quorum = 2;
  options.want_preliminary = true;
  options.confirmations = true;
  ResponseKind final_kind = ResponseKind::kValue;
  client_->Read("k", options, [&](StatusOr<OpResult>, bool is_final, ResponseKind kind) {
    if (is_final) {
      final_kind = kind;
    }
  });
  loop_.Run();
  EXPECT_EQ(final_kind, ResponseKind::kConfirmation);
  EXPECT_EQ(cluster_.ReplicaIn(Region::kFrankfurt)->metrics().Value("confirmations_sent"), 1);
}

TEST_F(ReplicaTest, IcgFullFinalWhenDiverged) {
  cluster_.Preload("k", "stale");
  cluster_.ReplicaIn(Region::kIreland)->LocalPut("k", "fresh", Version{999, 1});
  ReadOptions options;
  options.read_quorum = 2;
  options.want_preliminary = true;
  options.confirmations = true;
  ResponseKind final_kind = ResponseKind::kConfirmation;
  std::string final_value;
  client_->Read("k", options, [&](StatusOr<OpResult> r, bool is_final, ResponseKind kind) {
    if (is_final) {
      final_kind = kind;
      final_value = r->value;
    }
  });
  loop_.Run();
  EXPECT_EQ(final_kind, ResponseKind::kValue);
  EXPECT_EQ(final_value, "fresh");
  EXPECT_EQ(cluster_.ReplicaIn(Region::kFrankfurt)->metrics().Value("divergent_finals"), 1);
}

TEST_F(ReplicaTest, QuorumTimesOutWhenPeersCrashed) {
  cluster_.Preload("k", "v");
  network_.Crash(cluster_.ReplicaIn(Region::kIreland)->id());
  network_.Crash(cluster_.ReplicaIn(Region::kVirginia)->id());
  const auto result = Read("k", 2);
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kTimeout);
}

TEST_F(ReplicaTest, R2SurvivesOneCrash) {
  cluster_.Preload("k", "v");
  network_.Crash(cluster_.ReplicaIn(Region::kVirginia)->id());
  const auto result = Read("k", 2);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->value, "v");
}

TEST_F(ReplicaTest, WeakReadUnaffectedByRemoteCrashes) {
  cluster_.Preload("k", "v");
  network_.Crash(cluster_.ReplicaIn(Region::kIreland)->id());
  network_.Crash(cluster_.ReplicaIn(Region::kVirginia)->id());
  const auto result = Read("k", 1);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->value, "v");
}

TEST_F(ReplicaTest, MultiReadReturnsJoinedValues) {
  cluster_.Preload("a", "va");
  cluster_.Preload("b", "vb");
  StatusOr<OpResult> out(Status::Internal("none"));
  ReadOptions options;
  options.read_quorum = 2;
  client_->MultiRead({"a", "b"}, options,
                     [&](StatusOr<OpResult> r, bool is_final, ResponseKind) {
                       if (is_final) {
                         out = std::move(r);
                       }
                     });
  loop_.Run();
  ASSERT_TRUE(out.ok());
  EXPECT_TRUE(out->found);
  EXPECT_EQ(out->seqno, 2);  // both found
  ASSERT_EQ(out->entries.size(), 2u);
  EXPECT_EQ(out->entries[0].value, "va");
  EXPECT_EQ(out->entries[1].value, "vb");
}

TEST_F(ReplicaTest, MultiReadMissingKeyClearsFound) {
  cluster_.Preload("a", "va");
  StatusOr<OpResult> out(Status::Internal("none"));
  ReadOptions options;
  options.read_quorum = 1;
  client_->MultiRead({"a", "missing"}, options,
                     [&](StatusOr<OpResult> r, bool is_final, ResponseKind) {
                       if (is_final) {
                         out = std::move(r);
                       }
                     });
  loop_.Run();
  ASSERT_TRUE(out.ok());
  EXPECT_FALSE(out->found);
  EXPECT_EQ(out->seqno, 1);
}

TEST_F(ReplicaTest, MultiReadMergesPerKeyAcrossReplicas) {
  cluster_.Preload("a", "stale-a");
  cluster_.Preload("b", "stale-b");
  cluster_.ReplicaIn(Region::kIreland)->LocalPut("a", "fresh-a", Version{999, 1});
  cluster_.ReplicaIn(Region::kVirginia)->LocalPut("b", "fresh-b", Version{999, 2});
  StatusOr<OpResult> out(Status::Internal("none"));
  ReadOptions options;
  options.read_quorum = 3;
  client_->MultiRead({"a", "b"}, options,
                     [&](StatusOr<OpResult> r, bool is_final, ResponseKind) {
                       if (is_final) {
                         out = std::move(r);
                       }
                     });
  loop_.Run();
  ASSERT_TRUE(out.ok());
  ASSERT_EQ(out->entries.size(), 2u);
  EXPECT_EQ(out->entries[0].value, "fresh-a");
  EXPECT_EQ(out->entries[1].value, "fresh-b");
}

TEST_F(ReplicaTest, MultiReadRepairsOnlyStaleKeys) {
  cluster_.Preload("a", "stale-a");
  cluster_.Preload("b", "stale-b");
  cluster_.Preload("c", "same-c");
  cluster_.ReplicaIn(Region::kIreland)->LocalPut("a", "fresh-a", Version{999, 1});
  cluster_.ReplicaIn(Region::kVirginia)->LocalPut("b", "fresh-b", Version{999, 2});
  KvReplica* frk = cluster_.ReplicaIn(Region::kFrankfurt);
  const int64_t repairs_before = frk->metrics().Value("read_repairs");
  const int64_t records_before = frk->wal()->appended_records();
  StatusOr<OpResult> out(Status::Internal("none"));
  ReadOptions options;
  options.read_quorum = 3;
  client_->MultiRead({"a", "b", "c", "absent"}, options,
                     [&](StatusOr<OpResult> r, bool is_final, ResponseKind) {
                       if (is_final) {
                         out = std::move(r);
                       }
                     });
  loop_.Run();
  ASSERT_TRUE(out.ok());
  ASSERT_EQ(out->entries.size(), 4u);
  EXPECT_EQ(frk->LocalGet("a")->value, "fresh-a");
  EXPECT_EQ(frk->LocalGet("b")->value, "fresh-b");
  EXPECT_EQ(frk->LocalGet("c")->value, "same-c");
  EXPECT_FALSE(frk->LocalGet("absent").has_value());
  // Exactly the two keys a peer won were repaired, and each repair logged one record.
  EXPECT_EQ(frk->metrics().Value("read_repairs") - repairs_before, 2);
  EXPECT_EQ(frk->wal()->appended_records() - records_before, 2);
}

TEST_F(ReplicaTest, EmptyMultiReadIsRejected) {
  int finals = 0;
  StatusOr<OpResult> out(Status::Internal("none"));
  ReadOptions options;
  options.read_quorum = 2;
  client_->MultiRead({}, options, [&](StatusOr<OpResult> r, bool is_final, ResponseKind) {
    if (is_final) {
      finals++;
      out = std::move(r);
    }
  });
  loop_.Run();
  EXPECT_EQ(finals, 1);
  ASSERT_FALSE(out.ok());
  EXPECT_EQ(out.status().code(), StatusCode::kInvalidArgument);
  for (const auto& replica : cluster_.replicas()) {
    EXPECT_EQ(replica->service_queue().submitted(), 0) << replica->id();
  }
}

TEST_F(ReplicaTest, PreloadAndReplicationShareOneBuffer) {
  cluster_.Preload("k", "preloaded");
  const char* preloaded = cluster_.replicas().front()->LocalStore().Find("k")->value.data();
  for (const auto& replica : cluster_.replicas()) {
    EXPECT_EQ(replica->LocalStore().Find("k")->value.data(), preloaded) << replica->id();
  }

  ASSERT_TRUE(Write("w", "written").ok());  // runs the loop until replication lands
  const char* written =
      cluster_.ReplicaIn(Region::kFrankfurt)->LocalStore().Find("w")->value.data();
  for (const auto& replica : cluster_.replicas()) {
    const VersionedValue* stored = replica->LocalStore().Find("w");
    ASSERT_NE(stored, nullptr) << replica->id();
    EXPECT_EQ(stored->value.data(), written) << replica->id();
    EXPECT_EQ(stored->value, "written");
  }
}

TEST_F(ReplicaTest, MultiReadIcgConfirmation) {
  cluster_.Preload("a", "va");
  cluster_.Preload("b", "vb");
  ReadOptions options;
  options.read_quorum = 2;
  options.want_preliminary = true;
  options.confirmations = true;
  std::vector<ResponseKind> kinds;
  client_->MultiRead({"a", "b"}, options,
                     [&](StatusOr<OpResult>, bool, ResponseKind kind) {
                       kinds.push_back(kind);
                     });
  loop_.Run();
  ASSERT_EQ(kinds.size(), 2u);
  EXPECT_EQ(kinds[0], ResponseKind::kValue);
  EXPECT_EQ(kinds[1], ResponseKind::kConfirmation);
}

TEST_F(ReplicaTest, ConcurrentReadsIndependent) {
  cluster_.Preload("a", "va");
  cluster_.Preload("b", "vb");
  std::string got_a;
  std::string got_b;
  ReadOptions options;
  options.read_quorum = 2;
  client_->Read("a", options, [&](StatusOr<OpResult> r, bool is_final, ResponseKind) {
    if (is_final) {
      got_a = r->value;
    }
  });
  client_->Read("b", options, [&](StatusOr<OpResult> r, bool is_final, ResponseKind) {
    if (is_final) {
      got_b = r->value;
    }
  });
  loop_.Run();
  EXPECT_EQ(got_a, "va");
  EXPECT_EQ(got_b, "vb");
}

TEST_F(ReplicaTest, CoordinatorMetricsCount) {
  cluster_.Preload("k", "v");
  Read("k", 2);
  Write("k", "v2");
  auto& metrics = cluster_.ReplicaIn(Region::kFrankfurt)->metrics();
  EXPECT_EQ(metrics.Value("reads_coordinated"), 1);
  EXPECT_EQ(metrics.Value("writes_coordinated"), 1);
}

// --- Crash & recovery (WAL + snapshot durability) --------------------------------------

TEST_F(ReplicaTest, CrashWipesVolatileStateAndDropsNewTraffic) {
  Write("k", "v1");
  KvReplica* frk = cluster_.ReplicaIn(Region::kFrankfurt);
  EXPECT_EQ(frk->incarnation(), 0u);
  network_.Crash(frk->id());
  frk->Crash();
  EXPECT_TRUE(frk->crashed());
  EXPECT_EQ(frk->incarnation(), 1u);
  EXPECT_EQ(frk->LocalSize(), 0u);
  EXPECT_FALSE(frk->LocalGet("k").has_value());
  // A write aimed at the corpse vanishes: no response, no state, no crash.
  bool responded = false;
  client_->Write("k", "v2",
                 [&](StatusOr<OpResult>, bool, ResponseKind) { responded = true; });
  loop_.Run();
  EXPECT_FALSE(responded);
  EXPECT_EQ(frk->LocalSize(), 0u);
}

TEST_F(ReplicaTest, RecoverRestoresAckedWriteFromWalAfterTotalClusterCrash) {
  // Every replica dies, so nothing survives in volatile state or in-flight replication:
  // the acked write must come back from the coordinator's synced WAL alone.
  const auto ack = Write("k", "v1");
  ASSERT_TRUE(ack.ok());
  for (const auto& replica : cluster_.replicas()) {
    network_.Crash(replica->id());
    replica->Crash();
  }
  for (const auto& replica : cluster_.replicas()) {
    network_.Restart(replica->id());
    replica->Recover();
  }
  loop_.RunFor(Seconds(2));  // anti-entropy bootstraps settle
  KvReplica* frk = cluster_.ReplicaIn(Region::kFrankfurt);
  const auto local = frk->LocalGet("k");
  ASSERT_TRUE(local.has_value());
  EXPECT_EQ(local->value, "v1");
  // Exactly the acked version: replay neither lost the write nor duplicated it under a
  // fresh stamp.
  EXPECT_EQ(local->version, ack->version);
  EXPECT_EQ(frk->last_recovery().wal_records_replayed, 1u);
  EXPECT_TRUE(frk->last_recovery().bootstrap_complete);
}

TEST_F(ReplicaTest, CrashBeforeAckLosesNothingAcknowledged) {
  // The client's write dies with the coordinator before any ack: after recovery the
  // store must NOT contain it (it was never acknowledged, losing it is correct — and
  // resurrecting half of a dead in-flight op would be wrong).
  KvReplica* frk = cluster_.ReplicaIn(Region::kFrankfurt);
  bool responded = false;
  client_->Write("k", "v1",
                 [&](StatusOr<OpResult>, bool, ResponseKind) { responded = true; });
  // Crash before the loop runs: the request is still on the wire (sent pre-crash, so it
  // delivers) and the entry guard drops it.
  network_.Crash(frk->id());
  frk->Crash();
  loop_.Run();
  EXPECT_FALSE(responded);
  network_.Restart(frk->id());
  frk->Recover();
  loop_.RunFor(Seconds(2));
  EXPECT_FALSE(frk->LocalGet("k").has_value());
  EXPECT_EQ(frk->last_recovery().wal_records_replayed, 0u);
}

TEST_F(ReplicaTest, RecoveredReplicaCatchesUpViaBootstrap) {
  KvReplica* irl = cluster_.ReplicaIn(Region::kIreland);
  Write("k1", "v1");
  network_.Crash(irl->id());
  irl->Crash();
  Write("k2", "v2");  // replication toward the corpse is dropped at send
  network_.Restart(irl->id());
  irl->Recover();
  loop_.RunFor(Seconds(2));
  // IRL never logged k2 (it was down) and its lazy replicated copy of k1 was unsynced;
  // both arrive through the anti-entropy dump from the nearest live peer.
  ASSERT_TRUE(irl->LocalGet("k1").has_value());
  ASSERT_TRUE(irl->LocalGet("k2").has_value());
  EXPECT_EQ(irl->LocalGet("k2")->value, "v2");
  EXPECT_TRUE(irl->last_recovery().bootstrap_complete);
  EXPECT_GE(irl->last_recovery().bootstrap_keys_merged, 2u);
  EXPECT_GE(cluster_.ReplicaIn(Region::kFrankfurt)->metrics().Value("bootstraps_served"), 1);
}

TEST_F(ReplicaTest, SnapshotPlusWalTailRebuildsExactState) {
  config_.snapshot_every = 2;
  for (int i = 0; i < 5; ++i) {
    Write("k" + std::to_string(i), "v" + std::to_string(i));
  }
  loop_.RunFor(Seconds(1));  // background snapshots land
  KvReplica* frk = cluster_.ReplicaIn(Region::kFrankfurt);
  ASSERT_NE(frk->snapshots(), nullptr);
  EXPECT_TRUE(frk->snapshots()->HasSnapshot());
  EXPECT_GT(frk->wal()->truncated_through(), 0u);  // covered prefix truncated
  for (const auto& replica : cluster_.replicas()) {
    network_.Crash(replica->id());
    replica->Crash();
  }
  for (const auto& replica : cluster_.replicas()) {
    network_.Restart(replica->id());
    replica->Recover();
  }
  loop_.RunFor(Seconds(2));
  for (int i = 0; i < 5; ++i) {
    const auto local = frk->LocalGet("k" + std::to_string(i));
    ASSERT_TRUE(local.has_value()) << "k" << i;
    EXPECT_EQ(local->value, "v" + std::to_string(i));
  }
  EXPECT_GT(frk->last_recovery().snapshot_entries, 0u);
  EXPECT_LT(frk->last_recovery().wal_records_replayed, 5u);  // snapshot bounded replay
}

TEST_F(ReplicaTest, WriteVersionsStayMonotoneAcrossRecovery) {
  const auto first = Write("k", "v1");
  ASSERT_TRUE(first.ok());
  KvReplica* frk = cluster_.ReplicaIn(Region::kFrankfurt);
  network_.Crash(frk->id());
  frk->Crash();
  network_.Restart(frk->id());
  frk->Recover();
  loop_.RunFor(Seconds(1));
  const auto second = Write("k", "v2");
  ASSERT_TRUE(second.ok());
  // The restored write clock keeps LWW stamps advancing: the post-recovery write wins.
  EXPECT_TRUE(first->version < second->version);
  EXPECT_EQ(frk->LocalGet("k")->value, "v2");
}

TEST_F(ReplicaTest, MultiWriteGroupCommitSurvivesTotalCrashAtomically) {
  // One cohort, one fsync: either the whole batch is durable or none of it. After the
  // ack the whole batch must replay.
  StatusOr<OpResult> ack(Status::Internal("none"));
  client_->MultiWrite({"a", "b", "c"}, {"1", "2", "3"},
                      [&](StatusOr<OpResult> r, bool, ResponseKind) { ack = std::move(r); });
  loop_.Run();
  ASSERT_TRUE(ack.ok());
  for (const auto& replica : cluster_.replicas()) {
    network_.Crash(replica->id());
    replica->Crash();
  }
  for (const auto& replica : cluster_.replicas()) {
    network_.Restart(replica->id());
    replica->Recover();
  }
  loop_.RunFor(Seconds(2));
  KvReplica* frk = cluster_.ReplicaIn(Region::kFrankfurt);
  EXPECT_EQ(frk->last_recovery().wal_records_replayed, 3u);
  EXPECT_EQ(frk->LocalGet("a")->value, "1");
  EXPECT_EQ(frk->LocalGet("b")->value, "2");
  EXPECT_EQ(frk->LocalGet("c")->value, "3");
}

// --- Store order: first insertion, the same for the same history ------------------------

// A three-replica deployment fed a fixed history: a preload, then Frankfurt-coordinated
// writes that overwrite two preloaded keys and add two new ones. Keys arrive out of key
// order, so first-insertion order differs from key order.
struct OrderedHistoryWorld {
  OrderedHistoryWorld()
      : topology(RttMatrix::Ec2Default()),
        network(&loop, &topology, /*seed=*/1, /*jitter_sigma=*/0.0),
        cluster(&network, &topology, &config,
                {Region::kFrankfurt, Region::kIreland, Region::kVirginia}) {
    config.snapshot_every = 4;  // one snapshot mid-history, then a WAL tail
    auto client = cluster.MakeClient(Region::kIreland, Region::kFrankfurt);
    for (const std::string key : {"k7", "k2", "k9", "k4"}) {
      cluster.Preload(key, "p-" + key);
    }
    for (const auto& [key, value] : std::vector<std::pair<std::string, std::string>>{
             {"k2", "w1"}, {"k0", "w2"}, {"k9", "w3"}, {"k5", "w4"}}) {
      client->Write(key, value, [](StatusOr<OpResult>, bool, ResponseKind) {});
      loop.Run();
    }
  }

  std::vector<std::pair<std::string, VersionedValue>> BootstrapDump(Region from, Region to) {
    std::vector<std::pair<std::string, VersionedValue>> dump;
    cluster.ReplicaIn(from)->HandleBootstrap(
        cluster.ReplicaIn(to)->id(),
        [&dump](std::vector<std::pair<std::string, VersionedValue>> d) { dump = std::move(d); });
    loop.Run();
    return dump;
  }

  EventLoop loop;
  Topology topology;
  Network network;
  KvConfig config;
  KvCluster cluster;
};

const std::vector<std::string> kFirstInsertionOrder = {"k7", "k2", "k9", "k4", "k0", "k5"};

// Keys of a bootstrap dump or a store, in listing order.
template <typename Entries>
std::vector<std::string> KeysOf(const Entries& entries) {
  std::vector<std::string> keys;
  for (const auto& [key, vv] : entries) {
    keys.push_back(key);
  }
  return keys;
}

TEST(StoreOrderTest, SameHistoryServesIdenticalDumpsInFirstInsertionOrder) {
  OrderedHistoryWorld a;
  OrderedHistoryWorld b;
  const auto dump_a = a.BootstrapDump(Region::kFrankfurt, Region::kIreland);
  EXPECT_EQ(dump_a, b.BootstrapDump(Region::kFrankfurt, Region::kIreland));
  EXPECT_EQ(KeysOf(dump_a), kFirstInsertionOrder);
  EXPECT_EQ(dump_a[1].second.value, "w1");  // an overwrite keeps the key's place
  // A peer that saw the same preload and the same writes (replicated over a FIFO link)
  // serves the same dump.
  EXPECT_EQ(a.BootstrapDump(Region::kIreland, Region::kFrankfurt), dump_a);
}

TEST(StoreOrderTest, SnapshotPlusWalRecoveryRebuildsTheSameOrderedStore) {
  OrderedHistoryWorld a;
  OrderedHistoryWorld b;
  for (OrderedHistoryWorld* world : {&a, &b}) {
    KvReplica* frk = world->cluster.ReplicaIn(Region::kFrankfurt);
    const KvStore before = frk->LocalStore();
    world->network.Crash(frk->id());
    frk->Crash();
    world->network.Restart(frk->id());
    frk->Recover();  // snapshot load + WAL replay run here; the bootstrap runs later
    EXPECT_GT(frk->last_recovery().snapshot_entries, 0u);
    EXPECT_GT(frk->last_recovery().wal_records_replayed, 0u);
    EXPECT_EQ(frk->LocalStore(), before);
    EXPECT_EQ(KeysOf(frk->LocalStore()), kFirstInsertionOrder);
  }
  EXPECT_EQ(a.cluster.ReplicaIn(Region::kFrankfurt)->LocalStore(),
            b.cluster.ReplicaIn(Region::kFrankfurt)->LocalStore());
}

}  // namespace
}  // namespace icg
