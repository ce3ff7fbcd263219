// IcgContractChecker fed hand-built callback sequences: a well-formed run passes, and
// every property it states can fail.
#include "src/harness/icg_contract.h"

#include <gtest/gtest.h>

#include <string>

#include "src/harness/deployment.h"

namespace icg {
namespace {

constexpr ConsistencyLevel kWeak = ConsistencyLevel::kWeak;
constexpr ConsistencyLevel kStrong = ConsistencyLevel::kStrong;

View<OpResult> ViewAt(ConsistencyLevel level, const std::string& value = "v",
                      Version version = {}) {
  View<OpResult> view;
  view.level = level;
  view.value.found = true;
  view.value.value = value;
  view.value.version = version;
  return view;
}

size_t AddIcgRead(IcgContractChecker& checker) {
  return checker.Add(OpKind::kIcgRead, "k", kWeak, kStrong);
}

// A write of `value` to "k", submitted and acked under `version`.
void AckedWrite(IcgContractChecker& checker, const std::string& value, Version version) {
  const size_t id = checker.Add(OpKind::kWrite, "k", kStrong, kStrong, value);
  checker.Submit(id);
  checker.OnFinal(id, ViewAt(kStrong, "", version));
}

// A three-replica Cassandra cluster whose every replica holds "k" = `value` at `version`.
struct Replicas {
  Replicas(const std::string& value, Version version)
      : world(1, 0.0), stack(MakeCassandraStack(world, KvConfig{}, CassandraBindingConfig{})) {
    for (const auto& replica : stack.cluster->replicas()) {
      replica->LocalPut("k", value, version);
    }
  }
  const KvCluster& cluster() const { return *stack.cluster; }

  SimWorld world;
  CassandraStack stack;
};

TEST(IcgContract, WellFormedRunIsClean) {
  IcgContractChecker checker;
  const size_t read = AddIcgRead(checker);
  checker.OnView(read, ViewAt(kWeak, "init"));
  checker.OnFinal(read, ViewAt(kStrong, "init"));
  AckedWrite(checker, "w1", Version{5, 1});
  AckedWrite(checker, "w2", Version{7, 1});
  checker.CheckClosed();
  checker.CheckAckOrder();
  checker.CheckReads("init");
  const Replicas replicas("w2", Version{7, 1});
  checker.CheckReplicas(replicas.cluster());
  EXPECT_EQ(checker.CheckNoAckedLoss(replicas.cluster()), 1);
  EXPECT_TRUE(checker.clean()) << ::testing::PrintToString(checker.messages());
  EXPECT_EQ(checker.closed(), 3);
  EXPECT_EQ(checker.finals(), 3);
  EXPECT_EQ(checker.errors(), 0);
  EXPECT_EQ(checker.Fingerprint(), "kR[13]e0=init#0.-1@0;kW[3]e0=#5.1@0;kW[3]e0=#7.1@0;");
}

TEST(IcgContract, FlagsALevelThatRegresses) {
  IcgContractChecker checker;
  const size_t id = AddIcgRead(checker);
  checker.OnView(id, ViewAt(kStrong));
  checker.OnFinal(id, ViewAt(kWeak));
  EXPECT_EQ(checker.count(Violation::kLevelRegressed), 1);
}

TEST(IcgContract, FlagsALevelOutsideTheRequest) {
  IcgContractChecker checker;
  const size_t id = checker.Add(OpKind::kWeakRead, "k", kWeak, kWeak);
  checker.OnFinal(id, ViewAt(kStrong));
  EXPECT_EQ(checker.count(Violation::kLevelOutOfRange), 1);
}

TEST(IcgContract, FlagsAViewAfterATerminal) {
  IcgContractChecker checker;
  const size_t id = AddIcgRead(checker);
  checker.OnFinal(id, ViewAt(kStrong));
  checker.OnView(id, ViewAt(kStrong));
  EXPECT_EQ(checker.count(Violation::kViewAfterTerminal), 1);
  EXPECT_FALSE(checker.clean());
}

TEST(IcgContract, FlagsTwoFinals) {
  IcgContractChecker checker;
  const size_t id = AddIcgRead(checker);
  checker.OnFinal(id, ViewAt(kStrong, "first"));
  checker.OnFinal(id, ViewAt(kStrong, "second"));
  EXPECT_EQ(checker.count(Violation::kExtraTerminal), 1);
  EXPECT_EQ(checker.invocations()[id].final_value.value, "first");
}

TEST(IcgContract, FlagsFinalThenErrorEvenWhenErrorsAreAllowed) {
  IcgContractChecker checker(AllowedErrors::kAny);
  const size_t id = AddIcgRead(checker);
  checker.OnFinal(id, ViewAt(kStrong));
  checker.OnError(id, Status::Timeout());
  EXPECT_EQ(checker.count(Violation::kExtraTerminal), 1);
  EXPECT_EQ(checker.count(Violation::kDisallowedError), 0);
}

TEST(IcgContract, FlagsAFinalBelowTheStrongestRequestedLevel) {
  IcgContractChecker checker;
  const size_t id = AddIcgRead(checker);
  checker.OnFinal(id, ViewAt(kWeak));
  EXPECT_EQ(checker.count(Violation::kFinalNotStrongest), 1);
  EXPECT_EQ(checker.count(Violation::kLevelOutOfRange), 0);
}

TEST(IcgContract, FlagsDisallowedErrorsUnderEachPolicy) {
  struct Case {
    AllowedErrors allowed;
    Status error;
    bool flagged;
  };
  const Case cases[] = {
      {AllowedErrors::kNone, Status::Overloaded("shed"), true},
      {AllowedErrors::kNone, Status::Timeout(), true},
      {AllowedErrors::kOverloadOnly, Status::Timeout(), true},
      {AllowedErrors::kOverloadOnly, Status::Overloaded("shed"), false},
      {AllowedErrors::kAny, Status::Unavailable("no quorum"), false},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.error.ToString() + " policy=" + std::to_string(static_cast<int>(c.allowed)));
    IcgContractChecker checker(c.allowed);
    const size_t id = AddIcgRead(checker);
    checker.OnView(id, ViewAt(kWeak));
    checker.OnError(id, c.error);
    checker.CheckClosed();
    EXPECT_EQ(checker.count(Violation::kDisallowedError), c.flagged ? 1 : 0);
    EXPECT_EQ(checker.clean(), !c.flagged);
  }
}

TEST(IcgContract, FlagsAnInvocationThatNeverCloses) {
  IcgContractChecker checker;
  const size_t n = IcgContractChecker::kMaxMessages + 5;
  for (size_t i = 0; i < n; ++i) {
    checker.OnView(AddIcgRead(checker), ViewAt(kWeak));
  }
  EXPECT_TRUE(checker.clean());  // still open is fine until the run ends
  checker.CheckClosed();
  EXPECT_EQ(checker.count(Violation::kNeverClosed), static_cast<int64_t>(n));
  // Every violation counts; only the first ones keep a message.
  ASSERT_EQ(checker.messages().size(), IcgContractChecker::kMaxMessages);
  EXPECT_NE(checker.messages()[0].find("never closed [key k] invocation 0"), std::string::npos);
}

TEST(IcgContract, FlagsAckVersionsThatRegressInProgramOrder) {
  IcgContractChecker checker;
  AckedWrite(checker, "w1", Version{9, 1});
  AckedWrite(checker, "w2", Version{4, 1});
  checker.CheckAckOrder();
  EXPECT_EQ(checker.count(Violation::kAckRegressed), 1);
}

TEST(IcgContract, FlagsALostAckedWrite) {
  for (const Version stored : {Version{1, 0}, Version{7, 1}}) {  // older, or reused
    IcgContractChecker checker;
    AckedWrite(checker, "w1", Version{7, 1});
    const Replicas replicas("other", stored);
    EXPECT_EQ(checker.CheckNoAckedLoss(replicas.cluster()), 1);
    EXPECT_EQ(checker.count(Violation::kAckedWriteLost), 1);  // once per key
    checker.CheckReplicas(replicas.cluster());
    EXPECT_EQ(checker.count(Violation::kAckedWriteLost), 2);
    EXPECT_EQ(checker.count(Violation::kReplicaDiverged), 3);  // each off the last write
  }
}

TEST(IcgContract, FlagsReplicasThatDisagree) {
  IcgContractChecker checker;
  const size_t write = checker.Add(OpKind::kWrite, "k", kStrong, kStrong, "w1");
  checker.Submit(write);
  checker.OnError(write, Status::Timeout());  // unacked: program order cannot decide
  Replicas replicas("init", Version{1, 0});
  replicas.stack.cluster->replicas()[0]->LocalPut("k", "w1", Version{7, 1});
  checker.CheckReplicas(replicas.cluster());
  EXPECT_EQ(checker.count(Violation::kReplicaDiverged), 2);  // both peers of replica 0
  EXPECT_EQ(checker.count(Violation::kAckedWriteLost), 0);
}

TEST(IcgContract, FlagsAReadOfAValueNeverWritten) {
  IcgContractChecker checker;
  AckedWrite(checker, "w1", Version{7, 1});
  checker.OnFinal(AddIcgRead(checker), ViewAt(kStrong, "w1"));
  checker.OnFinal(AddIcgRead(checker), ViewAt(kStrong, "phantom"));
  checker.CheckReads("init");
  EXPECT_EQ(checker.count(Violation::kUnwrittenRead), 1);
  EXPECT_TRUE(checker.Written("k", "w1"));
  EXPECT_FALSE(checker.Written("k", "phantom"));
}

TEST(IcgContract, AWithdrawnWriteLeavesProgramOrder) {
  IcgContractChecker checker(AllowedErrors::kOverloadOnly);
  const size_t shed = checker.Add(OpKind::kWrite, "k", kStrong, kStrong, "shed");
  checker.Submit(shed);
  checker.OnError(shed, Status::Overloaded("shed"));
  checker.Withdraw(shed);
  checker.OnFinal(AddIcgRead(checker), ViewAt(kStrong, "shed"));
  checker.CheckReads("init");
  EXPECT_EQ(checker.count(Violation::kUnwrittenRead), 1);
}

}  // namespace
}  // namespace icg
