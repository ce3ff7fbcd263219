#include "src/correctables/consistency.h"

#include <gtest/gtest.h>

#include "src/correctables/operation.h"

namespace icg {
namespace {

TEST(ConsistencyLevels, TotalOrderWeakestToStrongest) {
  EXPECT_TRUE(IsStronger(ConsistencyLevel::kWeak, ConsistencyLevel::kCache));
  EXPECT_TRUE(IsStronger(ConsistencyLevel::kCausal, ConsistencyLevel::kWeak));
  EXPECT_TRUE(IsStronger(ConsistencyLevel::kStrong, ConsistencyLevel::kCausal));
  EXPECT_FALSE(IsStronger(ConsistencyLevel::kWeak, ConsistencyLevel::kWeak));
  EXPECT_TRUE(IsStrongerOrEqual(ConsistencyLevel::kWeak, ConsistencyLevel::kWeak));
  EXPECT_FALSE(IsStrongerOrEqual(ConsistencyLevel::kCache, ConsistencyLevel::kStrong));
}

TEST(ConsistencyLevels, Names) {
  EXPECT_STREQ(ConsistencyLevelName(ConsistencyLevel::kCache), "CACHE");
  EXPECT_STREQ(ConsistencyLevelName(ConsistencyLevel::kWeak), "WEAK");
  EXPECT_STREQ(ConsistencyLevelName(ConsistencyLevel::kCausal), "CAUSAL");
  EXPECT_STREQ(ConsistencyLevelName(ConsistencyLevel::kStrong), "STRONG");
}

TEST(ValidLevelSelection, AcceptsAscendingSupportedSubsets) {
  const std::vector<ConsistencyLevel> supported = {ConsistencyLevel::kWeak,
                                                   ConsistencyLevel::kStrong};
  EXPECT_TRUE(ValidLevelSelection({ConsistencyLevel::kWeak}, supported));
  EXPECT_TRUE(ValidLevelSelection({ConsistencyLevel::kStrong}, supported));
  EXPECT_TRUE(
      ValidLevelSelection({ConsistencyLevel::kWeak, ConsistencyLevel::kStrong}, supported));
}

TEST(ValidLevelSelection, RejectsEmpty) {
  EXPECT_FALSE(ValidLevelSelection({}, {ConsistencyLevel::kWeak}));
}

TEST(ValidLevelSelection, RejectsDescendingOrDuplicate) {
  const std::vector<ConsistencyLevel> supported = {ConsistencyLevel::kWeak,
                                                   ConsistencyLevel::kStrong};
  EXPECT_FALSE(
      ValidLevelSelection({ConsistencyLevel::kStrong, ConsistencyLevel::kWeak}, supported));
  EXPECT_FALSE(
      ValidLevelSelection({ConsistencyLevel::kWeak, ConsistencyLevel::kWeak}, supported));
}

TEST(ValidLevelSelection, RejectsUnsupported) {
  EXPECT_FALSE(ValidLevelSelection({ConsistencyLevel::kCausal},
                                   {ConsistencyLevel::kWeak, ConsistencyLevel::kStrong}));
}

TEST(ValidLevelSelection, ThreeLevelBinding) {
  const std::vector<ConsistencyLevel> supported = {
      ConsistencyLevel::kCache, ConsistencyLevel::kWeak, ConsistencyLevel::kStrong};
  EXPECT_TRUE(ValidLevelSelection(LevelVec(supported.begin(), supported.end()), supported));
  EXPECT_TRUE(ValidLevelSelection({ConsistencyLevel::kCache, ConsistencyLevel::kStrong},
                                  supported));
}

TEST(LevelsToString, FormatsList) {
  EXPECT_EQ(LevelsToString({ConsistencyLevel::kWeak, ConsistencyLevel::kStrong}),
            "[WEAK, STRONG]");
  EXPECT_EQ(LevelsToString({}), "[]");
}

TEST(Operation, Factories) {
  const Operation get = Operation::Get("k");
  EXPECT_EQ(get.type, OpType::kGet);
  EXPECT_EQ(get.key, "k");
  EXPECT_TRUE(get.IsRead());
  EXPECT_FALSE(get.IsQueueOp());

  const Operation put = Operation::Put("k", "v");
  EXPECT_EQ(put.type, OpType::kPut);
  EXPECT_EQ(put.value, "v");
  EXPECT_FALSE(put.IsRead());

  const Operation enq = Operation::Enqueue("q", "e");
  EXPECT_EQ(enq.type, OpType::kEnqueue);
  EXPECT_TRUE(enq.IsQueueOp());

  const Operation deq = Operation::Dequeue("q");
  EXPECT_EQ(deq.type, OpType::kDequeue);
  EXPECT_TRUE(deq.IsQueueOp());

  const Operation peek = Operation::Peek("q");
  EXPECT_EQ(peek.type, OpType::kPeek);
  EXPECT_TRUE(peek.IsRead());

  const Operation multi = Operation::MultiGet({"a", "b"});
  EXPECT_EQ(multi.type, OpType::kMultiGet);
  EXPECT_EQ(multi.keys.size(), 2u);
  EXPECT_TRUE(multi.IsRead());
}

TEST(Operation, ToStringIsReadable) {
  EXPECT_EQ(Operation::Get("user1").ToString(), "GET(user1)");
  EXPECT_EQ(Operation::Put("k", "xyz").ToString(), "PUT(k, 3B)");
}

TEST(OpResultTest, WireBytesIncludeValue) {
  OpResult r;
  r.found = true;
  r.value = std::string(100, 'v');
  EXPECT_EQ(r.WireBytes(), kResponseHeaderBytes + 100);
}

TEST(OpResultTest, EqualityIsStructural) {
  OpResult a;
  a.found = true;
  a.value = "x";
  a.seqno = 3;
  OpResult b = a;
  EXPECT_EQ(a, b);
  b.seqno = 4;
  EXPECT_FALSE(a == b);
}

TEST(OpResultTest, ToStringVariants) {
  OpResult missing;
  EXPECT_EQ(missing.ToString(), "(not found)");
  OpResult queue_elem;
  queue_elem.found = true;
  queue_elem.value = "abc";
  queue_elem.seqno = 7;
  EXPECT_NE(queue_elem.ToString().find("seq=7"), std::string::npos);
}

}  // namespace
}  // namespace icg
