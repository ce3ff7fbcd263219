// ValueRef: shared immutable buffers, equality by bytes, the empty and moved-from
// handles, control bytes, and the atomic count under copies from several threads (the
// TSan job runs this suite's ValueRefTest cases).
#include "src/kvstore/versioned_value.h"

#include <gtest/gtest.h>

#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

namespace icg {
namespace {

TEST(ValueRefTest, CopiesShareOneBufferAndCompareByBytes) {
  const ValueRef a("payload");
  const ValueRef b = a;
  EXPECT_EQ(a.data(), b.data());
  EXPECT_EQ(a.use_count(), 2);

  const ValueRef c(std::string("payload"));
  EXPECT_NE(c.data(), a.data());
  EXPECT_EQ(c, a);  // separate buffers, equal bytes
  EXPECT_EQ(a, "payload");
  EXPECT_EQ(a, std::string("payload"));
  EXPECT_EQ(a, std::string_view("payload"));
  EXPECT_NE(a, ValueRef("payload2"));
  EXPECT_NE(a, "paylo");
  EXPECT_EQ(a.size(), 7u);
  EXPECT_EQ(a.str(), "payload");
}

TEST(ValueRefTest, EmptyValueHoldsNoBuffer) {
  const ValueRef empty;
  const ValueRef from_empty_string("");
  EXPECT_TRUE(empty.empty());
  EXPECT_EQ(empty.size(), 0u);
  EXPECT_EQ(empty.use_count(), 0);
  EXPECT_EQ(from_empty_string.use_count(), 0);
  ASSERT_NE(empty.data(), nullptr);
  EXPECT_EQ(empty.view(), "");
  EXPECT_EQ(empty, from_empty_string);
  EXPECT_EQ(empty, "");
  EXPECT_NE(empty, ValueRef("x"));
  const ValueRef copy = empty;
  EXPECT_TRUE(copy.empty());
  copy.Prefetch();  // a no-op without a buffer
  EXPECT_EQ((VersionedValue{empty, Version{1, 1}}.ContentDigest()), ValueDigest("", 1));
}

TEST(ValueRefTest, ControlBytesSurvive) {
  const std::string bytes("a\0b\x1e" "c", 5);
  const ValueRef value(bytes);
  EXPECT_EQ(value.size(), 5u);
  EXPECT_EQ(value, bytes);
  EXPECT_EQ(ValueRef(value).str(), bytes);
  EXPECT_EQ(ValueRef(std::string_view(bytes).substr(1, 3)), std::string("\0b\x1e", 3));
}

TEST(ValueRefTest, MovedFromHandleIsEmpty) {
  ValueRef a("moved");
  const char* bytes = a.data();
  ValueRef b = std::move(a);
  EXPECT_TRUE(a.empty());  // NOLINT(bugprone-use-after-move): moved-from state is specified
  EXPECT_EQ(a, "");
  EXPECT_EQ(b.data(), bytes);
  EXPECT_EQ(b.use_count(), 1);

  ValueRef c("other");
  c = std::move(b);
  EXPECT_TRUE(b.empty());  // NOLINT(bugprone-use-after-move)
  EXPECT_EQ(c.data(), bytes);
  EXPECT_EQ(c.use_count(), 1);
}

TEST(ValueRefTest, LastCopyFreesTheBuffer) {
  // Under ASan a buffer that is never freed fails this test as a leak, and one freed
  // twice as a double free.
  ValueRef survivor;
  {
    const ValueRef original(std::string(1000, 'x'));
    const std::vector<ValueRef> copies(8, original);
    EXPECT_EQ(original.use_count(), 9);
    survivor = copies.back();
    EXPECT_EQ(original.use_count(), 10);
  }
  EXPECT_EQ(survivor.use_count(), 1);
  EXPECT_EQ(survivor, std::string(1000, 'x'));
  const ValueRef& alias = survivor;
  survivor = alias;  // self-assignment keeps the buffer
  EXPECT_EQ(survivor.use_count(), 1);
  survivor = ValueRef("y");  // drops the last handle of the big buffer
  EXPECT_EQ(survivor, "y");
}

TEST(ValueRefTest, CopiesAcrossThreads) {
  constexpr int kThreads = 4;
  constexpr int kCopies = 100'000;
  const ValueRef shared("one buffer, four lanes");
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&shared]() {
      for (int i = 0; i < kCopies; ++i) {
        const ValueRef copy = shared;
        ASSERT_EQ(copy.data(), shared.data());
      }
    });
  }
  for (std::thread& thread : threads) {
    thread.join();
  }
  EXPECT_EQ(shared.use_count(), 1);

  // Whichever thread drops the last handle frees the buffer.
  threads.clear();
  ValueRef last(std::string(64, 'z'));
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([mine = last]() mutable {
      for (int i = 0; i < kCopies / 10; ++i) {
        const ValueRef copy = mine;
      }
      mine = ValueRef();
    });
  }
  last = ValueRef();
  for (std::thread& thread : threads) {
    thread.join();
  }
  EXPECT_TRUE(last.empty());
}

}  // namespace
}  // namespace icg
