#include "src/common/metrics.h"

#include <gtest/gtest.h>

#include "src/common/digest.h"

namespace icg {
namespace {

TEST(Counter, IncrementsAndResets) {
  Counter c;
  EXPECT_EQ(c.value(), 0);
  c.Increment();
  c.Increment(4);
  EXPECT_EQ(c.value(), 5);
  c.Reset();
  EXPECT_EQ(c.value(), 0);
}

TEST(MetricRegistry, NamedCountersIndependent) {
  MetricRegistry r;
  r.GetCounter("a").Increment(2);
  r.GetCounter("b").Increment(3);
  EXPECT_EQ(r.Value("a"), 2);
  EXPECT_EQ(r.Value("b"), 3);
  EXPECT_EQ(r.Value("missing"), 0);
}

TEST(MetricRegistry, ResetClearsAll) {
  MetricRegistry r;
  r.GetCounter("x").Increment(9);
  r.Reset();
  EXPECT_EQ(r.Value("x"), 0);
  EXPECT_EQ(r.counters().size(), 1u);  // names persist, values reset
}

TEST(Digest, Fnv1aKnownValues) {
  // FNV-1a published test vectors.
  EXPECT_EQ(Fnv1a(""), 0xcbf29ce484222325ULL);
  EXPECT_EQ(Fnv1a("a"), 0xaf63dc4c8601ec8cULL);
  EXPECT_EQ(Fnv1a("foobar"), 0x85944171f73967e8ULL);
}

TEST(Digest, ValueDigestSensitiveToContent) {
  EXPECT_NE(ValueDigest("abc", 1), ValueDigest("abd", 1));
  EXPECT_NE(ValueDigest("abc", 1), ValueDigest("abc", 2));
  EXPECT_EQ(ValueDigest("abc", 1), ValueDigest("abc", 1));
}

TEST(Digest, ConstexprUsable) {
  constexpr Digest d = Fnv1a("compile-time");
  static_assert(d != 0);
  EXPECT_NE(d, 0u);
}

}  // namespace
}  // namespace icg
