#include "src/common/metrics.h"

#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <string_view>

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

TEST(Digest, Xxh64KnownValues) {
  // XXH64 reference values, seed 0: the empty input, a byte tail alone, 8-byte words
  // then a byte tail, and two 32-byte stripes then 8-byte words.
  EXPECT_EQ(Xxh64(""), 0xef46db3751d8e999ULL);
  EXPECT_EQ(Xxh64("abc"), 0x44bc2cf5ad770999ULL);
  EXPECT_EQ(Xxh64("abcdefghijklmnopqrstuvwxyz"), 0xcfe1f278fa89835cULL);
  EXPECT_EQ(Xxh64("1234567890123456789012345678901234567890"
                  "1234567890123456789012345678901234567890"),
            0xe04a477f19ee145dULL);
}

// Lengths 0-100 run the 32-byte lane loop zero to three times and every tail: 8-byte
// words, a 4-byte word and single bytes.
std::string PatternedBytes(size_t len) {
  std::string bytes(len, '\0');
  for (size_t i = 0; i < len; ++i) {
    bytes[i] = static_cast<char>(i * 37 + len);
  }
  return bytes;
}

TEST(Digest, Xxh64ChangesOnEverySingleBitFlip) {
  for (size_t len = 0; len <= 100; ++len) {
    std::string input = PatternedBytes(len);
    const Digest base = Xxh64(input);
    for (size_t bit = 0; bit < len * 8; ++bit) {
      input[bit / 8] = static_cast<char>(input[bit / 8] ^ (1 << (bit % 8)));
      EXPECT_NE(Xxh64(input), base) << "length " << len << ", bit " << bit;
      input[bit / 8] = static_cast<char>(input[bit / 8] ^ (1 << (bit % 8)));
    }
  }
}

TEST(Digest, Xxh64IgnoresAlignment) {
  alignas(8) char buffer[8 + 100];
  for (size_t len = 0; len <= 100; ++len) {
    const std::string input = PatternedBytes(len);
    for (size_t offset = 1; offset < 8; offset += 2) {
      std::memcpy(buffer + offset, input.data(), len);
      EXPECT_EQ(Xxh64(std::string_view(buffer + offset, len)), Xxh64(input))
          << "length " << len << ", offset " << offset;
    }
  }
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
