// The oracles' seed reader: ICG_ORACLE_SEED must be a plain unsigned 64-bit decimal, and
// anything else fails the test that reads it instead of silently running another seed.
#include "tests/integration/oracle_support.h"

#include <gtest/gtest-spi.h>
#include <gtest/gtest.h>

#include <cstdlib>
#include <string>

namespace icg {
namespace {

TEST(OracleSupport, ParseSeedAcceptsOnlyUnsignedDecimals) {
  EXPECT_EQ(ParseSeed("0"), std::optional<uint64_t>(0));
  EXPECT_EQ(ParseSeed("20260731"), std::optional<uint64_t>(20260731));
  EXPECT_EQ(ParseSeed("18446744073709551615"), std::optional<uint64_t>(UINT64_MAX));
  for (const char* bad : {"", "abc", "7x", "x7", "-1", "+1", " 7", "7 ", "1.5", "0x10",
                          "18446744073709551616"}) {
    EXPECT_EQ(ParseSeed(bad), std::nullopt) << "\"" << bad << "\"";
  }
}

TEST(OracleSupport, SeedFromEnvFailsTheTestOnAMalformedSeed) {
  const char* env = std::getenv("ICG_ORACLE_SEED");
  const std::string saved = env != nullptr ? env : "";  // empty reads as unset
  setenv("ICG_ORACLE_SEED", "7", /*overwrite=*/1);
  EXPECT_EQ(SeedFromEnv(), 7u);
  for (const char* bad : {"abc", "7x", "-1"}) {
    setenv("ICG_ORACLE_SEED", bad, 1);
    uint64_t seed = 0;
    EXPECT_NONFATAL_FAILURE(seed = SeedFromEnv(), "ICG_ORACLE_SEED");
    EXPECT_EQ(seed, 12345u) << bad;
  }
  setenv("ICG_ORACLE_SEED", "", 1);
  EXPECT_EQ(SeedFromEnv(), 12345u);
  setenv("ICG_ORACLE_SEED", saved.c_str(), 1);
}

}  // namespace
}  // namespace icg
