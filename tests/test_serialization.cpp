// Tests for trust-level table persistence: round trips and strict loading.
#include <gtest/gtest.h>

#include <sstream>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "trust/serialization.hpp"

namespace gridtrust::trust {
namespace {

TrustLevelTable random_table(std::size_t cd, std::size_t rd, std::size_t act,
                             std::uint64_t seed) {
  TrustLevelTable table(cd, rd, act);
  Rng rng(seed);
  table.randomize(rng);
  return table;
}

TEST(TableSerialization, RoundTripPreservesEveryEntry) {
  const TrustLevelTable original = random_table(3, 4, 8, 1);
  const TrustLevelTable restored =
      table_from_string(table_to_string(original));
  ASSERT_EQ(restored.client_domains(), 3u);
  ASSERT_EQ(restored.resource_domains(), 4u);
  ASSERT_EQ(restored.activities(), 8u);
  for (std::size_t cd = 0; cd < 3; ++cd) {
    for (std::size_t rd = 0; rd < 4; ++rd) {
      for (std::size_t act = 0; act < 8; ++act) {
        EXPECT_EQ(restored.get(cd, rd, act), original.get(cd, rd, act));
      }
    }
  }
}

TEST(TableSerialization, MinimalTable) {
  TrustLevelTable table(1, 1, 1);
  table.set(0, 0, 0, TrustLevel::kD);
  const TrustLevelTable restored = table_from_string(table_to_string(table));
  EXPECT_EQ(restored.get(0, 0, 0), TrustLevel::kD);
}

TEST(TableSerialization, FormatIsHumanReadable) {
  const std::string text = table_to_string(random_table(1, 2, 3, 2));
  EXPECT_EQ(text.rfind("gridtrust-trust-table v1", 0), 0u);
  EXPECT_NE(text.find("dims 1 2 3"), std::string::npos);
  EXPECT_NE(text.find("row 0 0 "), std::string::npos);
  EXPECT_NE(text.find("row 0 1 "), std::string::npos);
}

TEST(TableSerialization, ToleratesCommentsAndBlankLines) {
  const TrustLevelTable original = random_table(2, 2, 2, 3);
  std::string text = table_to_string(original);
  text.insert(text.find('\n') + 1, "# a comment\n\n");
  const TrustLevelTable restored = table_from_string(text);
  EXPECT_EQ(restored.get(1, 1, 1), original.get(1, 1, 1));
}

TEST(TableSerialization, RejectsCorruptInput) {
  EXPECT_THROW(table_from_string(""), PreconditionError);
  EXPECT_THROW(table_from_string("wrong header\n"), PreconditionError);
  EXPECT_THROW(table_from_string("gridtrust-trust-table v1\ndims 1 1\n"),
               PreconditionError);
  EXPECT_THROW(
      table_from_string("gridtrust-trust-table v1\ndims 1 1 2\nrow 0 0 A\n"),
      PreconditionError);  // wrong level count
  EXPECT_THROW(
      table_from_string("gridtrust-trust-table v1\ndims 1 1 1\nrow 0 0 F\n"),
      PreconditionError);  // F is not an offered level
  EXPECT_THROW(
      table_from_string("gridtrust-trust-table v1\ndims 1 1 1\nrow 0 5 A\n"),
      PreconditionError);  // rd out of range
  EXPECT_THROW(
      table_from_string("gridtrust-trust-table v1\ndims 1 1 1\n"),
      PreconditionError);  // missing rows
}

// A dims line is a claim the rows must back: the loader allocates only
// after every row is in, and each (cd, rd) row appears exactly once.

constexpr const char* kTableHeader = "gridtrust-trust-table v1\n";

TEST(TableSerialization, DimsWhoseProductWrapsAreRejected) {
  // 2^32 x 2^32 x 1 wraps size_t to 0: a table claiming 2^64 entries over
  // no storage, which the first offered_trust_level read runs off.
  EXPECT_THROW(table_from_string(std::string(kTableHeader) +
                                 "dims 4294967296 4294967296 1\n"
                                 "row 0 0 A\n"),
               PreconditionError);
  EXPECT_THROW(TrustLevelTable(std::size_t{1} << 32, std::size_t{1} << 32, 1),
               PreconditionError);
  EXPECT_THROW(TrustLevelTable(2, std::size_t{1} << 62, 4),
               PreconditionError);
}

TEST(TableSerialization, NegativeDimsAreRejected) {
  // operator>> would read -1 as 2^64 - 1.
  for (const char* dims : {"dims -1 1 1\n", "dims 1 -1 1\n", "dims 1 1 -1\n",
                           "dims +1 1 1\n"}) {
    EXPECT_THROW(table_from_string(std::string(kTableHeader) + dims +
                                   "row 0 0 A\n"),
                 PreconditionError)
        << dims;
  }
  EXPECT_THROW(table_from_string(std::string(kTableHeader) +
                                 "dims 1 1 1\nrow -0 0 A\n"),
               PreconditionError);
}

TEST(TableSerialization, HugeDimsNeedTheirRowsBeforeAnyAllocation) {
  // Two lines must not ask for 100000 x 100000 x 8 bytes (80 GB).
  EXPECT_THROW(table_from_string(std::string(kTableHeader) +
                                 "dims 100000 100000 8\n"
                                 "row 0 0 ABCDEABC\n"),
               PreconditionError);
}

TEST(TableSerialization, EveryRowAppearsExactlyOnce) {
  // Row (0, 0) twice and no row (0, 1): the old loader left (0, 1) at A.
  EXPECT_THROW(table_from_string(std::string(kTableHeader) +
                                 "dims 1 2 1\nrow 0 0 C\nrow 0 0 D\n"),
               PreconditionError);
  // Any row order loads.
  const TrustLevelTable table = table_from_string(
      std::string(kTableHeader) + "dims 1 2 2\nrow 0 1 DE\nrow 0 0 BC\n");
  EXPECT_EQ(table.get(0, 0, 1), TrustLevel::kC);
  EXPECT_EQ(table.get(0, 1, 0), TrustLevel::kD);
}

}  // namespace
}  // namespace gridtrust::trust
