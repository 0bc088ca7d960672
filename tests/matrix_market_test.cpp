// Malformed-input corpus of the matrix-market reader: every corrupt,
// truncated, or overflowing file must surface as a structured
// invalid_input error carrying the failing 1-based line — never as a
// crash, a silent garbage matrix, or an uncategorized exception. The
// "mm.truncate" fault site additionally cuts healthy streams short at
// seed-chosen points to prove mid-file truncation is always clean.
#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "memfront/sparse/matrix_market.hpp"
#include "memfront/support/fault.hpp"
#include "memfront/support/status.hpp"

namespace memfront {
namespace {

constexpr const char* kGood =
    "%%MatrixMarket matrix coordinate real general\n"
    "3 3 4\n"
    "1 1 2.0\n"
    "2 2 3.0\n"
    "3 3 4.0\n"
    "3 1 -1.0\n";

/// Parses `text`, expecting an InvalidInputError; returns it for
/// payload checks.
InvalidInputError parse_expecting_error(const std::string& text) {
  std::istringstream in(text);
  try {
    (void)read_matrix_market(in);
  } catch (const InvalidInputError& e) {
    return e;
  }
  ADD_FAILURE() << "no InvalidInputError from: " << text.substr(0, 60);
  return InvalidInputError("unreached");
}

TEST(MatrixMarketErrors, GoodFileStillParses) {
  std::istringstream in(kGood);
  const MatrixMarketData data = read_matrix_market(in);
  EXPECT_EQ(data.matrix.nrows(), 3);
  EXPECT_EQ(data.matrix.nnz(), 4);
  EXPECT_FALSE(data.declared_symmetric);
}

TEST(MatrixMarketErrors, EmptyStream) {
  const auto e = parse_expecting_error("");
  EXPECT_EQ(e.code(), ErrorCode::kInvalidInput);
  EXPECT_NE(std::string(e.what()).find("empty stream"), std::string::npos);
}

TEST(MatrixMarketErrors, BadBanner) {
  const auto e = parse_expecting_error("%%NotMatrixMarket matrix coordinate real general\n1 1 0\n");
  EXPECT_EQ(e.context().input_line, 1);
  EXPECT_NE(std::string(e.what()).find("banner"), std::string::npos);
}

TEST(MatrixMarketErrors, ArrayFormatRejected) {
  const auto e =
      parse_expecting_error("%%MatrixMarket matrix array real general\n");
  EXPECT_NE(std::string(e.what()).find("coordinate"), std::string::npos);
}

TEST(MatrixMarketErrors, UnsupportedField) {
  (void)parse_expecting_error(
      "%%MatrixMarket matrix coordinate complex general\n1 1 0\n");
}

TEST(MatrixMarketErrors, UnsupportedSymmetry) {
  (void)parse_expecting_error(
      "%%MatrixMarket matrix coordinate real skew-symmetric\n1 1 0\n");
}

TEST(MatrixMarketErrors, MissingSizeLine) {
  const auto e = parse_expecting_error(
      "%%MatrixMarket matrix coordinate real general\n% only comments\n");
  EXPECT_NE(std::string(e.what()).find("size line"), std::string::npos);
}

TEST(MatrixMarketErrors, UnparsableSizeLine) {
  const auto e = parse_expecting_error(
      "%%MatrixMarket matrix coordinate real general\nthree by three\n");
  EXPECT_EQ(e.context().input_line, 2);
}

TEST(MatrixMarketErrors, NonPositiveDimensions) {
  (void)parse_expecting_error(
      "%%MatrixMarket matrix coordinate real general\n0 3 1\n1 1 1.0\n");
  (void)parse_expecting_error(
      "%%MatrixMarket matrix coordinate real general\n3 -1 1\n1 1 1.0\n");
}

TEST(MatrixMarketErrors, DimensionOverflowsIndexType) {
  // 2^33 rows cannot be held by the 32-bit index type: reject at the
  // size line instead of silently wrapping.
  const auto e = parse_expecting_error(
      "%%MatrixMarket matrix coordinate real general\n8589934592 3 1\n");
  EXPECT_NE(std::string(e.what()).find("overflow"), std::string::npos);
}

TEST(MatrixMarketErrors, EntryCountExceedsDenseSize) {
  const auto e = parse_expecting_error(
      "%%MatrixMarket matrix coordinate real general\n2 2 5\n"
      "1 1 1\n1 2 1\n2 1 1\n2 2 1\n1 1 1\n");
  EXPECT_NE(std::string(e.what()).find("dense"), std::string::npos);
}

TEST(MatrixMarketErrors, TruncatedEntryListReportsProgress) {
  const auto e = parse_expecting_error(
      "%%MatrixMarket matrix coordinate real general\n3 3 4\n"
      "1 1 2.0\n2 2 3.0\n");
  const std::string what = e.what();
  EXPECT_NE(what.find("truncated"), std::string::npos);
  EXPECT_NE(what.find("2 of 4"), std::string::npos);
  EXPECT_EQ(e.context().input_line, 4);  // last line successfully read
}

TEST(MatrixMarketErrors, UnparsableEntry) {
  const auto e = parse_expecting_error(
      "%%MatrixMarket matrix coordinate real general\n3 3 2\n"
      "1 1 2.0\nnot an entry\n");
  EXPECT_EQ(e.context().input_line, 4);
}

TEST(MatrixMarketErrors, EntryIndexOutOfRange) {
  (void)parse_expecting_error(
      "%%MatrixMarket matrix coordinate real general\n3 3 1\n4 1 1.0\n");
  (void)parse_expecting_error(
      "%%MatrixMarket matrix coordinate real general\n3 3 1\n1 0 1.0\n");
}

TEST(MatrixMarketErrors, NonFiniteValueRejected) {
  // "nan" either fails the numeric parse or the finiteness screen
  // (implementation-dependent); both must land on invalid_input.
  (void)parse_expecting_error(
      "%%MatrixMarket matrix coordinate real general\n3 3 1\n1 1 nan\n");
}

TEST(MatrixMarketErrors, StillCatchableAsStdInvalidArgument) {
  // The pre-taxonomy contract (sparse_test's RejectsGarbage) must hold:
  // every reader failure is a std::invalid_argument.
  std::istringstream in("garbage\n");
  EXPECT_THROW((void)read_matrix_market(in), std::invalid_argument);
}

TEST(MatrixMarketErrors, InjectedTruncationIsAlwaysClean) {
  // Cut the stream short at seed-chosen lines: every schedule must end
  // in a structured invalid_input (or parse fine when no line fires) —
  // never a garbage matrix.
  int injected_runs = 0;
  for (std::uint64_t seed = 0; seed < 32; ++seed) {
    fault::ScopedPlan plan(
        {.seed = seed, .period = 0, .overrides = {{"mm.truncate", 3}}});
    std::istringstream in(kGood);
    try {
      const MatrixMarketData data = read_matrix_market(in);
      EXPECT_EQ(data.matrix.nnz(), 4);  // untruncated parses are intact
    } catch (const InvalidInputError&) {
      ++injected_runs;
    }
  }
  EXPECT_GT(injected_runs, 0) << "no seed ever truncated";
  EXPECT_LT(injected_runs, 32) << "every seed truncated at line one";
}

TEST(MatrixMarketErrors, TruncationScheduleReplays) {
  // Equal seeds replay equal schedules: the same seed must fail (or
  // succeed) identically across arms.
  for (std::uint64_t seed : {0ull, 7ull, 23ull}) {
    std::string first;
    for (int round = 0; round < 2; ++round) {
      fault::ScopedPlan plan(
          {.seed = seed, .period = 0, .overrides = {{"mm.truncate", 2}}});
      std::istringstream in(kGood);
      std::string outcome = "ok";
      try {
        (void)read_matrix_market(in);
      } catch (const InvalidInputError& e) {
        outcome = e.what();
      }
      if (round == 0)
        first = outcome;
      else
        EXPECT_EQ(first, outcome) << "seed " << seed;
    }
  }
}

}  // namespace
}  // namespace memfront
