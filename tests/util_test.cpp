// Unit tests for the util substrate: checks, RNG, bit vectors, saturating
// arithmetic, statistics, tables, CSV and CLI parsing.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <set>

#include "util/bitvec.hpp"
#include "util/check.hpp"
#include "util/cli.hpp"
#include "util/csv.hpp"
#include "util/rng.hpp"
#include "util/saturate.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"

namespace ldpc {
namespace {

// ---------------------------------------------------------------- check ----

TEST(Check, PassingCheckDoesNotThrow) {
  EXPECT_NO_THROW(LDPC_CHECK(1 + 1 == 2));
}

TEST(Check, FailingCheckThrowsError) {
  EXPECT_THROW(LDPC_CHECK(false), Error);
}

TEST(Check, MessageCarriesExpressionAndText) {
  try {
    LDPC_CHECK_MSG(2 > 3, "two is not more than " << 3);
    FAIL() << "expected throw";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("2 > 3"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("two is not more than 3"),
              std::string::npos);
  }
}

// ------------------------------------------------------------------ rng ----

TEST(Rng, DeterministicForSameSeed) {
  Xoshiro256 a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a(), b());
}

TEST(Rng, DifferentSeedsDiverge) {
  Xoshiro256 a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += (a() == b());
  EXPECT_LT(same, 2);
}

TEST(Rng, ReseedRestoresStream) {
  Xoshiro256 a(77);
  std::vector<std::uint64_t> first;
  for (int i = 0; i < 10; ++i) first.push_back(a());
  a.reseed(77);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(a(), first[i]);
}

TEST(Rng, UniformInUnitInterval) {
  Xoshiro256 rng(5);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, UniformMeanNearHalf) {
  Xoshiro256 rng(6);
  RunningStats s;
  for (int i = 0; i < 100000; ++i) s.add(rng.uniform());
  EXPECT_NEAR(s.mean(), 0.5, 0.01);
}

TEST(Rng, UniformIntRespectsBound) {
  Xoshiro256 rng(7);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 5000; ++i) {
    const std::uint64_t v = rng.uniform_int(7);
    EXPECT_LT(v, 7u);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 7u);  // all residues hit
}

TEST(Rng, UniformIntBoundOneAlwaysZero) {
  Xoshiro256 rng(8);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(rng.uniform_int(1), 0u);
}

TEST(Rng, GaussianMomentsMatchStandardNormal) {
  Xoshiro256 rng(9);
  RunningStats s;
  for (int i = 0; i < 200000; ++i) s.add(rng.gaussian());
  EXPECT_NEAR(s.mean(), 0.0, 0.02);
  EXPECT_NEAR(s.stddev(), 1.0, 0.02);
}

TEST(Rng, CoinIsRoughlyFair) {
  Xoshiro256 rng(10);
  int heads = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) heads += rng.coin();
  EXPECT_NEAR(static_cast<double>(heads) / n, 0.5, 0.01);
}

TEST(Rng, SplitmixExpandsDistinctValues) {
  std::uint64_t s = 42;
  const auto a = splitmix64(s);
  const auto b = splitmix64(s);
  const auto c = splitmix64(s);
  EXPECT_NE(a, b);
  EXPECT_NE(b, c);
}

// --------------------------------------------------------------- bitvec ----

TEST(BitVec, StartsAllZero) {
  BitVec v(130);
  EXPECT_EQ(v.size(), 130u);
  EXPECT_TRUE(v.all_zero());
  EXPECT_EQ(v.popcount(), 0u);
}

TEST(BitVec, SetGetFlipRoundTrip) {
  BitVec v(100);
  v.set(0, true);
  v.set(63, true);
  v.set(64, true);
  v.set(99, true);
  EXPECT_TRUE(v.get(0));
  EXPECT_TRUE(v.get(63));
  EXPECT_TRUE(v.get(64));
  EXPECT_TRUE(v.get(99));
  EXPECT_FALSE(v.get(1));
  EXPECT_EQ(v.popcount(), 4u);
  v.flip(63);
  EXPECT_FALSE(v.get(63));
  v.flip(63);
  EXPECT_TRUE(v.get(63));
}

TEST(BitVec, OutOfRangeAccessThrows) {
  BitVec v(10);
  EXPECT_THROW(v.get(10), Error);
  EXPECT_THROW(v.set(10, true), Error);
  EXPECT_THROW(v.flip(10), Error);
}

TEST(BitVec, XorWithComputesSymmetricDifference) {
  BitVec a(70), b(70);
  a.set(3, true);
  a.set(65, true);
  b.set(3, true);
  b.set(64, true);
  a.xor_with(b);
  EXPECT_FALSE(a.get(3));
  EXPECT_TRUE(a.get(64));
  EXPECT_TRUE(a.get(65));
  EXPECT_EQ(a.popcount(), 2u);
}

TEST(BitVec, XorSizeMismatchThrows) {
  BitVec a(10), b(11);
  EXPECT_THROW(a.xor_with(b), Error);
}

TEST(BitVec, HammingDistance) {
  BitVec a(128), b(128);
  for (std::size_t i = 0; i < 128; i += 3) a.set(i, true);
  EXPECT_EQ(a.hamming_distance(b), a.popcount());
  b = a;
  EXPECT_EQ(a.hamming_distance(b), 0u);
  b.flip(127);
  EXPECT_EQ(a.hamming_distance(b), 1u);
}

TEST(BitVec, HammingDistancePrefixCountsOnlyThePrefix) {
  BitVec a(200), b(130);
  for (std::size_t i = 0; i < 130; i += 3) b.set(i, true);
  a.set(199, true);  // beyond every prefix below
  for (const std::size_t bits : {0u, 1u, 63u, 64u, 65u, 127u, 128u, 130u}) {
    std::size_t want = 0;
    for (std::size_t i = 0; i < bits; ++i) want += a.get(i) != b.get(i);
    EXPECT_EQ(a.hamming_distance_prefix(b, bits), want) << bits;
    EXPECT_EQ(b.hamming_distance_prefix(a, bits), want) << bits;
  }
  EXPECT_THROW(a.hamming_distance_prefix(b, 131), Error);
}

TEST(BitVec, EqualityComparesLengthAndContent) {
  BitVec a(10), b(10), c(11);
  EXPECT_TRUE(a == b);
  EXPECT_FALSE(a == c);
  b.set(5, true);
  EXPECT_FALSE(a == b);
}

TEST(BitVec, ClearAllResets) {
  BitVec a(200);
  for (std::size_t i = 0; i < 200; i += 2) a.set(i, true);
  a.clear_all();
  EXPECT_TRUE(a.all_zero());
}

// ------------------------------------------------------------- saturate ----

TEST(Saturate, BoundsForEightBits) {
  EXPECT_EQ(fixed_max(8), 127);
  EXPECT_EQ(fixed_min(8), -128);
}

TEST(Saturate, BoundsForSixBits) {
  EXPECT_EQ(fixed_max(6), 31);
  EXPECT_EQ(fixed_min(6), -32);
}

TEST(Saturate, ClampPassesInRangeValues) {
  EXPECT_EQ(sat_clamp(100, 8), 100);
  EXPECT_EQ(sat_clamp(-100, 8), -100);
  EXPECT_EQ(sat_clamp(0, 8), 0);
}

TEST(Saturate, ClampSaturatesAtRails) {
  EXPECT_EQ(sat_clamp(1000, 8), 127);
  EXPECT_EQ(sat_clamp(-1000, 8), -128);
  EXPECT_EQ(sat_clamp(32, 6), 31);
  EXPECT_EQ(sat_clamp(-33, 6), -32);
}

TEST(Saturate, AddSaturates) {
  EXPECT_EQ(sat_add(100, 100, 8), 127);
  EXPECT_EQ(sat_add(-100, -100, 8), -128);
  EXPECT_EQ(sat_add(50, -20, 8), 30);
}

TEST(Saturate, SubSaturates) {
  EXPECT_EQ(sat_sub(100, -100, 8), 127);
  EXPECT_EQ(sat_sub(-100, 100, 8), -128);
  EXPECT_EQ(sat_sub(-128, -128, 8), 0);
}

TEST(Saturate, ScaleThreeQuartersMatchesShiftAdd) {
  // The hardware computes (|v|>>1)+(|v|>>2) with truncation per shift.
  for (int v = -128; v <= 127; ++v) {
    const int mag = v < 0 ? -v : v;
    const int expect = (v < 0 ? -1 : 1) * ((mag >> 1) + (mag >> 2));
    EXPECT_EQ(scale_three_quarters(v), expect) << "v=" << v;
  }
}

TEST(Saturate, ScaleThreeQuartersIsOddSymmetric) {
  for (int v = 0; v <= 127; ++v)
    EXPECT_EQ(scale_three_quarters(-v), -scale_three_quarters(v));
}

TEST(Saturate, ScaleNeverIncreasesMagnitude) {
  for (int v = -128; v <= 127; ++v) {
    const int s = scale_three_quarters(v);
    EXPECT_LE(std::abs(s), std::abs(v));
  }
}

TEST(Saturate, WidthRailsAcrossSupportedRange) {
  // Every supported width, including both extremes of the guard.
  EXPECT_EQ(fixed_max(2), 1);
  EXPECT_EQ(fixed_min(2), -2);
  EXPECT_EQ(fixed_max(16), 32767);
  EXPECT_EQ(fixed_min(16), -32768);
  EXPECT_EQ(fixed_max(31), 1073741823);
  EXPECT_EQ(fixed_min(31), -1073741824);
  for (int bits = kMinFixedBits; bits <= kMaxFixedBits; ++bits) {
    EXPECT_EQ(fixed_max(bits), -(fixed_min(bits) + 1)) << bits;
    EXPECT_EQ(sat_clamp(std::int64_t{1} << 40, bits), fixed_max(bits));
    EXPECT_EQ(sat_clamp(-(std::int64_t{1} << 40), bits), fixed_min(bits));
  }
}

TEST(Saturate, InvalidWidthsThrow) {
  // bits >= 32 would shift past the int width (UB before the guard), and
  // bits < 2 leaves no magnitude bits.
  EXPECT_THROW(fixed_max(32), Error);
  EXPECT_THROW(fixed_max(64), Error);
  EXPECT_THROW(fixed_min(32), Error);
  EXPECT_THROW(fixed_max(1), Error);
  EXPECT_THROW(fixed_max(0), Error);
  EXPECT_THROW(fixed_min(-3), Error);
  EXPECT_THROW(sat_clamp(0, 32), Error);
  EXPECT_THROW(sat_add(1, 1, 40), Error);
}

TEST(Saturate, CountedClampAtExactBounds) {
  long long clips = 0;
  // Values exactly on the rails pass through unclipped and uncounted.
  EXPECT_EQ(sat_clamp_counted(127, 8, clips), 127);
  EXPECT_EQ(sat_clamp_counted(-128, 8, clips), -128);
  EXPECT_EQ(clips, 0);
  // One past either rail clips and counts.
  EXPECT_EQ(sat_clamp_counted(128, 8, clips), 127);
  EXPECT_EQ(clips, 1);
  EXPECT_EQ(sat_clamp_counted(-129, 8, clips), -128);
  EXPECT_EQ(clips, 2);
  // Counted add/sub at the exact boundary behave like the uncounted ops.
  EXPECT_EQ(sat_add_counted(100, 27, 8, clips), 127);
  EXPECT_EQ(clips, 2);
  EXPECT_EQ(sat_sub_counted(-100, 28, 8, clips), -128);
  EXPECT_EQ(clips, 2);
  EXPECT_EQ(sat_add_counted(100, 28, 8, clips), 127);
  EXPECT_EQ(clips, 3);
}

TEST(Saturate, ScaleThreeQuartersTruncatesUnitValues) {
  // (1>>1)+(1>>2) = 0: the shift-add datapath truncates |v| = 1 to zero in
  // both directions — the sign-magnitude symmetry the decoder relies on.
  EXPECT_EQ(scale_three_quarters(1), 0);
  EXPECT_EQ(scale_three_quarters(-1), 0);
  EXPECT_EQ(scale_three_quarters(0), 0);
}

// ---------------------------------------------------------------- stats ----

TEST(Stats, EmptyStatsAreZero) {
  RunningStats s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_EQ(s.mean(), 0.0);
  EXPECT_EQ(s.variance(), 0.0);
}

TEST(Stats, KnownSequence) {
  RunningStats s;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_NEAR(s.variance(), 32.0 / 7.0, 1e-12);  // sample variance
  EXPECT_EQ(s.min(), 2.0);
  EXPECT_EQ(s.max(), 9.0);
  EXPECT_DOUBLE_EQ(s.sum(), 40.0);
}

TEST(Stats, SingleValueHasZeroVariance) {
  RunningStats s;
  s.add(3.5);
  EXPECT_EQ(s.variance(), 0.0);
  EXPECT_EQ(s.mean(), 3.5);
}

TEST(Stats, PercentileEmptyAndSingle) {
  EXPECT_EQ(percentile_sorted({}, 0.5), 0.0);
  const std::vector<double> one{42.0};
  EXPECT_DOUBLE_EQ(percentile_sorted(one, 0.0), 42.0);
  EXPECT_DOUBLE_EQ(percentile_sorted(one, 0.5), 42.0);
  EXPECT_DOUBLE_EQ(percentile_sorted(one, 1.0), 42.0);
}

TEST(Stats, PercentileTwoSamplesInterpolates) {
  // The old ceil-rank rule returned the max here; the median of {10, 20}
  // is their midpoint.
  const std::vector<double> two{10.0, 20.0};
  EXPECT_DOUBLE_EQ(percentile_sorted(two, 0.5), 15.0);
  EXPECT_DOUBLE_EQ(percentile_sorted(two, 0.0), 10.0);
  EXPECT_DOUBLE_EQ(percentile_sorted(two, 1.0), 20.0);
  EXPECT_DOUBLE_EQ(percentile_sorted(two, 0.25), 12.5);
}

TEST(Stats, PercentileOddCountHitsMiddle) {
  const std::vector<double> odd{1.0, 2.0, 3.0, 4.0, 5.0};
  EXPECT_DOUBLE_EQ(percentile_sorted(odd, 0.5), 3.0);
  EXPECT_DOUBLE_EQ(percentile_sorted(odd, 0.25), 2.0);
  EXPECT_DOUBLE_EQ(percentile_sorted(odd, 0.75), 4.0);
  EXPECT_DOUBLE_EQ(percentile_sorted(odd, 0.9), 4.6);
}

TEST(Stats, PercentileEvenCountInterpolates) {
  const std::vector<double> even{1.0, 2.0, 3.0, 4.0};
  EXPECT_DOUBLE_EQ(percentile_sorted(even, 0.5), 2.5);
  EXPECT_DOUBLE_EQ(percentile_sorted(even, 1.0), 4.0);
  // p95 of four samples: rank 2.85 -> between 3 and 4.
  EXPECT_NEAR(percentile_sorted(even, 0.95), 3.85, 1e-12);
}

TEST(Stats, PercentileRejectsOutOfRangeQuantile) {
  const std::vector<double> v{1.0, 2.0};
  EXPECT_THROW(percentile_sorted(v, -0.1), Error);
  EXPECT_THROW(percentile_sorted(v, 1.1), Error);
}

TEST(Histogram, BinsCountCorrectly) {
  Histogram h(0.0, 10.0, 10);
  for (int i = 0; i < 10; ++i) h.add(i + 0.5);
  for (std::size_t b = 0; b < 10; ++b) EXPECT_EQ(h.bin_count(b), 1u);
  EXPECT_EQ(h.total(), 10u);
}

TEST(Histogram, OutOfRangeGoesToEdgeBins) {
  Histogram h(0.0, 1.0, 4);
  h.add(-5.0);
  h.add(7.0);
  EXPECT_EQ(h.bin_count(0), 1u);
  EXPECT_EQ(h.bin_count(3), 1u);
}

TEST(Histogram, InvalidRangeThrows) {
  EXPECT_THROW(Histogram(1.0, 1.0, 4), Error);
  EXPECT_THROW(Histogram(2.0, 1.0, 4), Error);
}

TEST(Histogram, BinEdgesAreUniform) {
  Histogram h(0.0, 8.0, 4);
  EXPECT_DOUBLE_EQ(h.bin_lo(0), 0.0);
  EXPECT_DOUBLE_EQ(h.bin_hi(0), 2.0);
  EXPECT_DOUBLE_EQ(h.bin_lo(3), 6.0);
}

// ---------------------------------------------------------------- table ----

TEST(Table, RendersHeaderAndRows) {
  TextTable t("Demo");
  t.set_header({"a", "metric"});
  t.add_row({"x", "1.00"});
  t.add_row({"yy", "2.50"});
  const std::string s = t.str();
  EXPECT_NE(s.find("Demo"), std::string::npos);
  EXPECT_NE(s.find("metric"), std::string::npos);
  EXPECT_NE(s.find("2.50"), std::string::npos);
  EXPECT_NE(s.find("+--"), std::string::npos);
}

TEST(Table, NumberFormatters) {
  EXPECT_EQ(TextTable::num(3.14159, 2), "3.14");
  EXPECT_EQ(TextTable::integer(12345), "12345");
  EXPECT_EQ(TextTable::percent(0.2951, 1), "29.5%");
  EXPECT_EQ(TextTable::sci(12345.0, 2), "1.23e+04");
}

TEST(Table, HandlesRaggedRows) {
  TextTable t;
  t.set_header({"a", "b", "c"});
  t.add_row({"only-one"});
  EXPECT_NO_THROW(t.str());
}

// ------------------------------------------------------------------ csv ----

TEST(Csv, WritesAndEscapes) {
  const std::string path = "/tmp/ldpc_csv_test.csv";
  {
    CsvWriter w(path);
    w.write_row({"a", "b,c", "say \"hi\""});
    w.write_row({"1", "2", "3"});
  }
  std::ifstream in(path);
  std::string line1, line2;
  std::getline(in, line1);
  std::getline(in, line2);
  EXPECT_EQ(line1, "a,\"b,c\",\"say \"\"hi\"\"\"");
  EXPECT_EQ(line2, "1,2,3");
  std::remove(path.c_str());
}

TEST(Csv, BadPathThrows) {
  EXPECT_THROW(CsvWriter("/nonexistent_dir_xyz/file.csv"), Error);
}

// ------------------------------------------------------------------ cli ----

TEST(Cli, ParsesSpaceAndEqualsForms) {
  const char* argv[] = {"prog", "--alpha", "3", "--beta=hello"};
  CliArgs args(4, argv, {"alpha", "beta"});
  EXPECT_EQ(args.get_int("alpha", 0), 3);
  EXPECT_EQ(args.get("beta", ""), "hello");
}

TEST(Cli, FallbacksWhenAbsent) {
  const char* argv[] = {"prog"};
  CliArgs args(1, argv, {"alpha"});
  EXPECT_FALSE(args.has("alpha"));
  EXPECT_EQ(args.get_int("alpha", 42), 42);
  EXPECT_DOUBLE_EQ(args.get_double("alpha", 1.5), 1.5);
}

TEST(Cli, UnknownFlagThrows) {
  const char* argv[] = {"prog", "--bogus", "1"};
  EXPECT_THROW(CliArgs(3, argv, {"alpha"}), Error);
}

TEST(Cli, MissingValueThrows) {
  const char* argv[] = {"prog", "--alpha"};
  EXPECT_THROW(CliArgs(2, argv, {"alpha"}), Error);
}

TEST(Cli, NonNumericIntThrows) {
  const char* argv[] = {"prog", "--alpha", "xyz"};
  CliArgs args(3, argv, {"alpha"});
  EXPECT_THROW(args.get_int("alpha", 0), Error);
}

TEST(Cli, ParsesDoubles) {
  const char* argv[] = {"prog", "--ebn0", "2.25"};
  CliArgs args(3, argv, {"ebn0"});
  EXPECT_DOUBLE_EQ(args.get_double("ebn0", 0.0), 2.25);
}

}  // namespace
}  // namespace ldpc
