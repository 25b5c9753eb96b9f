#include <gtest/gtest.h>

#include <cmath>
#include <map>

#include "common/flags.h"
#include "common/random.h"
#include "common/stats.h"
#include "common/status.h"
#include "common/types.h"
#include "common/zipf.h"

namespace tpart {
namespace {

// ---- Status / Result --------------------------------------------------

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kOk);
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = Status::NotFound("missing key 42");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kNotFound);
  EXPECT_EQ(s.ToString(), "NotFound: missing key 42");
}

TEST(StatusTest, AllCodesHaveNames) {
  for (int c = 0; c <= static_cast<int>(StatusCode::kUnavailable); ++c) {
    EXPECT_STRNE(StatusCodeName(static_cast<StatusCode>(c)), "Unknown");
  }
}

TEST(ResultTest, HoldsValue) {
  Result<int> r = 42;
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 42);
  EXPECT_EQ(r.value_or(-1), 42);
}

TEST(ResultTest, HoldsError) {
  Result<int> r = Status::Internal("boom");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInternal);
  EXPECT_EQ(r.value_or(-1), -1);
}

Result<int> Half(int x) {
  if (x % 2 != 0) return Status::InvalidArgument("odd");
  return x / 2;
}

Result<int> Quarter(int x) {
  TPART_ASSIGN_OR_RETURN(int h, Half(x));
  TPART_ASSIGN_OR_RETURN(int q, Half(h));
  return q;
}

TEST(ResultTest, AssignOrReturnMacroPropagates) {
  EXPECT_EQ(*Quarter(8), 2);
  EXPECT_FALSE(Quarter(6).ok());  // 6/2 = 3, odd
}

// ---- Rng ---------------------------------------------------------------

TEST(RngTest, DeterministicForSameSeed) {
  Rng a(7), b(7);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.Next() == b.Next()) ++same;
  }
  EXPECT_LT(same, 2);
}

TEST(RngTest, NextBelowInRange) {
  Rng rng(3);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.NextBelow(17), 17u);
  }
}

TEST(RngTest, NextBelowCoversAllValues) {
  Rng rng(11);
  std::map<std::uint64_t, int> seen;
  for (int i = 0; i < 1000; ++i) seen[rng.NextBelow(5)]++;
  EXPECT_EQ(seen.size(), 5u);
}

TEST(RngTest, NextInRangeInclusive) {
  Rng rng(5);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 2000; ++i) {
    const std::int64_t v = rng.NextInRange(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
    saw_lo |= v == -3;
    saw_hi |= v == 3;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(RngTest, NextDoubleInUnitInterval) {
  Rng rng(9);
  double sum = 0;
  for (int i = 0; i < 10000; ++i) {
    const double d = rng.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
    sum += d;
  }
  EXPECT_NEAR(sum / 10000.0, 0.5, 0.02);
}

TEST(RngTest, NextBoolMatchesProbability) {
  Rng rng(13);
  int truthy = 0;
  for (int i = 0; i < 10000; ++i) truthy += rng.NextBool(0.3) ? 1 : 0;
  EXPECT_NEAR(truthy / 10000.0, 0.3, 0.03);
}

// ---- Zipf --------------------------------------------------------------

TEST(ZipfTest, ThetaZeroIsUniform) {
  Rng rng(1);
  ZipfGenerator zipf(10, 0.0);
  std::map<std::uint64_t, int> counts;
  for (int i = 0; i < 20000; ++i) counts[zipf.Next(rng)]++;
  for (const auto& [v, c] : counts) {
    EXPECT_LT(v, 10u);
    EXPECT_NEAR(c / 20000.0, 0.1, 0.03);
  }
}

TEST(ZipfTest, SkewConcentratesOnSmallIds) {
  Rng rng(2);
  ZipfGenerator zipf(1000, 0.9);
  int head = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    if (zipf.Next(rng) < 10) ++head;
  }
  // Top 1% of keys should receive far more than 1% of accesses.
  EXPECT_GT(head, n / 10);
}

TEST(ZipfTest, ValuesAlwaysInRange) {
  Rng rng(3);
  ZipfGenerator zipf(37, 0.7);
  for (int i = 0; i < 10000; ++i) EXPECT_LT(zipf.Next(rng), 37u);
}

// ---- RunningStat / Histogram --------------------------------------------

TEST(RunningStatTest, BasicMoments) {
  RunningStat s;
  for (const double x : {1.0, 2.0, 3.0, 4.0}) s.Add(x);
  EXPECT_EQ(s.count(), 4u);
  EXPECT_DOUBLE_EQ(s.mean(), 2.5);
  EXPECT_DOUBLE_EQ(s.min(), 1.0);
  EXPECT_DOUBLE_EQ(s.max(), 4.0);
  EXPECT_DOUBLE_EQ(s.sum(), 10.0);
  EXPECT_NEAR(s.variance(), 1.25, 1e-12);
}

TEST(RunningStatTest, EmptyIsZero) {
  RunningStat s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_EQ(s.mean(), 0.0);
  EXPECT_EQ(s.variance(), 0.0);
}

TEST(RunningStatTest, MergeMatchesCombined) {
  RunningStat a, b, all;
  Rng rng(4);
  for (int i = 0; i < 100; ++i) {
    const double x = rng.NextDouble() * 10;
    (i % 2 == 0 ? a : b).Add(x);
    all.Add(x);
  }
  a.Merge(b);
  EXPECT_EQ(a.count(), all.count());
  EXPECT_NEAR(a.mean(), all.mean(), 1e-9);
  EXPECT_NEAR(a.variance(), all.variance(), 1e-9);
  EXPECT_DOUBLE_EQ(a.min(), all.min());
  EXPECT_DOUBLE_EQ(a.max(), all.max());
}

TEST(HistogramTest, CountMeanMax) {
  Histogram h;
  h.Add(1);
  h.Add(3);
  h.Add(1000);
  EXPECT_EQ(h.count(), 3u);
  EXPECT_NEAR(h.mean(), (1 + 3 + 1000) / 3.0, 1e-9);
  EXPECT_EQ(h.max_value(), 1000u);
}

TEST(HistogramTest, QuantileMonotone) {
  Histogram h;
  for (std::uint64_t i = 1; i <= 1000; ++i) h.Add(i);
  EXPECT_LE(h.Quantile(0.5), h.Quantile(0.99));
  EXPECT_GT(h.Quantile(0.99), 500u);
}

TEST(HistogramTest, MergeAddsCounts) {
  Histogram a, b;
  a.Add(5);
  b.Add(7);
  b.Add(100000);
  a.Merge(b);
  EXPECT_EQ(a.count(), 3u);
  EXPECT_EQ(a.max_value(), 100000u);
}

// ---- Types --------------------------------------------------------------

TEST(TypesTest, ObjectKeyPacksTableAndPk) {
  const ObjectKey k = MakeObjectKey(7, 123456789);
  EXPECT_EQ(TableOf(k), 7u);
  EXPECT_EQ(PrimaryKeyOf(k), 123456789u);
}

TEST(TypesTest, DistinctTablesYieldDistinctKeys) {
  EXPECT_NE(MakeObjectKey(1, 5), MakeObjectKey(2, 5));
}

// ---- Flags ------------------------------------------------------------

TEST(FlagsTest, ParsesValuesAndFallsBackToDefaults) {
  char prog[] = "prog", txns[] = "--txns=250", drop[] = "--drop=0.25",
       name[] = "--workload=tpcc", runtime[] = "--runtime";
  char* argv[] = {prog, txns, drop, name, runtime};
  const int argc = 5;
  EXPECT_EQ(IntFlag(argc, argv, "txns", 7), 250u);
  EXPECT_EQ(IntFlag(argc, argv, "machines", 7), 7u);
  EXPECT_DOUBLE_EQ(DoubleFlag(argc, argv, "drop", 0.0), 0.25);
  EXPECT_DOUBLE_EQ(DoubleFlag(argc, argv, "dup", 0.5), 0.5);
  EXPECT_EQ(StringFlag(argc, argv, "workload", "micro"), "tpcc");
  EXPECT_EQ(StringFlag(argc, argv, "engine", "both"), "both");
  EXPECT_TRUE(BoolFlag(argc, argv, "runtime"));
  EXPECT_FALSE(BoolFlag(argc, argv, "gstore"));
}

TEST(FlagsTest, StrideFlagAcceptsBothForms) {
  char prog[] = "prog", plain[] = "--txn-sample=64",
       stride[] = "--txn-sample=1/32";
  char* with_plain[] = {prog, plain};
  EXPECT_EQ(StrideFlag(2, with_plain, "txn-sample", 0), 64u);
  char* with_stride[] = {prog, stride};
  EXPECT_EQ(StrideFlag(2, with_stride, "txn-sample", 0), 32u);
  EXPECT_EQ(StrideFlag(1, with_stride, "txn-sample", 0), 0u);
}

// A value that does not parse in full exits 2 naming the flag and value,
// instead of silently running a different experiment.
TEST(FlagsTest, MalformedValuesExitWithStatusTwo) {
  char prog[] = "prog", txns[] = "--txns=2k", every[] = "--sample-every=-1",
       drop[] = "--drop=0.1x", sample[] = "--txn-sample=1/x";
  char* with_txns[] = {prog, txns};
  EXPECT_EXIT(IntFlag(2, with_txns, "txns", 7),
              ::testing::ExitedWithCode(2), "bad value for --txns: 2k");
  char* with_every[] = {prog, every};
  EXPECT_EXIT(IntFlag(2, with_every, "sample-every", 1),
              ::testing::ExitedWithCode(2),
              "bad value for --sample-every: -1");
  char* with_drop[] = {prog, drop};
  EXPECT_EXIT(DoubleFlag(2, with_drop, "drop", 0.0),
              ::testing::ExitedWithCode(2), "bad value for --drop: 0.1x");
  char* with_sample[] = {prog, sample};
  EXPECT_EXIT(StrideFlag(2, with_sample, "txn-sample", 0),
              ::testing::ExitedWithCode(2),
              "bad value for --txn-sample: 1/x");
}

TEST(FlagsTest, FirstUnknownFlagNamesTheStrayArgument) {
  char prog[] = "prog", txns[] = "--txns=250", runtime[] = "--runtime",
       stale[] = "--stale", bare[] = "txns";
  char* ok[] = {prog, txns, runtime};
  EXPECT_EQ(FirstUnknownFlag(3, ok, {"txns", "runtime"}), nullptr);
  char* with_stale[] = {prog, txns, stale, runtime};
  EXPECT_STREQ(FirstUnknownFlag(4, with_stale, {"txns", "runtime"}),
               "--stale");
  // A known name without the leading dashes is not a flag.
  char* with_bare[] = {prog, bare};
  EXPECT_STREQ(FirstUnknownFlag(2, with_bare, {"txns"}), "txns");
  // Prefixes of known names do not match.
  char* prefix[] = {prog, runtime};
  EXPECT_STREQ(FirstUnknownFlag(2, prefix, {"runtime-x", "run"}),
               "--runtime");
}

}  // namespace
}  // namespace tpart
